"""Tests for the async serving subsystem (`repro.serve`).

The acceptance bar of the serving layer, verbatim from its issue:

* the batcher coalesces >= 90% of concurrent requests into multi-key
  batches under load;
* every response equals the oracle lookup;
* deadline-expired requests get timeout responses, not wrong answers;
* hot-swap under concurrent traffic loses zero in-flight requests;
* the committed ``BENCH_serve.json`` shows micro-batched serving at
  >= 3x the throughput of batch-size-1 serving with p50/p95/p99.

No pytest-asyncio in the container, so every test drives its own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import data
from repro.baselines import BinarySearchIndex, BTreeIndex, PGMIndex
from repro.serve import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    Histogram,
    IndexServer,
    ServeMetrics,
    run_open_loop,
)
from repro.workload import make_arrivals

from .conftest import lower_bound_oracle

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def serve_keys():
    return data.generate("books", n=20_000)


class SlowIndex(BinarySearchIndex):
    """An index whose batches take a configurable time to execute."""

    sleep_s = 0.05

    def serve_batch(self, point_queries, range_lows, range_highs):
        time.sleep(self.sleep_s)
        return super().serve_batch(point_queries, range_lows, range_highs)


class StallOnceIndex(BinarySearchIndex):
    """An index whose next batch, once ``stall_s`` is set, blocks for
    that long."""

    stall_s = 0.0

    def serve_batch(self, point_queries, range_lows, range_highs):
        stall, self.stall_s = self.stall_s, 0.0
        time.sleep(stall)
        return super().serve_batch(point_queries, range_lows, range_highs)


class BrokenIndex(BinarySearchIndex):
    """An index whose every batch raises."""

    def serve_batch(self, *a):
        raise RuntimeError("boom")


# ----------------------------------------------------------------------
# Coalescing and correctness under load
# ----------------------------------------------------------------------


def test_coalesces_concurrent_requests(serve_keys):
    """>= 90% of a concurrent burst lands in multi-request batches."""

    async def run():
        server = IndexServer(
            BinarySearchIndex(serve_keys),
            max_batch_size=128,
            max_wait_s=0.002,
            max_queue=2048,
            shed_policy="block",
        )
        async with server:
            report = await run_open_loop(
                server, serve_keys, num_requests=2000, qps=None, seed=7
            )
        return report, server.metrics

    report, metrics = asyncio.run(run())
    assert report["statuses"] == {STATUS_OK: 2000}
    assert report["wrong"] == 0
    assert report["coalesced_fraction"] >= 0.9
    assert metrics.coalesced_fraction >= 0.9
    assert metrics.batch_size.mean > 1.5


def test_every_response_equals_oracle(serve_keys):
    """Point and range responses match np.searchsorted exactly."""
    rng = np.random.default_rng(11)
    present = serve_keys[rng.integers(0, len(serve_keys), 300)]
    absent = rng.integers(0, 2**64, 300, dtype=np.uint64)
    queries = np.concatenate([present, absent])
    want = lower_bound_oracle(serve_keys, queries)

    async def run():
        server = IndexServer(PGMIndex(serve_keys), max_batch_size=64,
                             max_wait_s=0.001, shed_policy="block")
        async with server:
            responses = await asyncio.gather(
                *(server.lookup(int(q)) for q in queries)
            )
            range_resp = await server.range_query(
                int(serve_keys[100]), int(serve_keys[500])
            )
        return responses, range_resp

    responses, range_resp = asyncio.run(run())
    for resp, expected in zip(responses, want):
        assert resp.status == STATUS_OK
        assert resp.position == expected
    start = lower_bound_oracle(serve_keys, serve_keys[100:101])[0]
    end = lower_bound_oracle(serve_keys, serve_keys[500:501])[0]
    assert range_resp.status == STATUS_OK
    assert range_resp.position == start
    assert range_resp.count == end - start


def test_open_loop_with_ranges_and_zipf(serve_keys):
    """The loadgen's mixed zipf/range stream validates end to end."""

    async def run():
        server = IndexServer(BTreeIndex(serve_keys), max_batch_size=64,
                             max_wait_s=0.001, shed_policy="block")
        async with server:
            return await run_open_loop(
                server, serve_keys, num_requests=800, qps=20_000,
                seed=3, access="zipf", include_absent=0.2,
                range_fraction=0.25,
            )

    report = asyncio.run(run())
    assert report["statuses"] == {STATUS_OK: 800}
    assert report["wrong"] == 0
    assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]


def test_open_loop_latency_counts_from_the_scheduled_send(serve_keys):
    """One ``serve_batch`` blocks the loop thread for 50 ms: requests
    that fall due during it are sent late and report that wait."""
    index = StallOnceIndex(serve_keys)

    async def run():
        server = IndexServer(index, max_batch_size=64, max_wait_s=0.001,
                             shed_policy="block")
        async with server:
            index.stall_s = 0.05  # the run's first batch stalls
            return await run_open_loop(server, serve_keys,
                                       num_requests=200, qps=2000, seed=5)

    report = asyncio.run(run())
    assert report["statuses"] == {STATUS_OK: 200}
    assert report["wrong"] == 0
    # About half of the requests (0.5 ms apart) fall due during the
    # stall and wait up to 50 ms for it.
    assert report["latency_ms"]["p95"] >= 25.0
    assert report["send_lag_ms"]["max"] >= 25.0


# ----------------------------------------------------------------------
# Deadlines, shedding, drain
# ----------------------------------------------------------------------


def test_expired_requests_get_timeouts_not_wrong_answers(serve_keys):
    """With a slow index and tight deadlines, late requests time out;
    whatever completes is still correct; nothing is dropped."""

    async def run():
        server = IndexServer(SlowIndex(serve_keys), max_batch_size=8,
                             max_wait_s=0.0, shed_policy="block",
                             max_queue=256)
        queries = serve_keys[np.arange(64) * 100]
        want = lower_bound_oracle(serve_keys, queries)
        async with server:
            responses = await asyncio.gather(
                *(server.lookup(int(q), timeout_s=0.02) for q in queries)
            )
        return responses, want

    responses, want = asyncio.run(run())
    statuses = {r.status for r in responses}
    assert STATUS_TIMEOUT in statuses, "expected some deadline expiries"
    timeouts = ok = 0
    for resp, expected in zip(responses, want):
        if resp.status == STATUS_TIMEOUT:
            timeouts += 1
            assert resp.position is None, "a timeout must not carry a value"
        else:
            assert resp.status == STATUS_OK
            assert resp.position == expected
            ok += 1
    assert timeouts + ok == 64


@pytest.mark.parametrize("front", ["server", "router"])
def test_out_of_range_key_fails_only_its_caller(front):
    """A key that does not fit a uint64 raises at the caller; requests
    submitted beside it are answered."""
    from repro.serve import LocalBackend, ShardRouter, plan_shards

    keys = np.arange(0, 2000, dtype=np.uint64) * np.uint64(3)

    async def run():
        if front == "server":
            target = IndexServer(BinarySearchIndex(keys))
        else:
            plan = plan_shards(keys, 2)
            target = ShardRouter(LocalBackend(
                [BinarySearchIndex(plan.slice_keys(keys, i))
                 for i in range(2)], plan))
        async with target:
            return await asyncio.wait_for(asyncio.gather(
                target.lookup(-1),
                target.range_query(5, 2**64),
                target.lookup(int(keys[7])),
                target.range_query(int(keys[10]), int(keys[20])),
                return_exceptions=True,
            ), 10)

    bad_point, bad_range, point, span = asyncio.run(run())
    assert isinstance(bad_point, OverflowError)
    assert isinstance(bad_range, OverflowError)
    assert (point.status, point.position) == (STATUS_OK, 7)
    assert (span.status, span.position, span.count) == (STATUS_OK, 10, 10)


def test_full_queue_sheds_with_reject_policy(serve_keys):
    async def run():
        server = IndexServer(SlowIndex(serve_keys), max_batch_size=4,
                             max_wait_s=0.0, max_queue=8,
                             shed_policy="reject")
        async with server:
            return await run_open_loop(
                server, serve_keys, num_requests=100, qps=None, seed=5
            )

    report = asyncio.run(run())
    assert report["statuses"].get(STATUS_REJECTED, 0) > 0
    assert report["wrong"] == 0
    total = sum(report["statuses"].values())
    assert total == 100, "shed requests must still be answered"


def test_graceful_drain_resolves_every_future(serve_keys):
    """stop() answers everything already queued before shutting down."""

    async def run():
        server = IndexServer(BinarySearchIndex(serve_keys),
                             max_batch_size=32, max_wait_s=0.05,
                             shed_policy="block")
        await server.start()
        queries = serve_keys[np.arange(200) * 50]
        tasks = [asyncio.create_task(server.lookup(int(q)))
                 for q in queries]
        await asyncio.sleep(0)  # let the submits enqueue
        await server.stop()
        responses = await asyncio.gather(*tasks)
        late = await server.lookup(int(queries[0]))
        return queries, responses, late

    queries, responses, late = asyncio.run(run())
    want = lower_bound_oracle(data.generate("books", n=20_000), queries)
    assert all(r.status == STATUS_OK for r in responses)
    assert [r.position for r in responses] == list(want)
    assert late.status == STATUS_REJECTED  # after drain: no silent hang


# ----------------------------------------------------------------------
# Hot swap
# ----------------------------------------------------------------------


def test_hot_swap_loses_zero_in_flight_requests(serve_keys):
    """Swap b-tree -> pgm mid-stream: all requests answered correctly,
    some before and some after the swap."""

    async def run():
        server = IndexServer(BTreeIndex(serve_keys), max_batch_size=32,
                             max_wait_s=0.0005, max_queue=4096,
                             shed_policy="block")
        completed_at_swap = {}

        async def swap_halfway():
            while server.metrics.completed.value < 600:
                await asyncio.sleep(0.0002)
            completed_at_swap["n"] = server.metrics.completed.value
            server.swap_index(PGMIndex(serve_keys))

        async with server:
            swapper = asyncio.create_task(swap_halfway())
            report = await run_open_loop(
                server, serve_keys, num_requests=2000, qps=None, seed=13
            )
            await swapper
        return report, server.metrics, completed_at_swap["n"]

    report, metrics, at_swap = asyncio.run(run())
    assert report["statuses"] == {STATUS_OK: 2000}, "zero dropped requests"
    assert report["wrong"] == 0
    assert metrics.swaps.value == 1
    assert 0 < at_swap < 2000, "swap happened under live traffic"
    assert isinstance(report, dict)


def test_swap_returns_previous_index(serve_keys):
    async def run():
        first = BinarySearchIndex(serve_keys)
        second = PGMIndex(serve_keys)
        server = IndexServer(first)
        async with server:
            old = server.swap_index(second)
            resp = await server.lookup(int(serve_keys[42]))
        return first, old, server.index, second, resp

    first, old, current, second, resp = asyncio.run(run())
    assert old is first
    assert current is second
    assert resp.status == STATUS_OK
    assert resp.position == lower_bound_oracle(
        serve_keys, serve_keys[42:43]
    )[0]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def test_histogram_percentiles_are_bin_accurate():
    h = Histogram(lo=1e-6, hi=10.0, bins_per_decade=20)
    values = np.linspace(0.001, 0.1, 1000)
    for v in values:
        h.observe(v)
    for q in (50, 95, 99):
        exact = float(np.percentile(values, q))
        approx = h.percentile(q)
        assert exact / 1.2 <= approx <= exact * 1.2, (q, exact, approx)
    assert h.count == 1000
    assert h.min == pytest.approx(0.001)
    assert h.max == pytest.approx(0.1)
    summary = h.summary()
    assert {"count", "mean", "min", "max", "p50", "p95", "p99"} <= set(summary)


@pytest.mark.parametrize("lo,hi,bins_per_decade", [
    (1e-6, 1e3, 80),   # ServeMetrics.latency_s
    (1.0, 1e6, 40),    # ServeMetrics.batch_size / queue_depth
    (1e-6, 1e3, 20),   # the Histogram default
])
def test_observe_many_matches_per_value_observe(lo, hi, bins_per_decade):
    """The batched histogram update lands every value in the bin that
    ``observe`` picks, exact bin edges included, and keeps the same
    count, min, max and total."""
    rng = np.random.default_rng(17)
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    random = 10.0 ** rng.uniform(log_lo - 1, log_hi + 1, 20_000)
    k = np.arange(int(round((log_hi - log_lo) * bins_per_decade)) + 1)
    edges = 10.0 ** (log_lo + k / bins_per_decade)
    near = np.concatenate([edges, np.nextafter(edges, 0),
                           np.nextafter(edges, np.inf)])
    outside = np.array([0.0, lo / 10, lo, hi, hi * 10])
    for values in (random, edges, near, outside, np.array([])):
        single = Histogram(lo=lo, hi=hi, bins_per_decade=bins_per_decade)
        batched = Histogram(lo=lo, hi=hi, bins_per_decade=bins_per_decade)
        for v in values:
            single.observe(v)
        batched.observe_many(values)
        batched.observe_many([])  # an empty update changes nothing
        assert batched.counts == single.counts
        assert batched.count == single.count == len(values)
        assert batched.min == single.min
        assert batched.max == single.max
        assert batched.total == pytest.approx(single.total, rel=1e-12,
                                              abs=0.0)


def test_metrics_snapshot_and_log_line(serve_keys):
    async def run():
        metrics = ServeMetrics()
        server = IndexServer(BinarySearchIndex(serve_keys), metrics=metrics,
                             max_batch_size=16, max_wait_s=0.001,
                             shed_policy="block")
        async with server:
            await run_open_loop(server, serve_keys, num_requests=200,
                                qps=None, seed=1)
        return metrics

    metrics = asyncio.run(run())
    snap = metrics.snapshot()
    assert snap["requests"]["submitted"] == 200
    assert snap["requests"]["completed"] == 200
    assert snap["requests"]["errors"] == 0
    for hist in ("latency_s", "batch_size", "queue_depth"):
        assert {"p50", "p95", "p99"} <= set(snap[hist])
    line = metrics.log_line()
    assert "served=200" in line and "p99=" in line
    parsed = json.loads(metrics.to_json())
    assert parsed["batches"] >= 1


def test_index_error_yields_error_responses(serve_keys):
    """An index that raises fails its batch, not the server."""

    async def run():
        server = IndexServer(BrokenIndex(serve_keys), max_batch_size=8,
                             max_wait_s=0.001, shed_policy="block")
        async with server:
            responses = await asyncio.gather(
                *(server.lookup(int(serve_keys[i])) for i in range(16))
            )
            # The server survives: swap in a working index, serve again.
            server.swap_index(BinarySearchIndex(serve_keys))
            good = await server.lookup(int(serve_keys[3]))
        return responses, good

    responses, good = asyncio.run(run())
    assert all(r.status == "error" for r in responses)
    assert all("boom" in r.error for r in responses)
    assert good.status == STATUS_OK


def test_batched_resolution_accounts_every_request_once(serve_keys):
    """Per-batch resolution keeps the books: one batch mixes live and
    already-expired requests, the next fails in the index, and a late
    request is rejected.  Every request resolves once with a final
    status, the status counters add up to ``submitted``, and each
    request adds exactly one latency observation."""
    live_keys = serve_keys[np.arange(4) * 997]
    lows, highs = serve_keys[[10, 500]], serve_keys[[400, 9000]]

    async def run():
        server = IndexServer(BinarySearchIndex(serve_keys),
                             max_batch_size=8, max_wait_s=10.0,
                             shed_policy="block")
        async with server:
            # Batch 1 (released full): 3 lookups + 1 range live, 4 with
            # a deadline that has passed by dispatch.
            mixed = [server.lookup(int(k)) for k in live_keys[:3]]
            mixed.append(server.range_query(int(lows[0]), int(highs[0])))
            mixed += [server.lookup(int(k), timeout_s=0.0)
                      for k in live_keys]
            first = await asyncio.gather(*mixed)
            # Batch 2: the index raises for every request in it.
            server.swap_index(BrokenIndex(serve_keys))
            failing = [server.lookup(int(k)) for k in live_keys]
            failing += [server.range_query(int(lo), int(hi))
                        for lo, hi in zip(lows, highs)]
            failing += [server.lookup(int(k)) for k in live_keys[:2]]
            second = await asyncio.gather(*failing)
        late = await server.lookup(int(live_keys[0]))
        return first, second, late, server.metrics

    first, second, late, metrics = asyncio.run(run())
    responses = [*first, *second, late]
    assert [r.status for r in first] == [STATUS_OK] * 4 + [STATUS_TIMEOUT] * 4
    want = lower_bound_oracle(serve_keys, live_keys[:3])
    assert [r.position for r in first[:3]] == list(want)
    lo_pos, hi_pos = lower_bound_oracle(serve_keys,
                                        np.array([lows[0], highs[0]]))
    assert (first[3].position, first[3].count) == (lo_pos, hi_pos - lo_pos)
    assert all(r.position is None and r.count is None for r in first[4:])
    assert {r.status for r in second} == {STATUS_ERROR}
    assert all("boom" in r.error and r.batch_size == 8 for r in second)
    assert late.status == STATUS_REJECTED
    by_status = {}
    for r in responses:
        by_status[r.status] = by_status.get(r.status, 0) + 1
    assert metrics.submitted.value == len(responses) == 17
    assert metrics.completed.value == by_status[STATUS_OK] == 4
    assert metrics.timeouts.value == by_status[STATUS_TIMEOUT] == 4
    assert metrics.errors.value == by_status[STATUS_ERROR] == 8
    assert metrics.rejected.value == by_status[STATUS_REJECTED] == 1
    assert (metrics.completed.value + metrics.timeouts.value
            + metrics.errors.value + metrics.rejected.value
            == metrics.submitted.value)
    assert metrics.latency_s.count == metrics.submitted.value
    assert metrics.batches.value == 2


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------


def test_make_arrivals_poisson_and_saturation():
    offsets = make_arrivals(10_000, qps=5000, seed=9)
    assert len(offsets) == 10_000
    assert np.all(np.diff(offsets) >= 0), "arrival times are sorted"
    # Mean inter-arrival ~ 1/qps (law of large numbers at 10k samples).
    assert 0.9 / 5000 <= float(np.mean(np.diff(offsets))) <= 1.1 / 5000
    assert np.array_equal(make_arrivals(5, None), np.zeros(5))
    assert np.array_equal(make_arrivals(5, 0), np.zeros(5))
    assert len(make_arrivals(0, 100)) == 0
    # Deterministic under a fixed seed.
    np.testing.assert_array_equal(offsets, make_arrivals(10_000, 5000, 9))


# ----------------------------------------------------------------------
# The committed serving benchmark
# ----------------------------------------------------------------------


def test_committed_serve_benchmark():
    """BENCH_serve.json: >= 3 index types, batched >= 3x unbatched,
    p50/p95/p99 reported for both modes."""
    path = REPO_ROOT / "BENCH_serve.json"
    assert path.exists(), "BENCH_serve.json must be committed"
    report = json.loads(path.read_text())
    entries = [e for e in report["indexes"] if "speedup" in e]
    assert len(entries) >= 3
    assert report["min_speedup"] >= 3.0
    for e in entries:
        assert e["speedup"] >= 3.0, e["index"]
        for mode in ("batched", "unbatched"):
            lat = e[mode]["latency_ms"]
            assert {"p50", "p95", "p99"} <= set(lat), (e["index"], mode)
            assert e[mode]["wrong"] == 0
            assert e[mode]["completed"] == report["num_requests"]


def test_serve_report_machinery_small(serve_keys):
    """A tiny in-process serve_report run: structure + correctness (no
    speedup assertion -- timing at this scale is CI noise)."""
    from repro.serve.bench import serve_report

    report = serve_report(
        index_names=("binary-search", "b-tree"),
        dataset="books", n=5000, num_requests=400, seed=4,
        max_batch_size=64, max_wait_s=0.001, range_fraction=0.1,
    )
    assert len(report["indexes"]) == 2
    for e in report["indexes"]:
        assert e["batched"]["wrong"] == 0
        assert e["unbatched"]["wrong"] == 0
        assert e["batched"]["completed"] == 400
        assert e["speedup"] > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_serve_and_gates(tmp_path, capsys):
    from repro.serve.__main__ import main

    metrics_out = tmp_path / "metrics.json"
    rc = main([
        "serve", "--dataset", "books", "--n", "5000",
        "--index", "binary-search", "--requests", "300",
        "--qps", "20000", "--max-batch", "64",
        "--metrics-out", str(metrics_out),
        "--max-errors", "0", "--max-p99-ms", "10000",
    ])
    assert rc == 0
    payload = json.loads(metrics_out.read_text())
    assert payload["loadgen"]["wrong"] == 0
    assert payload["server"]["requests"]["completed"] == 300
    # An impossible p99 bound must flip the exit code.
    rc = main([
        "serve", "--dataset", "books", "--n", "5000",
        "--index", "binary-search", "--requests", "100",
        "--max-p99-ms", "0.000001",
    ])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_swap(capsys):
    from repro.serve.__main__ import main

    rc = main([
        "swap", "--dataset", "books", "--n", "5000",
        "--from-index", "binary-search", "--to-index", "b-tree",
        "--requests", "400", "--max-batch", "32",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "OK: swapped binary-search -> b-tree" in out


def test_cli_unknown_command_prints_usage(capsys):
    from repro.serve.__main__ import main

    assert main([]) == 2
    assert main(["--help"]) == 0
    assert "serve" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Batcher close-path regression (blocked putters vs. shutdown)
# ----------------------------------------------------------------------


def test_batcher_close_flushes_blocked_putters():
    """Regression: closing with ``put`` callers blocked on a full queue
    must not let a woken putter land a request after the final drain
    sweep (a dropped request whose future never resolves).  After
    ``close``, every blocked ``put`` returns ``False`` and the queue
    contents equal exactly the admitted requests."""
    from repro.serve.batcher import OP_LOOKUP, MicroBatcher, Request

    async def run():
        batcher = MicroBatcher(max_batch_size=4, max_wait_s=10.0,
                               max_queue=1)
        first = Request(op=OP_LOOKUP, key=0)
        assert batcher.try_put(first)
        blocked = [
            asyncio.create_task(
                batcher.put(Request(op=OP_LOOKUP, key=i))
            )
            for i in (1, 2)
        ]
        await asyncio.sleep(0.01)  # both putters parked on a full queue
        assert not any(t.done() for t in blocked)
        batcher.close()
        admitted = await asyncio.wait_for(asyncio.gather(*blocked), 5)
        drained = batcher.drain_nowait()
        # Nothing may sneak in after the sweep.
        drained += batcher.drain_nowait()
        return first, admitted, drained

    first, admitted, drained = asyncio.run(run())
    assert admitted == [False, False], \
        "blocked putters must be refused at close, not dropped"
    assert drained == [first]


def test_server_stop_with_blocked_putters_resolves_every_future(serve_keys):
    """Block-policy server at max_queue=1: stopping while several
    submitters are parked in ``put`` resolves every future (ok or
    rejected) -- the close-path bug left them pending forever."""

    async def run():
        slow = SlowIndex(serve_keys)
        slow.sleep_s = 0.02
        server = IndexServer(
            slow, max_batch_size=1, max_wait_s=0.0,
            max_queue=1, shed_policy="block",
        )
        async with server:
            tasks = [
                asyncio.create_task(server.lookup(int(k)))
                for k in serve_keys[:8]
            ]
            await asyncio.sleep(0.03)  # some served, some parked
        # __aexit__ ran stop(); every future must already be resolved.
        responses = await asyncio.wait_for(asyncio.gather(*tasks), 10)
        return responses

    responses = asyncio.run(run())
    assert len(responses) == 8
    for k, resp in zip(serve_keys[:8], responses):
        assert resp.status in (STATUS_OK, STATUS_REJECTED)
        if resp.status == STATUS_OK:
            assert resp.position == int(
                lower_bound_oracle(serve_keys, np.array([k]))[0]
            )


def test_stop_while_coalesce_deadline_pending_serves_queued(serve_keys):
    """Closing while the collector is waiting out a coalesce deadline
    must serve the queued requests promptly, not drop them (and not
    wait out the full deadline)."""

    async def run():
        server = IndexServer(
            BinarySearchIndex(serve_keys),
            max_batch_size=1024, max_wait_s=30.0,  # far-future deadline
            max_queue=64, shed_policy="block",
        )
        await server.start()
        tasks = [
            asyncio.create_task(server.lookup(int(k)))
            for k in serve_keys[:5]
        ]
        await asyncio.sleep(0.01)  # queued; collector awaits coalesce
        t0 = time.monotonic()
        await asyncio.wait_for(server.stop(), 10)
        elapsed = time.monotonic() - t0
        responses = await asyncio.wait_for(asyncio.gather(*tasks), 5)
        return responses, elapsed

    responses, elapsed = asyncio.run(run())
    assert elapsed < 5.0, "stop waited out the coalesce deadline"
    assert [r.status for r in responses] == [STATUS_OK] * 5
    want = lower_bound_oracle(serve_keys, serve_keys[:5])
    assert [r.position for r in responses] == list(want)


def test_collect_takes_a_full_queue_without_waiting(monkeypatch):
    """With ``max_batch_size`` requests already queued, ``collect``
    forms the batch in one step: no ``asyncio.wait_for`` at all."""
    from repro.serve.batcher import OP_LOOKUP, MicroBatcher, Request

    calls = []
    real_wait_for = asyncio.wait_for

    def counting_wait_for(*args, **kwargs):
        calls.append(args)
        return real_wait_for(*args, **kwargs)

    monkeypatch.setattr(asyncio, "wait_for", counting_wait_for)

    async def run():
        batcher = MicroBatcher(max_batch_size=64, max_wait_s=10.0,
                               max_queue=128)
        now = time.monotonic()
        sent = [Request(op=OP_LOOKUP, key=i, enqueued_at=now)
                for i in range(64)]
        for req in sent:
            assert batcher.try_put(req)
        extra = Request(op=OP_LOOKUP, key=64, enqueued_at=now)
        assert batcher.try_put(extra)
        batch = await asyncio.wait_for(batcher.collect(), 5)
        return sent, extra, batch, batcher.drain_nowait()

    sent, extra, batch, rest = asyncio.run(run())
    assert batch == sent
    assert rest == [extra], "a full batch leaves the rest queued"
    # The test's own wait_for is the only call.
    assert len(calls) == 1


def test_request_put_during_the_wait_joins_the_batch():
    """A request arriving inside the ``max_wait_s`` window of a waiting
    ``collect`` joins that batch instead of starting the next one."""
    from repro.serve.batcher import OP_LOOKUP, MicroBatcher, Request

    async def run():
        # The second request fills the batch, so a long window costs
        # the test nothing and a slow host cannot close it early.
        batcher = MicroBatcher(max_batch_size=2, max_wait_s=30.0)
        first = Request(op=OP_LOOKUP, key=1, enqueued_at=time.monotonic())
        assert batcher.try_put(first)
        collecting = asyncio.create_task(batcher.collect())
        await asyncio.sleep(0.02)  # collect is waiting out the window
        assert not collecting.done()
        late = Request(op=OP_LOOKUP, key=2, enqueued_at=time.monotonic())
        assert batcher.try_put(late)
        batch = await asyncio.wait_for(collecting, 5)
        return first, late, batch

    first, late, batch = asyncio.run(run())
    assert batch == [first, late]


def test_lone_request_waits_out_max_wait():
    """A lone request is released no earlier than ``max_wait_s`` after
    its ``enqueued_at``."""
    from repro.serve.batcher import OP_LOOKUP, MicroBatcher, Request

    max_wait_s = 0.03

    async def run():
        batcher = MicroBatcher(max_batch_size=8, max_wait_s=max_wait_s)
        lone = Request(op=OP_LOOKUP, key=1, enqueued_at=time.monotonic())
        assert batcher.try_put(lone)
        batch = await asyncio.wait_for(batcher.collect(), 5)
        return lone, batch, time.monotonic()

    lone, batch, released = asyncio.run(run())
    assert batch == [lone]
    assert released >= lone.enqueued_at + max_wait_s


# ----------------------------------------------------------------------
# Windowed metrics (the autotuner's per-control-window view)
# ----------------------------------------------------------------------


def test_window_between_counter_deltas():
    from repro.serve import ServeMetrics, window_between

    metrics = ServeMetrics()
    metrics.completed.inc(100)
    metrics.timeouts.inc(3)
    prev = metrics.state()
    metrics.completed.inc(40)
    metrics.rejected.inc(2)
    window = window_between(prev, metrics.state())
    assert window.completed.value == 40
    assert window.rejected.value == 2
    assert window.timeouts.value == 0  # unchanged counters window to zero


def test_window_between_histogram_percentiles_see_only_the_window():
    from repro.serve import ServeMetrics, window_between

    metrics = ServeMetrics()
    for _ in range(500):
        metrics.latency_s.observe(0.100)  # old, slow traffic
    prev = metrics.state()
    for _ in range(500):
        metrics.latency_s.observe(0.001)  # the window: fast traffic
    window = window_between(prev, metrics.state())
    # Lifetime p99 is dominated by the old 100ms observations; the
    # window's is not -- that is the whole point of windowing.
    assert metrics.latency_s.percentile(99) == pytest.approx(0.100, rel=0.1)
    assert window.latency_s.percentile(99) == pytest.approx(0.001, rel=0.1)
    assert window.latency_s.count == 500
    assert window.latency_s.min == pytest.approx(0.001, rel=0.1)
    assert window.latency_s.max <= 0.100  # bounded by outermost window bin


def test_window_between_empty_window_and_merge_roundtrip():
    from repro.serve import Histogram, ServeMetrics, window_between

    metrics = ServeMetrics()
    metrics.completed.inc(10)
    metrics.latency_s.observe(0.005)
    prev = metrics.state()
    window = window_between(prev, metrics.state())
    assert window.completed.value == 0
    assert window.latency_s.count == 0

    # Merge semantics: two consecutive windows rebuilt into one
    # histogram equal the lifetime histogram bin-for-bin.
    metrics.latency_s.observe(0.002)
    mid = metrics.state()
    metrics.latency_s.observe(0.050)
    cur = metrics.state()
    w1 = window_between(prev, mid)
    w2 = window_between(mid, cur)
    merged = Histogram(lo=w1.latency_s.lo, hi=w1.latency_s.hi,
                       bins_per_decade=w1.latency_s.bins_per_decade)
    merged.merge_state(w1.latency_s.state())
    merged.merge_state(w2.latency_s.state())
    lifetime_delta = window_between(prev, cur)
    assert merged.counts == lifetime_delta.latency_s.counts
    assert merged.count == 2


def test_window_between_rejects_backwards_snapshots():
    from repro.serve import ServeMetrics, window_between

    metrics = ServeMetrics()
    metrics.completed.inc(5)
    metrics.latency_s.observe(0.001)
    later = metrics.state()
    earlier = ServeMetrics().state()
    with pytest.raises(ValueError):
        window_between(later, earlier)


def test_bulk_lane_records_dispatch_latency(serve_keys):
    """serve_bulk observes one latency sample per dispatch, so windowed
    p99 stays meaningful under bulk-only traffic (the autotuner's
    post-swap watchdog measures through it)."""
    from repro.serve import window_between

    async def run():
        server = IndexServer(BinarySearchIndex(serve_keys),
                             shed_policy="block")
        empty = np.array([], dtype=np.uint64)
        async with server:
            prev = server.metrics.state()
            for lo in range(0, 2_048, 256):
                await server.serve_bulk(serve_keys[lo:lo + 256],
                                        empty, empty)
            window = window_between(prev, server.metrics.state())
        return window

    window = asyncio.run(run())
    assert window.latency_s.count == 8  # one observation per dispatch
    assert window.completed.value == 2_048  # but per-query completion
    assert window.latency_s.percentile(99) > 0.0
