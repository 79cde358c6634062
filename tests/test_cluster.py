"""Tests for the range-sharded serving tier (`repro.serve.router` /
`repro.serve.cluster`).

Two layers, mirroring the module split:

* **Property tests** against :class:`~repro.serve.router.LocalBackend`
  (no processes): for randomized keysets from the adversarial families
  of ``test_conformance`` and randomized shard boundaries, the router's
  split-then-gather answers must be bit-identical to the single-index
  ``np.searchsorted`` oracle -- including boundary-straddling ranges,
  duplicate runs crossing shard boundaries, and out-of-range keys;
  requests past their deadline answer ``timeout``, never a value.
* **Multi-process end-to-end tests** against a real
  :class:`~repro.serve.cluster.Cluster`: open-loop traffic with oracle
  validation, shard-level hot-swap under live load with zero lost or
  incorrect responses and monotone counters, gathered bulk calls and
  a burst of per-request lookups each sharing one pipe frame per shard,
  and the committed ``BENCH_serve.json`` scaling section.
* **The pipe transport**: the event loop serves both ends of every
  pipe (no thread in the parent or a worker), frames far larger than
  the socket buffer cross in both directions at once, and spawned
  workers speak the same protocol as forked ones.

No pytest-asyncio in the container, so every test drives its own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import data
from repro.baselines import BinarySearchIndex, PGMIndex
from repro.serve import (
    STATUS_OK,
    STATUS_TIMEOUT,
    Cluster,
    LocalBackend,
    ShardRouter,
    plan_shards,
    run_batch_closed_loop,
    run_open_loop,
)

from .conftest import lower_bound_oracle
from .test_conformance import _adversarial_keys, _adversarial_queries

REPO_ROOT = Path(__file__).resolve().parent.parent

FAMILIES = ["all-equal", "two-key", "dense-runs", "uint64-outliers"]


def _local_router(keys: np.ndarray, num_shards: int,
                  **router_kw) -> "tuple[LocalBackend, ShardRouter]":
    plan = plan_shards(keys, num_shards)
    backend = LocalBackend(
        [BinarySearchIndex(plan.slice_keys(keys, i))
         for i in range(plan.num_shards)],
        plan,
    )
    return backend, ShardRouter(backend, **router_kw)


def _ranges_from(keys: np.ndarray,
                 rng: np.random.Generator) -> "tuple[np.ndarray, np.ndarray]":
    """Range bounds biased toward shard-boundary straddling."""
    qs = _adversarial_queries(keys, rng)
    lows = rng.choice(qs, size=48)
    highs = rng.choice(qs, size=48)
    lo = np.minimum(lows, highs)
    hi = np.maximum(lows, highs)
    # Plus full-span and empty ranges.
    lo = np.concatenate([lo, [keys.min(), keys.max(), np.uint64(0)]])
    hi = np.concatenate([hi, [keys.max(), keys.max(), np.uint64(0)]])
    return lo.astype(np.uint64), hi.astype(np.uint64)


# ----------------------------------------------------------------------
# Partition plan properties
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [3, 33])
def test_plan_is_a_partition(family, seed):
    """Offsets tile [0, n); every shard is non-empty; maxes are real."""
    rng = np.random.default_rng(seed)
    keys = _adversarial_keys(family, rng)
    for num_shards in (1, 2, 3, 7, len(keys), len(keys) + 50):
        plan = plan_shards(keys, num_shards)
        assert plan.offsets[0] == 0
        assert plan.offsets[-1] == len(keys)
        sizes = plan.shard_sizes()
        assert (sizes > 0).all(), "empty shard"
        assert plan.num_shards == min(max(num_shards, 1), len(keys))
        for i in range(plan.num_shards):
            shard = plan.slice_keys(keys, i)
            assert shard.max() == plan.maxes[i]


def test_duplicate_run_straddling_boundary_routes_to_first_shard():
    """A query into a duplicate run split across shards must route to
    the first shard holding the duplicate (lower-bound semantics)."""
    keys = np.array([1, 5, 5, 5, 5, 9], dtype=np.uint64)
    plan = plan_shards(keys, 3)  # shards: [1,5] [5,5] [5,9]
    assert plan.shard_of(5) == 0
    assert plan.shard_of(1) == 0
    assert plan.shard_of(9) == 2
    assert plan.shard_of(0) == 0
    assert plan.shard_of(2**64 - 1) == 2  # clamped to last shard


# ----------------------------------------------------------------------
# Property tests: router == single-index oracle (LocalBackend)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [11, 1111])
@pytest.mark.parametrize("num_shards", [1, 2, 5])
def test_scattered_points_match_oracle(family, seed, num_shards):
    rng = np.random.default_rng(seed)
    keys = _adversarial_keys(family, rng)
    queries = _adversarial_queries(keys, rng)
    want = lower_bound_oracle(keys, queries)

    async def run():
        backend, router = _local_router(keys, num_shards)
        async with router:
            got_bulk = await router.lookup_batch(queries)
            responses = await asyncio.gather(*(
                router.lookup(int(q)) for q in queries[:64]
            ))
        return got_bulk, responses

    got_bulk, responses = asyncio.run(run())
    np.testing.assert_array_equal(
        got_bulk, want, err_msg=f"{family}/seed={seed}/N={num_shards}"
    )
    for q, resp, w in zip(queries[:64], responses, want[:64]):
        assert resp.status == STATUS_OK
        assert resp.position == w, (family, seed, num_shards, int(q))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [19, 1919])
@pytest.mark.parametrize("num_shards", [1, 3, 6])
def test_scattered_ranges_match_oracle(family, seed, num_shards):
    """Stitched (start, count) of spanning ranges == oracle windows."""
    rng = np.random.default_rng(seed)
    keys = _adversarial_keys(family, rng)
    lows, highs = _ranges_from(keys, rng)
    want_start = lower_bound_oracle(keys, lows)
    want_count = lower_bound_oracle(keys, highs) - want_start

    async def run():
        backend, router = _local_router(keys, num_shards)
        async with router:
            starts, counts = await router.range_query_batch(lows, highs)
            responses = await asyncio.gather(*(
                router.range_query(int(lo), int(hi))
                for lo, hi in zip(lows, highs)
            ))
        return starts, counts, responses

    starts, counts, responses = asyncio.run(run())
    tag = f"{family}/seed={seed}/N={num_shards}"
    np.testing.assert_array_equal(starts, want_start, err_msg=tag)
    np.testing.assert_array_equal(counts, want_count, err_msg=tag)
    for j, resp in enumerate(responses):
        assert resp.status == STATUS_OK
        assert resp.position == want_start[j], (tag, j)
        assert resp.count == want_count[j], (tag, j)


def test_ranges_pinned_to_shard_boundaries():
    """Ranges whose endpoints sit exactly on shard boundary keys."""
    keys = np.sort(np.random.default_rng(5).integers(
        0, 2**40, size=1000, dtype=np.uint64
    ))
    plan = plan_shards(keys, 4)

    async def run():
        backend, router = _local_router(keys, 4)
        cases = []
        for i in range(plan.num_shards):
            b_lo = int(keys[plan.offsets[i]])
            b_hi = int(plan.maxes[i])
            cases += [(b_lo, b_hi), (b_lo, b_lo),
                      (max(b_lo - 1, 0), b_hi + 1)]
        cases.append((int(keys[0]), int(keys[-1]) + 10))
        async with router:
            responses = await asyncio.gather(*(
                router.range_query(lo, hi) for lo, hi in cases
            ))
        return cases, responses

    cases, responses = asyncio.run(run())
    for (lo, hi), resp in zip(cases, responses):
        ws = int(np.searchsorted(keys, np.uint64(lo), side="left"))
        we = int(np.searchsorted(keys, np.uint64(hi), side="left"))
        assert resp.status == STATUS_OK
        assert (resp.position, resp.count) == (ws, we - ws), (lo, hi)


def test_local_backend_metrics_rollup_counts_union():
    """Cluster roll-up counters equal the sum over shards."""
    keys = np.arange(0, 3000, dtype=np.uint64) * np.uint64(7)

    async def run():
        backend, router = _local_router(keys, 3)
        async with router:
            await router.lookup_batch(keys[::5])
            await asyncio.gather(*(
                router.lookup(int(k)) for k in keys[:40]
            ))
            view = await router.cluster_metrics()
        return backend, view

    backend, view = asyncio.run(run())
    per_shard = sum(m.completed.value for m in backend.shard_metric_objs)
    assert view["cluster"]["requests"]["completed"] == per_shard
    assert view["num_shards"] == 3
    assert view["router"]["requests"]["completed"] == 40
    assert sum(view["shard_sizes"]) == len(keys)


def test_router_deadlines_answer_timeout_never_a_value():
    """A lookup and a range spanning every shard, both already past
    their deadline at dispatch, resolve ``timeout`` with no value; the
    untimed requests beside them stay oracle-exact."""
    keys = np.arange(0, 3000, dtype=np.uint64) * np.uint64(5)

    async def run():
        backend, router = _local_router(keys, 3)
        async with router:
            responses = await asyncio.gather(
                router.lookup(int(keys[10]), timeout_s=0.0),
                router.range_query(int(keys[0]), int(keys[-1]),
                                   timeout_s=0.0),
                router.lookup(int(keys[2500])),
                router.range_query(int(keys[5]), int(keys[2995])),
            )
        return router, responses

    router, (late_point, late_range, point, span) = asyncio.run(run())
    # Both ranges span all three shards.
    assert list(router.plan.route_points(keys[[0, 5, 2995, -1]])) \
        == [0, 0, 2, 2]
    for resp in (late_point, late_range):
        assert resp.status == STATUS_TIMEOUT
        assert (resp.position, resp.count) == (None, None)
    assert (point.status, point.position) == (STATUS_OK, 2500)
    assert (span.status, span.position, span.count) == (STATUS_OK, 5, 2990)
    assert router.metrics.timeouts.value == 2


# ----------------------------------------------------------------------
# Multi-process end-to-end
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster_keys():
    return data.generate("books", n=20_000)


def test_cluster_open_loop_every_answer_oracle_checked(cluster_keys):
    """2-process cluster under open-loop load: 0 wrong, all served."""

    async def run():
        async with Cluster(keys=cluster_keys, num_shards=2,
                           index_type="binary-search") as cluster:
            async with ShardRouter(cluster) as router:
                report = await run_open_loop(
                    router, cluster_keys, num_requests=600,
                    qps=None, range_fraction=0.2,
                )
                bulk = await run_batch_closed_loop(
                    router, cluster_keys, num_requests=4000,
                    chunk_size=512, range_fraction=0.25,
                )
        return report, bulk

    report, bulk = asyncio.run(run())
    assert report["wrong"] == 0
    assert report["statuses"] == {"ok": 600}
    assert bulk["wrong"] == 0
    assert bulk["served"] == 4000


def test_cluster_hot_swap_under_live_traffic(cluster_keys):
    """Swap one shard mid-stream: zero lost/incorrect responses and
    monotone counters across the swap."""

    async def run():
        async with Cluster(keys=cluster_keys, num_shards=2,
                           index_type="binary-search") as cluster:
            async with ShardRouter(cluster) as router:

                async def swap_midway():
                    while router.metrics.completed.value < 150:
                        await asyncio.sleep(0.001)
                    pre = (await router.cluster_metrics())["cluster"]
                    await router.swap_shard(1, "pgm-index")
                    return pre

                swapper = asyncio.create_task(swap_midway())
                report = await run_open_loop(
                    router, cluster_keys, num_requests=600,
                    qps=None, range_fraction=0.1,
                )
                pre = await asyncio.wait_for(swapper, timeout=30)
                post = (await router.cluster_metrics())["cluster"]
        return report, pre, post

    report, pre, post = asyncio.run(run())
    assert report["wrong"] == 0, "incorrect responses across hot-swap"
    assert report["statuses"] == {"ok": 600}, "lost responses"
    # Counters are monotone across the swap: the swapped worker keeps
    # its metrics; nothing resets.
    for name in ("submitted", "completed", "errors", "timeouts",
                 "rejected"):
        assert post["requests"][name] >= pre["requests"][name], name
    assert post["batches"] >= pre["batches"]
    assert post["swaps"] == pre["swaps"] + 1


def test_cluster_gathered_bulk_calls_share_one_frame_per_shard(
        cluster_keys):
    """Two lanes of gathered ``lookup_batch`` + ``range_query_batch``
    reach each worker as one frame: one ``serve_bulk`` dispatch per
    shard instead of one per part, with every answer oracle-exact."""
    keys = cluster_keys
    rng = np.random.default_rng(11)
    chunks = []
    for _ in range(2):
        points = rng.choice(keys, size=300)
        i = rng.integers(0, len(keys) - 64, size=40)
        lows, highs = keys[i], keys[i + rng.integers(0, 64, size=40)]
        chunks.append((points, lows, highs))

    async def run():
        async with Cluster(keys=keys, num_shards=2,
                           index_type="binary-search") as cluster:
            for points, lows, highs in chunks:
                for part in (points, lows, highs):
                    assert set(cluster.plan.route_points(part)) == {0, 1}
            async with ShardRouter(cluster) as router:
                before = await cluster.shard_metrics()
                got = await asyncio.wait_for(asyncio.gather(*(
                    call for points, lows, highs in chunks
                    for call in (router.lookup_batch(points),
                                 router.range_query_batch(lows, highs))
                )), 30)
                after = await cluster.shard_metrics()
        return got, before, after

    got, before, after = asyncio.run(run())
    for j, (points, lows, highs) in enumerate(chunks):
        np.testing.assert_array_equal(got[2 * j],
                                      lower_bound_oracle(keys, points))
        starts, counts = got[2 * j + 1]
        want = lower_bound_oracle(keys, lows)
        np.testing.assert_array_equal(starts, want)
        np.testing.assert_array_equal(
            counts, lower_bound_oracle(keys, highs) - want)
    for b, a in zip(before, after):
        assert (a["histograms"]["latency_s"]["count"]
                - b["histograms"]["latency_s"]["count"]) == 1


def test_cluster_request_burst_rides_one_bulk_frame_per_shard(
        cluster_keys):
    """A burst of 200 ``lookup`` calls is one router batch, and each
    worker serves its part of it as one ``serve_bulk`` dispatch (its
    latency histogram gains one observation), every answer
    oracle-exact."""
    keys = cluster_keys
    queries = keys[::100][:200]

    async def run():
        async with Cluster(keys=keys, num_shards=2,
                           index_type="binary-search") as cluster:
            assert set(cluster.plan.route_points(queries)) == {0, 1}
            async with ShardRouter(cluster) as router:
                before = await cluster.shard_metrics()
                got = await asyncio.wait_for(asyncio.gather(*(
                    router.lookup(int(k)) for k in queries
                )), 30)
                after = await cluster.shard_metrics()
        return got, before, after

    got, before, after = asyncio.run(run())
    assert [r.status for r in got] == [STATUS_OK] * len(queries)
    np.testing.assert_array_equal([r.position for r in got],
                                  lower_bound_oracle(keys, queries))
    assert {r.batch_size for r in got} == {len(queries)}
    for b, a in zip(before, after):
        assert (a["histograms"]["latency_s"]["count"]
                - b["histograms"]["latency_s"]["count"]) == 1


def test_cluster_cancelled_bulk_part_is_left_out_of_the_frame(
        cluster_keys):
    """A bulk part whose caller is cancelled before the flush is not
    sent; the other part queued in that pass still answers."""
    keys = cluster_keys
    empty = np.empty(0, dtype=np.uint64)

    async def run():
        async with Cluster(keys=keys, num_shards=1,
                           index_type="binary-search") as cluster:
            before = (await cluster.shard_metrics())[0]
            dropped = asyncio.create_task(
                cluster.execute_bulk(0, keys[:100], empty, empty))
            kept = asyncio.create_task(
                cluster.execute_bulk(0, keys[100:130], empty, empty))
            await asyncio.sleep(0)  # both parts queued, not yet flushed
            dropped.cancel()
            positions, _, _ = await asyncio.wait_for(kept, 30)
            after = (await cluster.shard_metrics())[0]
        return dropped, positions, before, after

    dropped, positions, before, after = asyncio.run(run())
    assert dropped.cancelled()
    np.testing.assert_array_equal(positions,
                                  lower_bound_oracle(keys, keys[100:130]))
    assert (after["counters"]["submitted"]
            - before["counters"]["submitted"]) == 30


def test_cluster_worker_swap_with_custom_factory(cluster_keys):
    """swap_shard accepts a picklable factory, not just a type name."""

    async def run():
        async with Cluster(keys=cluster_keys, num_shards=2,
                           index_type="binary-search") as cluster:
            async with ShardRouter(cluster) as router:
                await router.swap_shard(0, PGMIndex)
                resp = await router.lookup(int(cluster_keys[7]))
        return resp

    resp = asyncio.run(run())
    assert resp.status == STATUS_OK
    assert resp.position == int(np.searchsorted(
        cluster_keys, cluster_keys[7], side="left"
    ))


# ----------------------------------------------------------------------
# The pipe transport
# ----------------------------------------------------------------------


def test_pipe_frames_speak_the_connection_wire_format():
    """``_Pipe`` frames are ``multiprocessing.Connection`` frames both
    ways, including the 8-byte length form, however the bytes split."""
    from multiprocessing.connection import Connection

    from repro.serve.cluster import _frame, _Pipe

    msg = (3, True, (np.arange(5000, dtype=np.uint64), "x" * 100))
    a, b = socket.socketpair()
    with a, Connection(b.detach()) as conn:
        a.sendall(_frame(msg))
        assert repr(conn.recv()) == repr(msg)
        conn.send(msg)
        wire = a.recv(1 << 20)
        while len(wire) < 4 + struct.unpack_from("!i", wire)[0]:
            wire += a.recv(1 << 20)
    payload = wire[4:]
    long_form = struct.pack("!i", -1) + struct.pack("!Q", len(payload))

    async def parse() -> list:
        got = []
        pipe = _Pipe(got.append, lambda: None)
        stream = wire + long_form + payload
        for i in range(0, len(stream), 7):
            pipe.data_received(stream[i:i + 7])
        return got

    got = asyncio.run(parse())
    assert [repr(m) for m in got] == [repr(msg)] * 2


def test_cluster_pipes_run_on_the_event_loop(cluster_keys):
    """Cluster.start adds no thread to the parent, and a worker that
    has served bulk frames runs exactly one thread (Linux only)."""
    keys = cluster_keys
    points = keys[::7]

    async def run():
        before = threading.active_count()
        async with Cluster(keys=keys, num_shards=2,
                           index_type="binary-search") as cluster:
            started = threading.active_count()
            async with ShardRouter(cluster) as router:
                got = [await asyncio.wait_for(router.lookup_batch(points),
                                              30) for _ in range(3)]
                threads = None
                if os.path.isdir("/proc/self/task"):
                    threads = [len(os.listdir(f"/proc/{info['pid']}/task"))
                               for info in cluster.worker_info]
        return before, started, got, threads

    before, started, got, threads = asyncio.run(run())
    assert started == before
    for positions in got:
        np.testing.assert_array_equal(positions,
                                      lower_bound_oracle(keys, points))
    if threads is not None:
        assert threads == [1, 1]


def test_cluster_large_frames_cross_in_both_directions(cluster_keys):
    """A worker replies to one ~8 MB bulk frame while the router sends
    it the next: neither end blocks on a full socket, and every answer
    matches the oracle."""
    keys = cluster_keys
    rng = np.random.default_rng(17)
    # About 1M points (8 MB) per shard and frame; replies are as large.
    chunks = [rng.choice(keys, size=2_000_000) for _ in range(2)]

    async def run():
        async with Cluster(keys=keys, num_shards=2,
                           index_type="binary-search") as cluster:
            async with ShardRouter(cluster) as router:
                first = asyncio.ensure_future(router.lookup_batch(chunks[0]))
                # Let the first frames go out before the second call
                # queues its parts, so each call is its own frame.
                await asyncio.sleep(0.01)
                second = asyncio.ensure_future(
                    router.lookup_batch(chunks[1]))
                return await asyncio.wait_for(
                    asyncio.gather(first, second), 120)

    got = asyncio.run(run())
    for chunk, positions in zip(chunks, got):
        np.testing.assert_array_equal(positions,
                                      lower_bound_oracle(keys, chunk))


def test_cluster_spawned_workers_answer_a_mixed_chunk(cluster_keys):
    """Workers started with the spawn method answer a point/range
    chunk like forked ones, every answer oracle-exact."""
    keys = cluster_keys
    rng = np.random.default_rng(23)
    points = rng.choice(keys, size=3000)
    i = rng.integers(0, len(keys) - 64, size=300)
    lows, highs = keys[i], keys[i + rng.integers(0, 64, size=300)]

    async def run():
        async with Cluster(keys=keys, num_shards=2,
                           index_type="binary-search",
                           mp_method="spawn") as cluster:
            async with ShardRouter(cluster) as router:
                return await asyncio.wait_for(asyncio.gather(
                    router.lookup_batch(points),
                    router.range_query_batch(lows, highs),
                ), 60)

    positions, (starts, counts) = asyncio.run(run())
    np.testing.assert_array_equal(positions,
                                  lower_bound_oracle(keys, points))
    want = lower_bound_oracle(keys, lows)
    np.testing.assert_array_equal(starts, want)
    np.testing.assert_array_equal(counts,
                                  lower_bound_oracle(keys, highs) - want)


# ----------------------------------------------------------------------
# The committed scaling curve
# ----------------------------------------------------------------------


def test_committed_scaling_section():
    """BENCH_serve.json carries a 1->N scaling curve with N >= 4,
    every point oracle-validated, and an explicit core-aware gate."""
    path = REPO_ROOT / "BENCH_serve.json"
    assert path.exists(), "BENCH_serve.json missing"
    doc = json.loads(path.read_text())
    assert "scaling" in doc, "no scaling section in BENCH_serve.json"
    scaling = doc["scaling"]
    curve = scaling["curve"]
    shard_counts = [p["shards"] for p in curve]
    assert shard_counts[0] == 1
    assert max(shard_counts) >= 4
    assert shard_counts == sorted(shard_counts)
    for point in curve:
        assert point["wrong"] == 0, "scaling point with wrong answers"
        assert point["served"] == point["num_requests"]
        assert point["achieved_qps"] > 0
    baseline = curve[0]["achieved_qps"]
    for point in curve:
        assert point["speedup"] == pytest.approx(
            point["achieved_qps"] / baseline, rel=1e-2
        )
    gate = scaling["gate"]
    assert gate["at_shards"] == max(shard_counts)
    assert isinstance(scaling["usable_cores"], int)
    # The >= 2.5x bar binds wherever the hardware can express it; a
    # machine with fewer cores than shards must say so explicitly
    # rather than commit a meaningless pass/fail.
    if gate["applicable"]:
        assert scaling["usable_cores"] >= gate["at_shards"]
        assert gate["passed"] is True, (
            f"{gate['measured_speedup']}x at {gate['at_shards']} shards "
            f"is below the required {gate['required_speedup']}x"
        )
    else:
        assert scaling["usable_cores"] < gate["at_shards"]
        assert gate["passed"] is None
