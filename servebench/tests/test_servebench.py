"""Tests of the serving benchmark itself.

Run from the repository root::

    python -m pytest servebench/tests -q
"""

from __future__ import annotations

import asyncio
import bisect
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT
from servebench import inputs, report, workloads
from servebench.tracer import (
    ACTIVE,
    FOLD,
    LOOP_BUSY,
    SELECT,
    PASSIVE,
    REMOTE,
    SYNC,
    WAIT,
    Steps,
    Tracer,
    attribute,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(report.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert ("setup_s", "s", "lower") == report.END_TO_END[0][:3]


def test_cli_workload_names_match():
    from servebench import run

    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    cfg = workloads.make_config("tiny", 1)
    a = workloads.make_inputs(workload, cfg, 5)
    b = workloads.make_inputs(workload, cfg, 5)
    assert np.array_equal(a.keys, b.keys)
    for ca, cb in zip(a.pool, b.pool):
        for field in ("points", "lows", "highs", "exp_pos", "exp_start",
                      "exp_count"):
            assert np.array_equal(getattr(ca, field), getattr(cb, field))
    assert a.requests == b.requests
    if workload == "mixed_writes":
        sa, sb = a.stream, b.stream
        assert sa.digests == sb.digests
        assert sa.pool_index == sb.pool_index
        assert all(np.array_equal(x, y) for x, y in zip(sa.wkeys, sb.wkeys))
        assert all(np.array_equal(x, y) for x, y in zip(sa.wops, sb.wops))
        assert np.array_equal(sa.final_live, sb.final_live)
    c = workloads.make_inputs(workload, cfg, 6)
    assert not np.array_equal(a.keys, c.keys)


def test_read_pool_answers_and_shape():
    keys = inputs.make_keys(3, 5000)
    pool = inputs.make_read_pool(keys, 3, chunks=3, chunk_reads=1000)
    num_points, num_absent, num_ranges = inputs.chunk_shape(1000)
    for chunk in pool:
        assert chunk.reads == 1000
        assert len(chunk.lows) == num_ranges
        present = np.isin(chunk.points, keys)
        assert int((~present).sum()) == num_absent
        assert np.array_equal(chunk.exp_pos,
                              np.searchsorted(keys, chunk.points, "left"))
        ends = np.searchsorted(keys, chunk.highs, "left")
        assert np.array_equal(chunk.exp_start + chunk.exp_count, ends)
        assert np.all(chunk.highs >= chunk.lows)


class _BisectOracle:
    """The slow reference: a sorted Python list, one write at a time."""

    def __init__(self, keys):
        self.live = [int(k) for k in keys]

    def write(self, key: int, op: int) -> None:
        lo = bisect.bisect_left(self.live, key)
        hi = bisect.bisect_right(self.live, key, lo=lo)
        self.live[lo:hi] = [key] if op == inputs.OP_INSERT else []

    def lower_bound(self, key: int) -> int:
        return bisect.bisect_left(self.live, key)


def test_mixed_stream_matches_bisect_reference():
    keys = inputs.make_keys(7, 3000)
    pool = inputs.make_read_pool(keys, 7, chunks=3, chunk_reads=200)
    ref = _BisectOracle(keys)
    protected = set(inputs.pool_present_keys(keys, pool).tolist())
    oracle = None
    for seg, oracle in inputs.iter_mixed_segments(keys, pool, 7, 40,
                                                  writes_per_segment=64):
        # Deletes hit live, unprotected keys.
        for key, op in zip(seg.wkeys.tolist(), seg.wops.tolist()):
            if op == inputs.OP_DELETE:
                assert key not in protected
            ref.write(key, op)
        chunk = pool[seg.pool_index]
        assert seg.exp_pos.tolist() == [ref.lower_bound(int(q))
                                        for q in chunk.points]
        starts = [ref.lower_bound(int(q)) for q in chunk.lows]
        ends = [ref.lower_bound(int(q)) for q in chunk.highs]
        assert seg.exp_start.tolist() == starts
        assert seg.exp_count.tolist() == [e - s for s, e in zip(starts,
                                                                 ends)]
        assert len(oracle) == len(ref.live)
    assert oracle.live_keys().tolist() == ref.live


def test_last_op_per_key_wins_within_a_burst():
    base = np.array([10, 20, 30], dtype=np.uint64)
    oracle = inputs.LiveOracle(base)
    oracle.apply(np.array([20, 25, 20, 25, 25], dtype=np.uint64),
                 np.array([0, 1, 1, 1, 0], dtype=np.int8))
    assert oracle.live_keys().tolist() == [10, 20, 30]
    oracle.apply(np.array([10, 40], dtype=np.uint64),
                 np.array([0, 1], dtype=np.int8))
    assert oracle.live_keys().tolist() == [20, 30, 40]
    assert oracle.lower_bound(np.array([5, 20, 35, 50],
                                       dtype=np.uint64)).tolist() \
        == [0, 0, 2, 3]


def test_digest_mismatch_is_recounted_exactly():
    keys = inputs.make_keys(9, 2000)
    pool = inputs.make_read_pool(keys, 9, chunks=2, chunk_reads=128)
    stream = inputs.make_mixed_stream(keys, pool, 9, 6,
                                      writes_per_segment=32)
    segs = [seg for seg, _ in inputs.iter_mixed_segments(keys, pool, 9, 6,
                                                         32)]
    seg = segs[4]
    pos, starts, counts = seg.exp_pos.copy(), seg.exp_start.copy(), \
        seg.exp_count.copy()
    assert inputs.answer_digest(stream.weights, pos, starts,
                                counts) == stream.digests[4]
    pos[3] += 1
    counts[0] -= 1
    assert inputs.answer_digest(stream.weights, pos, starts,
                                counts) != stream.digests[4]
    assert inputs.recount_wrong(keys, pool, 9, 32,
                                {4: (pos, starts, counts)}) == 2


def _span(name, start, end, parent=None, kind=SYNC, thread=1):
    return [name, start, end, parent, kind, thread, None, 0, None]


def test_attribute_nested_and_concurrent_flows():
    spans = [
        _span("bench.run", 0.0, 10.0, kind=ACTIVE),                 # 0
        _span("server.serve_bulk", 1.0, 5.0, 0, ACTIVE),            # 1
        _span("index.serve_batch", 2.0, 4.0, 1, SYNC, thread=2),    # 2
        _span("kernels.rmi_serve", 2.5, 3.5, 2, SYNC, thread=2),    # 3
        _span("batcher.collect", 0.0, 10.0, None, PASSIVE),         # 4
        _span("writable.rebuild_now", 6.0, 8.0, None, ACTIVE),      # 5
        _span("index.init", 6.0, 8.0, 5, SYNC, thread=3),           # 6
    ]
    self_s, folded = attribute(spans, 0.0, 10.0)
    assert folded == {}
    # The root runs alone except while its own child or the rebuild run.
    assert self_s[0] == pytest.approx(1 + 1 + 1 + 2)
    assert self_s[1] == pytest.approx(2.0)
    assert self_s[2] == pytest.approx(1.0)
    assert self_s[3] == pytest.approx(1.0)
    assert self_s[4] == 0.0  # a parked collect takes no time
    assert self_s[6] == pytest.approx(1.0)  # shares 6..8 with the root
    assert self_s.sum() == pytest.approx(10.0)


def test_attribute_remote_wait_and_folds():
    spans = [
        _span("bench.run", 0.0, 4.0, kind=WAIT),                    # 0
        _span("cluster.execute_bulk", 0.0, 2.0, 0, REMOTE),         # 1
        _span("cluster.execute_bulk", 1.0, 3.0, 0, REMOTE),         # 2
        _span("server.dispatch", 3.0, 4.0, None, ACTIVE),           # 3
    ]
    spans[3][FOLD] = {"metrics.record_response": (10, 0.25)}
    self_s, folded = attribute(spans, 0.0, 4.0)
    assert self_s[0] == 0.0
    assert self_s[1] == pytest.approx(1.5)
    assert self_s[2] == pytest.approx(1.5)
    assert folded == {"metrics.record_response": pytest.approx(0.25)}
    assert self_s[3] == pytest.approx(0.75)


def test_idle_time_is_unexplained_unless_folded():
    spans = [
        _span("bench.run", 0.0, 4.0, kind=WAIT),                    # 0
        _span("batcher.collect", 0.0, 3.0, None, PASSIVE),          # 1
        _span("server.dispatch", 3.0, 4.0, None, ACTIVE),           # 2
    ]
    spans[1][FOLD] = {"batcher.collect": (5, 0.5),
                      "server.submit": (10, 1.0)}
    self_s, folded = attribute(spans, 0.0, 4.0)
    # Nothing could run during collect's 3 s: of that idle time only
    # the 1.5 s measured in steps while it waited is explained.
    assert self_s[1] == 0.0
    assert self_s[2] == pytest.approx(1.0)
    assert folded == {"batcher.collect": pytest.approx(0.5),
                      "server.submit": pytest.approx(1.0)}
    assert self_s.sum() + sum(folded.values()) == pytest.approx(2.5)
    # With the selector timed, the loop's time outside it and outside
    # every step is its own; the time blocked in it stays unexplained.
    spans[1][FOLD][SELECT] = (3, 1.0)
    self_s, folded = attribute(spans, 0.0, 4.0)
    assert folded[LOOP_BUSY] == pytest.approx(0.5)
    assert SELECT not in folded
    assert self_s.sum() + sum(folded.values()) == pytest.approx(3.0)


def test_steps_fold_each_step_and_pass_results_errors_cancels():
    tracer = Tracer()
    sid = tracer.open("batcher.collect", PASSIVE, None)

    async def work(x):
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return x + 1

    async def fails():
        await asyncio.sleep(0)
        raise KeyError("boom")

    async def main():
        assert await Steps(work(1), tracer, "server.submit", sid) == 2
        with pytest.raises(KeyError):
            await Steps(fails(), tracer, "server.submit", sid)
        closed = []

        async def parked():
            try:
                await asyncio.sleep(10)
            finally:
                closed.append(True)

        async def outer():
            return await Steps(parked(), tracer, "server.submit", sid)

        task = asyncio.create_task(outer())
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert closed == [True]

    asyncio.run(main())
    count, seconds = tracer.spans[sid][FOLD]["server.submit"]
    assert count == 3 + 2 + 2
    assert seconds > 0


def _run_cli(args, cwd):
    return subprocess.run([sys.executable, "servebench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke(workload, trace):
    proc = _run_cli(["--workload", workload, "--seed", "3", "--seconds",
                     "1", "--trace", str(trace), "--size", "tiny"], ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(lines[-2])["stamp"]
    assert stamp["kernel_backend"] == "cext"
    assert len(stamp["affinity"]) == 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    catalog = report.PER_LAYER if trace else report.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in catalog]
    for name, unit, *_ in catalog:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert np.isfinite(metric["value"])
    if trace:
        assert 0.9 <= result["metrics"]["trace.coverage"]["value"] <= 1.1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "servebench", tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(["--workload", "bulk_lane", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
