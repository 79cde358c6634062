"""Open-loop load generation against an :class:`IndexServer`.

Replays a :func:`repro.workload.make_workload` key stream (uniform or
Zipf access, optional absent keys, optional range-query fraction)
against a running server at a target QPS with Poisson arrivals
(:func:`repro.workload.make_arrivals`).  The generator is *open-loop*:
every request's send time is fixed before the run starts, so an
overloaded server accumulates queueing delay in the measured tail
instead of silently slowing the offered load (the coordinated-omission
pitfall closed-loop benchmarks fall into).  ``qps=None`` offers the
whole stream at once -- the saturation mode the throughput benchmark
uses.

Every response is validated against the ``np.searchsorted`` oracle the
workload generator precomputed: a served position that disagrees counts
as ``wrong`` (the serving analogue of Section 4.4's checksum), and
timed-out or rejected requests are tallied separately -- they carry no
value, so they can be late, but never wrong.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

import numpy as np

from ..workload import make_arrivals, make_range_workload, make_workload
from .batcher import STATUS_OK
from .server import IndexServer

__all__ = [
    "run_open_loop",
    "run_batch_closed_loop",
    "run_mixed_closed_loop",
    "loadgen_report",
]


async def run_open_loop(
    server: IndexServer,
    keys: np.ndarray,
    *,
    num_requests: int = 1000,
    qps: "float | None" = None,
    seed: int = 42,
    access: str = "uniform",
    include_absent: float = 0.0,
    range_fraction: float = 0.0,
    timeout_s: "float | None" = None,
) -> "dict[str, Any]":
    """Fire one workload at ``server``; return a latency/status report.

    ``range_fraction`` of the requests are range-count queries (their
    oracle is precomputed too); the rest are point lookups.  Requests
    are interleaved deterministically from ``seed``, so two runs offer
    byte-identical streams.

    Latency runs from each request's scheduled send time
    (``t0 + offsets[i]``) to its response, so a request that falls due
    while the server blocks the loop -- index calls run on the loop
    thread -- counts that wait too.  At ``qps=None`` every request is
    due at ``t0``.  ``send_lag_ms`` reports how late the generator sent:
    the p99 and maximum of actual minus scheduled send time.
    """
    if not 0.0 <= range_fraction <= 1.0:
        raise ValueError("range_fraction must be within [0, 1]")
    num_ranges = int(num_requests * range_fraction)
    num_points = num_requests - num_ranges
    point_wl = make_workload(
        keys, num_lookups=max(num_points, 1), seed=seed,
        include_absent=include_absent, access=access,
    )
    range_wl = make_range_workload(
        keys, num_queries=max(num_ranges, 1), seed=seed + 1
    )
    offsets = make_arrivals(num_requests, qps, seed=seed + 2)
    # Deterministic interleave: ranges spread evenly over the stream.
    is_range = np.zeros(num_requests, dtype=bool)
    if num_ranges:
        is_range[np.linspace(0, num_requests - 1, num_ranges,
                             dtype=np.int64)] = True

    loop = asyncio.get_running_loop()
    t0 = loop.time()
    wall_start = time.monotonic()

    async def fire(i: int, slot: int, range_op: bool):
        due = t0 + offsets[i]
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = loop.time()
        if range_op:
            resp = await server.range_query(
                int(range_wl.lows[slot]), int(range_wl.highs[slot]),
                timeout_s=timeout_s,
            )
            want = (int(range_wl.expected_starts[slot]),
                    int(range_wl.expected_counts[slot]))
        else:
            resp = await server.lookup(
                int(point_wl.queries[slot]), timeout_s=timeout_s
            )
            want = (int(point_wl.expected_positions[slot]), None)
        return resp, want, loop.time() - due, sent - due

    tasks = []
    point_slot = range_slot = 0
    for i in range(num_requests):
        if is_range[i]:
            tasks.append(fire(i, range_slot, True))
            range_slot += 1
        else:
            tasks.append(fire(i, point_slot, False))
            point_slot += 1
    outcomes = await asyncio.gather(*tasks)
    wall_s = time.monotonic() - wall_start

    statuses: "dict[str, int]" = {}
    wrong = 0
    ok_latencies = []
    batch_sizes = []
    lags = np.array([lag for *_, lag in outcomes], dtype=np.float64)
    for resp, (want_pos, want_count), latency_s, _ in outcomes:
        statuses[resp.status] = statuses.get(resp.status, 0) + 1
        if resp.status == STATUS_OK:
            ok_latencies.append(latency_s)
            batch_sizes.append(resp.batch_size)
            if resp.position != want_pos:
                wrong += 1
            elif want_count is not None and resp.count != want_count:
                wrong += 1
    completed = statuses.get(STATUS_OK, 0)
    lat = np.asarray(ok_latencies, dtype=np.float64)
    report: "dict[str, Any]" = {
        "num_requests": int(num_requests),
        "offered_qps": None if qps is None else float(qps),
        "achieved_qps": round(completed / wall_s, 1) if wall_s > 0 else 0.0,
        "wall_s": round(wall_s, 4),
        "statuses": statuses,
        "completed": completed,
        "wrong": wrong,
        "mean_batch": round(float(np.mean(batch_sizes)), 2)
        if batch_sizes else 0.0,
        "coalesced_fraction": round(
            float(np.mean(np.asarray(batch_sizes) > 1)), 4
        ) if batch_sizes else 0.0,
    }
    if len(lat):
        report["latency_ms"] = {
            "mean": round(float(lat.mean()) * 1e3, 3),
            "p50": round(float(np.percentile(lat, 50)) * 1e3, 3),
            "p95": round(float(np.percentile(lat, 95)) * 1e3, 3),
            "p99": round(float(np.percentile(lat, 99)) * 1e3, 3),
            "max": round(float(lat.max()) * 1e3, 3),
        }
    if len(lags):
        report["send_lag_ms"] = {
            "p99": round(float(np.percentile(lags, 99)) * 1e3, 3),
            "max": round(float(lags.max()) * 1e3, 3),
        }
    return report


async def run_batch_closed_loop(
    target: Any,
    keys: np.ndarray,
    *,
    num_requests: int = 100_000,
    chunk_size: int = 2048,
    inflight: int = 4,
    seed: int = 42,
    access: str = "uniform",
    include_absent: float = 0.0,
    range_fraction: float = 0.0,
) -> "dict[str, Any]":
    """Drive the bulk lanes: chunked batches, bounded inflight, oracle.

    The scaling benchmark's driver.  ``target`` is anything exposing the
    bulk scatter/gather API (``lookup_batch(queries) -> positions`` and
    ``range_query_batch(lows, highs) -> (starts, counts)``) -- in
    practice a :class:`~repro.serve.router.ShardRouter`.  The workload
    is cut into ``chunk_size`` batches with at most ``inflight`` chunks
    outstanding (closed-loop on chunks, so throughput measures the
    serving tier's batch pipeline, not per-request asyncio overhead),
    and **every** returned position/count is validated against the
    ``np.searchsorted`` oracle the workload generator precomputed.
    """
    if not 0.0 <= range_fraction <= 1.0:
        raise ValueError("range_fraction must be within [0, 1]")
    num_ranges = int(num_requests * range_fraction)
    num_points = num_requests - num_ranges
    point_wl = make_workload(
        keys, num_lookups=max(num_points, 1), seed=seed,
        include_absent=include_absent, access=access,
    )
    range_wl = make_range_workload(
        keys, num_queries=max(num_ranges, 1), seed=seed + 1
    )

    sem = asyncio.Semaphore(max(int(inflight), 1))
    wrong = 0
    served = 0

    async def point_chunk(lo: int, hi: int) -> None:
        nonlocal wrong, served
        async with sem:
            got = await target.lookup_batch(point_wl.queries[lo:hi])
        wrong += int(np.count_nonzero(
            np.asarray(got, dtype=np.int64)
            != point_wl.expected_positions[lo:hi]
        ))
        served += hi - lo

    async def range_chunk(lo: int, hi: int) -> None:
        nonlocal wrong, served
        async with sem:
            starts, counts = await target.range_query_batch(
                range_wl.lows[lo:hi], range_wl.highs[lo:hi]
            )
        wrong += int(np.count_nonzero(
            np.asarray(starts, dtype=np.int64)
            != range_wl.expected_starts[lo:hi]
        ))
        wrong += int(np.count_nonzero(
            np.asarray(counts, dtype=np.int64)
            != range_wl.expected_counts[lo:hi]
        ))
        served += hi - lo

    chunks = []
    for lo in range(0, num_points, chunk_size):
        chunks.append(point_chunk(lo, min(lo + chunk_size, num_points)))
    for lo in range(0, num_ranges, chunk_size):
        chunks.append(range_chunk(lo, min(lo + chunk_size, num_ranges)))

    wall_start = time.monotonic()
    await asyncio.gather(*chunks)
    wall_s = time.monotonic() - wall_start
    return {
        "num_requests": int(num_requests),
        "num_points": int(num_points),
        "num_ranges": int(num_ranges),
        "chunk_size": int(chunk_size),
        "inflight": int(inflight),
        "served": int(served),
        "wrong": int(wrong),
        "wall_s": round(wall_s, 4),
        "achieved_qps": round(served / wall_s, 1) if wall_s > 0 else 0.0,
    }


async def run_mixed_closed_loop(
    target: Any,
    workload: Any,
    *,
    timeout_s: "float | None" = None,
    bulk: bool = False,
) -> "dict[str, Any]":
    """Replay a :class:`~repro.workload.MixedWorkload` against ``target``.

    Closed-loop *by segment*: each segment's writes are applied (and
    awaited) through ``target.apply_writes`` before its reads fire, so
    every read has an exact incremental oracle even while a background
    rebuild daemon swaps bases mid-stream.  ``bulk=True`` drives the
    batch lanes (``lookup_batch`` / ``range_query_batch`` -- an
    :class:`~repro.serve.router.ShardRouter` or a bare index);
    ``bulk=False`` drives an :class:`IndexServer`'s per-request futures
    through the coalescing batcher.

    Read throughput is timed over the read phases only (``read_qps``),
    so it is directly comparable with the read-only drivers: the
    retention gate in ``python -m repro.bench updates`` is
    ``read_qps(mixed) / read_qps(write_fraction=0)``.
    """
    statuses: "dict[str, int]" = {}
    wrong = 0
    reads = 0
    writes = 0
    read_wall_s = 0.0
    write_wall_s = 0.0

    for seg in workload.segments:
        if seg.num_writes:
            t0 = time.monotonic()
            writes += int(await target.apply_writes(
                seg.write_keys, seg.write_ops
            ))
            write_wall_s += time.monotonic() - t0
        if not seg.num_reads:
            continue
        t0 = time.monotonic()
        if bulk:
            serve_bulk = getattr(target, "serve_bulk", None)
            if callable(serve_bulk):
                # IndexServer's fused bulk lane: one call serves points
                # and ranges together in one index call.
                positions, starts, counts = await serve_bulk(
                    seg.queries, seg.range_lows, seg.range_highs
                )
                wrong += int(np.count_nonzero(
                    np.asarray(positions, dtype=np.int64) != seg.expected
                ))
                wrong += int(np.count_nonzero(
                    np.asarray(starts, dtype=np.int64)
                    != seg.expected_starts
                ))
                wrong += int(np.count_nonzero(
                    np.asarray(counts, dtype=np.int64)
                    != seg.expected_counts
                ))
            else:
                if len(seg.queries):
                    got = await target.lookup_batch(seg.queries)
                    wrong += int(np.count_nonzero(
                        np.asarray(got, dtype=np.int64) != seg.expected
                    ))
                if len(seg.range_lows):
                    starts, counts = await target.range_query_batch(
                        seg.range_lows, seg.range_highs
                    )
                    wrong += int(np.count_nonzero(
                        np.asarray(starts, dtype=np.int64)
                        != seg.expected_starts
                    ))
                    wrong += int(np.count_nonzero(
                        np.asarray(counts, dtype=np.int64)
                        != seg.expected_counts
                    ))
            read_wall_s += time.monotonic() - t0
            reads += seg.num_reads
            statuses[STATUS_OK] = statuses.get(STATUS_OK, 0) + seg.num_reads
            continue
        tasks = [
            target.lookup(int(q), timeout_s=timeout_s) for q in seg.queries
        ] + [
            target.range_query(int(lo), int(hi), timeout_s=timeout_s)
            for lo, hi in zip(seg.range_lows, seg.range_highs)
        ]
        responses = await asyncio.gather(*tasks)
        read_wall_s += time.monotonic() - t0
        reads += seg.num_reads
        num_points = len(seg.queries)
        for i, resp in enumerate(responses):
            statuses[resp.status] = statuses.get(resp.status, 0) + 1
            if resp.status != STATUS_OK:
                continue
            if i < num_points:
                if resp.position != int(seg.expected[i]):
                    wrong += 1
            else:
                j = i - num_points
                if (resp.position != int(seg.expected_starts[j])
                        or resp.count != int(seg.expected_counts[j])):
                    wrong += 1

    return {
        "segments": len(workload.segments),
        "write_fraction": float(workload.write_fraction),
        "reads": int(reads),
        "writes": int(writes),
        "statuses": statuses,
        "wrong": int(wrong),
        "read_wall_s": round(read_wall_s, 4),
        "write_wall_s": round(write_wall_s, 4),
        "read_qps": round(reads / read_wall_s, 1) if read_wall_s > 0
        else 0.0,
    }


def loadgen_report(report: "dict[str, Any]") -> str:
    """Human-readable one-paragraph summary of a loadgen run."""
    lines = [
        f"open-loop run: {report['num_requests']} requests, "
        f"offered {report['offered_qps'] or 'saturation'} qps, "
        f"achieved {report['achieved_qps']} qps in {report['wall_s']:.2f}s",
        f"  statuses: {report['statuses']}   wrong answers: "
        f"{report['wrong']}",
        f"  mean batch {report['mean_batch']}, coalesced "
        f"{report['coalesced_fraction'] * 100:.1f}%",
    ]
    if "latency_ms" in report:
        lm = report["latency_ms"]
        lines.append(
            f"  latency ms: mean {lm['mean']}  p50 {lm['p50']}  "
            f"p95 {lm['p95']}  p99 {lm['p99']}  max {lm['max']}"
        )
    if "send_lag_ms" in report:
        sl = report["send_lag_ms"]
        lines.append(f"  send lag ms: p99 {sl['p99']}  max {sl['max']}")
    return "\n".join(lines)
