"""The ``tune`` benchmark: closed-loop autotuning under a shifting load.

Serving starts from a deliberately mis-tuned config (a too-coarse RMI
layer2, whose wide error intervals tax every lookup) and the
:class:`~repro.autotune.controller.AutoTuner` must discover and deploy
something measurably better using only what it can observe: the
sampled live workload and the calibrated cost model.  No leg tells the
controller what the data or the traffic looks like.

Traffic runs through the server's **bulk lane** (``serve_bulk``,
chunked scatter/gather batches), not the per-request micro-batching
lane.  On a shared single-core box the per-request lane's p99 is
~25 microseconds of event-loop overhead per request plus scheduler
stalls -- it measures asyncio, not the index.  Bulk chunks are
service-time dominated (the paper's own batched-lookup protocol), so
the measured improvement is the index's improvement.  Every chunk is
validated against the ``np.searchsorted`` oracle, and each dispatch
records one latency observation, which is what the tuner's post-swap
watchdog windows are built from.

Four phases over one continuously running server:

* **start** -- uniform traffic, tuner *not* stepped: the mis-tuned
  baseline's window p99s (their median is the improvement gate's
  denominator);
* **tuning** -- the controller steps once per window until it has
  swapped and measured the swap (hysteresis means at least
  ``hysteresis_windows`` windows pass first);
* **converged** -- more uniform windows with the tuner still stepping;
  their median p99 is the gate's numerator, and the controller should
  now ``hold`` (the incumbent it installed keeps winning its own
  ranking);
* **skew-shift** -- traffic flips to Zipf; the sampler's reservoir
  turns over, the profile's coverage estimate collapses, and the
  journal records how the controller re-plans under the new profile.

Committed as ``BENCH_tune.json`` and gated in CI:

* the converged median window p99 beats the starting config's by at
  least ``min_improvement`` (the measured, end-to-end serving win --
  not a model number);
* **zero wrong answers**: every position in every chunk is validated
  against the oracle, across every swap and rollback;
* **zero dropped requests**: every query fired comes back (a bulk
  dispatch either returns its full result set or raises -- late is
  possible, lost is not);
* at least one swap happened, and **every** swap's journal record
  carries both the predicted improvement ratio and the measured
  pre/post-swap p99s -- ``predicted_vs_measured`` reports the per-swap
  ratio error and its maximum is the committed error bound.

Window p99s are medianed per phase: single-window tails on a shared CI
box are scheduler noise, the phase median is the signal.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import time
from pathlib import Path
from typing import Any

import numpy as np

from ..autotune import (
    AutoTuner,
    Planner,
    TunerConfig,
    TunerTarget,
    WorkloadSampler,
)
from ..baselines import RMIAsIndex
from ..data import sosd
from ..serve import IndexServer
from ..workload import make_workload

__all__ = ["tune_report", "render_tune_report", "write_tune_report",
           "check_tune_report"]


def _phase_p99(windows: "list[dict[str, Any]]") -> "float | None":
    vals = [w["p99_ms"] for w in windows if w.get("p99_ms") is not None]
    return float(np.median(vals)) if vals else None


async def _run(
    *,
    keys: np.ndarray,
    start_layer2: int,
    chunks_per_window: int,
    bulk_chunk: int,
    start_windows: int,
    tuning_windows: int,
    converged_windows: int,
    skew_windows: int,
    seed: int,
    planner: Planner,
    tuner_config: TunerConfig,
) -> "tuple[list[dict[str, Any]], AutoTuner, dict[str, Any]]":
    sampler = WorkloadSampler(capacity=4096, seed=seed)
    server = IndexServer(
        RMIAsIndex(keys, layer2_size=start_layer2),
        max_queue=8192,
        shed_policy="block",
        sampler=sampler,
        # Sub-ms GIL switching keeps the tuner's off-thread builds
        # from stretching bulk dispatch latencies on a single core.
        gil_switch_interval_s=0.0005,
    )
    tuner = AutoTuner(TunerTarget(server), planner, tuner_config)
    windows: "list[dict[str, Any]]" = []
    empty = np.empty(0, dtype=np.uint64)
    fired = 0

    async def drive(access: str, num_chunks: int,
                    wl_seed: int) -> "tuple[np.ndarray, int, int]":
        """Fire ``num_chunks`` oracle-checked bulk chunks; returns
        (per-chunk latencies in ms, served, wrong)."""
        wl = make_workload(keys, num_lookups=num_chunks * bulk_chunk,
                           seed=wl_seed, access=access)
        lats = np.empty(num_chunks, dtype=np.float64)
        wrong = 0
        for c in range(num_chunks):
            lo, hi = c * bulk_chunk, (c + 1) * bulk_chunk
            q = wl.queries[lo:hi]
            t0 = time.perf_counter()
            positions, _, _ = await server.serve_bulk(q, empty, empty)
            lats[c] = time.perf_counter() - t0
            wrong += int(np.count_nonzero(
                np.asarray(positions, dtype=np.int64)
                != wl.expected_positions[lo:hi]
            ))
        return lats * 1e3, len(wl.queries), wrong

    async def one_window(phase: str, idx: int, access: str,
                         step: bool) -> None:
        nonlocal fired
        lats_ms, served, wrong = await drive(
            access, chunks_per_window, seed + 17 * (len(windows) + 1))
        fired += served
        record = await tuner.step() if step else None
        windows.append({
            "phase": phase,
            "window": idx,
            "access": access,
            "chunks": int(len(lats_ms)),
            # A bulk dispatch returns its whole chunk or raises, so
            # served counts double as resolved and completed.
            "completed": served,
            "resolved": served,
            "wrong": wrong,
            "p99_ms": round(float(np.percentile(lats_ms, 99)), 4),
            "p50_ms": round(float(np.percentile(lats_ms, 50)), 4),
            "decision": record["kind"] if record else
            ("measured" if step else "off"),
            "serving": (tuner.current.describe()
                        if tuner.current else "unknown"),
        })

    async with server:
        # The start windows run before the tuner's first step; they are
        # labeled with the incumbent it learns here.
        await tuner.describe_target()
        # One unrecorded warmup window: first-touch page faults, numpy
        # temp allocation, thread-pool spin-up.
        await drive("uniform", max(chunks_per_window // 4, 8), seed)
        for i in range(start_windows):
            await one_window("start", i, "uniform", step=False)
        # Arm the controller's metrics baseline on the last quiet
        # window so its first real window diff is fully measurable.
        await tuner.step()
        for i in range(tuning_windows):
            await one_window("tuning", i, "uniform", step=True)
            if tuner.swaps_done and not tuner.pending_swap:
                break  # swapped and post-swap-measured: converged
        for i in range(converged_windows):
            await one_window("converged", i, "uniform", step=True)
        sampler.reset()  # the shift is abrupt; don't average regimes
        for i in range(skew_windows):
            await one_window("skew", i, "zipf", step=True)
        totals = {
            "fired": fired,
            "resolved": sum(w["resolved"] for w in windows),
            "completed": sum(w["completed"] for w in windows),
            "wrong": sum(w["wrong"] for w in windows),
            "server_swaps": int(server.metrics.swaps.value),
        }
    return windows, tuner, totals


def tune_report(
    *,
    dataset: str = "books",
    n: int = 200_000,
    start_layer2: int = 16,
    chunks_per_window: int = 128,
    bulk_chunk: int = 4096,
    start_windows: int = 4,
    tuning_windows: int = 6,
    converged_windows: int = 4,
    skew_windows: int = 3,
    seed: int = 42,
    min_improvement: float = 0.10,
    improvement_threshold: float = 0.05,
    hysteresis_windows: int = 2,
    rollback_threshold: float = 0.50,
    layer2_grid: "tuple[int, ...]" = (1024, 16384),
    families: "tuple[str, ...] | None" = None,
    calibrate: bool = True,
) -> "dict[str, Any]":
    """Run the full skew-shifting autotune benchmark; returns the
    committed report (gates evaluated, not yet enforced)."""
    keys = sosd.generate(dataset, n, seed=seed)
    planner = Planner(
        rmi_layer2_sizes=layer2_grid,
        families=families,
        calibrate=calibrate,
    )
    tuner_config = TunerConfig(
        improvement_threshold=improvement_threshold,
        hysteresis_windows=hysteresis_windows,
        rollback_threshold=rollback_threshold,
        min_window_requests=bulk_chunk,
        dry_run=False,
    )
    t0 = time.perf_counter()
    windows, tuner, totals = asyncio.run(_run(
        keys=keys,
        start_layer2=start_layer2,
        chunks_per_window=chunks_per_window,
        bulk_chunk=bulk_chunk,
        start_windows=start_windows,
        tuning_windows=tuning_windows,
        converged_windows=converged_windows,
        skew_windows=skew_windows,
        seed=seed,
        planner=planner,
        tuner_config=tuner_config,
    ))
    elapsed = time.perf_counter() - t0

    p99_start = _phase_p99([w for w in windows if w["phase"] == "start"])
    p99_converged = _phase_p99(
        [w for w in windows if w["phase"] == "converged"]
    )
    improvement = (1.0 - p99_converged / p99_start
                   if p99_start and p99_converged else None)
    journal = tuner.journal
    pvm = journal.predicted_vs_measured()
    swaps = journal.swaps
    gates = {
        "min_improvement": min_improvement,
        "measured_improvement": (round(improvement, 4)
                                 if improvement is not None else None),
        "improvement_ok": (improvement is not None
                           and improvement >= min_improvement),
        "wrong_answers": totals["wrong"],
        "zero_wrong": totals["wrong"] == 0,
        "fired": totals["fired"],
        "resolved": totals["resolved"],
        "completed": totals["completed"],
        "zero_dropped": (totals["resolved"] == totals["fired"]
                         and totals["completed"] == totals["fired"]),
        "swaps": len(swaps),
        "swapped": len(swaps) >= 1,
        "swaps_measured": pvm["swaps_measured"],
        "every_swap_measured": (len(swaps) > 0
                                and pvm["swaps_measured"] == len(swaps)),
    }
    gates["passed"] = all((
        gates["improvement_ok"], gates["zero_wrong"],
        gates["zero_dropped"], gates["swapped"],
        gates["every_swap_measured"],
    ))
    return {
        "benchmark": "autotune-skew-shift",
        "dataset": dataset,
        "n": int(n),
        "seed": int(seed),
        "start_config": f"rmi[l2={start_layer2}]",
        "converged_config": (tuner.current.key()
                             if tuner.current else None),
        "bulk_chunk": int(bulk_chunk),
        "chunks_per_window": int(chunks_per_window),
        "requests_per_window": int(chunks_per_window * bulk_chunk),
        "phases": {
            "start_p99_ms": p99_start,
            "converged_p99_ms": p99_converged,
        },
        "windows": windows,
        "decisions": journal.summary()["counts"],
        "predicted_vs_measured": pvm,
        "journal": journal.records,
        "gates": gates,
        "elapsed_s": round(elapsed, 2),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "backend": planner.backend,
        },
        "created": time.time(),
    }


def render_tune_report(report: "dict[str, Any]") -> str:
    lines = [
        f"autotune benchmark: {report['dataset']} n={report['n']:,} "
        f"backend={report['host']['backend']} "
        f"bulk_chunk={report['bulk_chunk']}",
        f"  start:     {report['start_config']}  "
        f"(phase median p99 {report['phases']['start_p99_ms']}ms)",
        f"  converged: {report['converged_config']}  "
        f"(phase median p99 {report['phases']['converged_p99_ms']}ms)",
        "",
        f"{'phase':>10} {'win':>3} {'access':>8} {'p99 ms':>9} "
        f"{'decision':>14}  serving",
    ]
    for w in report["windows"]:
        lines.append(
            f"{w['phase']:>10} {w['window']:>3} {w['access']:>8} "
            f"{w['p99_ms'] if w['p99_ms'] is not None else '-':>9} "
            f"{w['decision']:>14}  {w['serving']}"
        )
    pvm = report["predicted_vs_measured"]
    lines.append("")
    lines.append(f"decisions: {report['decisions']}")
    for e in pvm["entries"]:
        lines.append(
            f"swap -> {e['to']}: predicted p99 ratio "
            f"{e['predicted_ratio']}, measured {e['measured_ratio']} "
            f"(abs error {e['abs_error']}, direction "
            f"{'agrees' if e['direction_agrees'] else 'DISAGREES'})"
        )
    if pvm["entries"]:
        lines.append(f"prediction error bound (max abs ratio error): "
                     f"{pvm['max_abs_error']}")
    g = report["gates"]
    lines.append("")
    lines.append(
        f"gates: improvement {g['measured_improvement']} >= "
        f"{g['min_improvement']} [{'ok' if g['improvement_ok'] else 'FAIL'}]"
        f", wrong={g['wrong_answers']} "
        f"[{'ok' if g['zero_wrong'] else 'FAIL'}], dropped="
        f"{g['fired'] - g['completed']} "
        f"[{'ok' if g['zero_dropped'] else 'FAIL'}], swaps={g['swaps']} "
        f"measured={g['swaps_measured']} "
        f"[{'ok' if g['swapped'] and g['every_swap_measured'] else 'FAIL'}]"
    )
    lines.append("PASSED" if g["passed"] else "FAILED")
    return "\n".join(lines)


def write_tune_report(report: "dict[str, Any]",
                      path: "str | os.PathLike") -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def check_tune_report(path: "str | os.PathLike") -> "list[str]":
    """Structural validation of a committed ``BENCH_tune.json`` (the CI
    re-check: the file must carry passing gates and a coherent
    predicted-vs-measured section -- no re-run required)."""
    problems = []
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    gates = report.get("gates", {})
    if not gates.get("passed"):
        problems.append("committed gates did not pass")
    for gate in ("improvement_ok", "zero_wrong", "zero_dropped",
                 "swapped", "every_swap_measured"):
        if not gates.get(gate):
            problems.append(f"gate {gate!r} is not satisfied")
    pvm = report.get("predicted_vs_measured", {})
    entries = pvm.get("entries", [])
    if not entries:
        problems.append("predicted_vs_measured has no per-swap entries")
    for e in entries:
        for field in ("predicted_ratio", "measured_ratio", "abs_error"):
            v = e.get(field)
            if v is None or not np.isfinite(v):
                problems.append(f"swap entry {field} is not finite: {e}")
    if pvm.get("max_abs_error") is None \
            or not np.isfinite(pvm.get("max_abs_error", np.nan)):
        problems.append("max_abs_error missing or non-finite")
    swaps = [r for r in report.get("journal", [])
             if r.get("kind") == "swap"]
    if not swaps:
        problems.append("journal records no swap")
    for rec in swaps:
        if rec.get("predicted_ratio") is None:
            problems.append("a swap record lacks predicted_ratio")
        if rec.get("measured_pre_p99_ms") is None \
                or rec.get("measured_post_p99_ms") is None:
            problems.append("a swap record lacks pre/post measured p99")
    return problems
