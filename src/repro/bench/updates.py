"""The ``updates`` benchmark: read throughput under mixed writes.

The paper's protocol (and every committed benchmark before this one)
is read-only; this driver measures what the writable tier costs.  One
leg per write fraction -- ``0.0`` is the segmented read-only baseline,
then increasing write mixes -- each serving the same dataset through a
:class:`~repro.writable.WritableIndex` behind an
:class:`~repro.serve.server.IndexServer` with a background
:class:`~repro.writable.RebuildDaemon` swapping compacted bases in
while the stream runs.  Every read is validated against the workload
generator's incremental oracle, and the final live key set must match
it exactly, so the numbers are only reported for provably correct
answers.

Two gates bind in CI (``BENCH_updates.json``):

* **retention** -- read throughput under the *smoke* write mix (the
  lowest non-zero write fraction, 10% by default) must stay at least
  ``min_retention`` of the read-only leg (0.5x in CI: writes may
  cost, but reads must not collapse).  The heavier fractions document
  the rest of the curve -- at 50% writes on one core the background
  rebuilds alone consume a read-phase-sized slice of CPU, so the
  curve's ``min_retention`` is reported but gated separately (and
  leniently) via ``--min-retention-worst``;
* **staleness** -- the high-water staleness (age of the oldest
  unmerged write, sampled on every batch) must stay under
  ``max_staleness_s``, i.e. the rebuild loop provably keeps up.

The default rebuild trigger (``rebuild_min_delta`` = 4096 ~ 2% of
``n``) is the amortization point, not a tuning accident: a rebuild
costs O(n) regardless of how few delta entries it folds in, so firing
every ``k`` writes costs O(n/k) CPU per write -- ``k`` must be a fixed
fraction of ``n`` for bounded write amplification.  At the 10% smoke
mix the delta stays below the trigger (the leg measures the steady
shadowed-read path); the 50% leg crosses it repeatedly and exercises
rebuild + hot-swap under live traffic.

Each leg is run ``repeats`` times on fresh state and the
median-throughput repeat is reported: legs are only tens of
milliseconds of wall clock, where scheduler noise alone moves
throughput ~2x run to run.  Correctness is *not* sampled: every
repeat must return zero wrong answers and an exactly-matching final
live key set.
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

from ..baselines import INDEX_TYPES
from ..data import sosd
from ..serve import IndexServer
from ..serve.loadgen import run_mixed_closed_loop
from ..workload import make_mixed_workload
from ..writable import RebuildDaemon, WritableIndex

__all__ = [
    "DEFAULT_WRITE_FRACTIONS",
    "updates_report",
    "render_updates_report",
    "write_updates_report",
]

DEFAULT_WRITE_FRACTIONS = (0.0, 0.1, 0.5)


def _run_leg(
    keys: np.ndarray,
    *,
    index_type: str,
    write_fraction: float,
    num_ops: int,
    segment_size: int,
    delete_fraction: float,
    range_fraction: float,
    seed: int,
    rebuild_interval_s: float,
    rebuild_min_delta: int,
) -> "dict[str, Any]":
    workload = make_mixed_workload(
        keys,
        num_ops=num_ops,
        seed=seed,
        write_fraction=write_fraction,
        delete_fraction=delete_fraction,
        segment_size=segment_size,
        range_fraction=range_fraction,
    )
    base = INDEX_TYPES[index_type](keys)
    windex = WritableIndex(base)

    async def drive() -> "dict[str, Any]":
        # Sub-ms GIL slices: every leg (baseline included) serves with
        # short GIL waits behind a rebuild thread (a build without a
        # stepwise form, as on NumPy), so the retention ratio compares
        # index paths, not thread-scheduling noise.
        async with IndexServer(windex,
                               gil_switch_interval_s=0.0005) as server:
            daemon = RebuildDaemon(
                windex, server=server,
                interval_s=rebuild_interval_s,
                min_delta=rebuild_min_delta,
            )
            if write_fraction > 0.0:
                await daemon.start()
            try:
                run = await run_mixed_closed_loop(server, workload,
                                                  bulk=True)
            finally:
                await daemon.stop()
            # Drain any still-buffered writes so the final state check
            # compares fully merged structures, then record the gauge.
            if windex.delta_len:
                await daemon.rebuild_now(force=True)
            run["rebuilds"] = daemon.rebuilds
            run["swaps"] = int(server.metrics.swaps.value)
            run["staleness_max_s"] = round(
                float(server.metrics.staleness_s.max), 6
            )
        return run

    run = asyncio.run(drive())
    final_ok = bool(np.array_equal(np.asarray(windex.keys),
                                   workload.final_live_keys))
    return {
        "write_fraction": float(write_fraction),
        "reads": run["reads"],
        "writes": run["writes"],
        "wrong": run["wrong"],
        "read_qps": run["read_qps"],
        "read_wall_s": run["read_wall_s"],
        "write_wall_s": run["write_wall_s"],
        "rebuilds": run["rebuilds"],
        "swaps": run["swaps"],
        "staleness_max_s": run["staleness_max_s"],
        "final_state_ok": final_ok,
        "final_live_n": int(len(workload.final_live_keys)),
        "delta_len_end": int(windex.delta_len),
    }


def updates_report(
    *,
    n: int = 200_000,
    dataset: str = "books",
    seed: int = 42,
    index_type: str = "rmi",
    num_ops: int = 20_000,
    segment_size: int = 512,
    delete_fraction: float = 0.4,
    range_fraction: float = 0.1,
    write_fractions: "tuple[float, ...]" = DEFAULT_WRITE_FRACTIONS,
    rebuild_interval_s: float = 0.05,
    rebuild_min_delta: int = 4096,
    repeats: int = 3,
) -> "dict[str, Any]":
    """Run the mixed read/write legs; return the gateable report."""
    keys = np.ascontiguousarray(
        sosd.generate(dataset, n=n, seed=seed), dtype=np.uint64
    )
    fractions = sorted(set(float(f) for f in write_fractions))
    if not fractions or fractions[0] != 0.0:
        fractions.insert(0, 0.0)  # the retention gate needs the baseline
    repeats = max(1, int(repeats))
    t0 = time.perf_counter()
    legs = []
    for wf in fractions:
        trials = [_run_leg(
            keys,
            index_type=index_type,
            write_fraction=wf,
            num_ops=num_ops,
            segment_size=segment_size,
            delete_fraction=delete_fraction,
            range_fraction=range_fraction,
            seed=seed,
            rebuild_interval_s=rebuild_interval_s,
            rebuild_min_delta=rebuild_min_delta,
        ) for _ in range(repeats)]
        # Median-throughput repeat carries the timing numbers; the
        # correctness fields aggregate over every repeat (one bad
        # repeat must fail the gate, not hide behind the median).
        leg = sorted(trials, key=lambda t: t["read_qps"])[len(trials) // 2]
        leg["wrong"] = int(sum(t["wrong"] for t in trials))
        leg["final_state_ok"] = all(t["final_state_ok"] for t in trials)
        leg["staleness_max_s"] = max(t["staleness_max_s"] for t in trials)
        legs.append(leg)
    baseline_qps = legs[0]["read_qps"] or 1.0
    for leg in legs:
        leg["retention"] = round(leg["read_qps"] / baseline_qps, 4)
    mixed = [leg for leg in legs if leg["write_fraction"] > 0.0]
    return {
        "benchmark": "updates",
        "dataset": dataset,
        "n": int(n),
        "seed": int(seed),
        "index_type": index_type,
        "num_ops": int(num_ops),
        "segment_size": int(segment_size),
        "delete_fraction": float(delete_fraction),
        "range_fraction": float(range_fraction),
        "rebuild_interval_s": float(rebuild_interval_s),
        "rebuild_min_delta": int(rebuild_min_delta),
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_s": round(time.perf_counter() - t0, 3),
        "legs": legs,
        "total_wrong": int(sum(leg["wrong"] for leg in legs)),
        "all_final_states_ok": all(leg["final_state_ok"] for leg in legs),
        "min_retention": min((leg["retention"] for leg in mixed),
                             default=1.0),
        # The gated number: retention at the lowest non-zero write
        # fraction (the canonical 10% smoke mix).
        "smoke_retention": mixed[0]["retention"] if mixed else 1.0,
        "max_staleness_s": max((leg["staleness_max_s"] for leg in mixed),
                               default=0.0),
    }


def render_updates_report(report: "dict[str, Any]") -> str:
    lines = [
        f"updates benchmark -- {report['dataset']}, n={report['n']:,}, "
        f"{report['index_type']} base, {report['num_ops']:,} ops/leg "
        f"({report['wall_s']:.1f}s total)",
        f"{'write%':>7}  {'read qps':>12}  {'retention':>9}  "
        f"{'writes':>7}  {'rebuilds':>8}  {'stale max':>10}  "
        f"{'wrong':>5}  final",
    ]
    for leg in report["legs"]:
        lines.append(
            f"{leg['write_fraction'] * 100:6.1f}%  "
            f"{leg['read_qps']:12,.0f}  "
            f"{leg['retention']:8.2f}x  "
            f"{leg['writes']:7,}  "
            f"{leg['rebuilds']:8}  "
            f"{leg['staleness_max_s'] * 1e3:8.1f}ms  "
            f"{leg['wrong']:5}  "
            f"{'ok' if leg['final_state_ok'] else 'MISMATCH'}"
        )
    lines.append(
        f"smoke retention {report['smoke_retention']:.2f}x (gated), "
        f"curve min {report['min_retention']:.2f}x, high-water "
        f"staleness {report['max_staleness_s'] * 1e3:.1f}ms, "
        f"{report['total_wrong']} wrong answers"
    )
    return "\n".join(lines)


def write_updates_report(report: "dict[str, Any]",
                         path: "str | os.PathLike") -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
