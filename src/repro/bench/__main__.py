"""CLI: reproduce one or all figures of the paper.

Usage::

    python -m repro.bench list
    python -m repro.bench fig04 [--n 200000] [--seed 7] [--cache-dir DIR]
    python -m repro.bench all [--n 50000] [--jobs 8]
    python -m repro.bench figures --all --jobs 8 --cache-dir .artifact-cache
    python -m repro.bench figures --all --cache-dir .bench-cache \\
        --cold-warm --out BENCH_figures.json --min-speedup 5
    python -m repro.bench cache stats --cache-dir .artifact-cache
    python -m repro.bench cache gc --cache-dir .artifact-cache --max-age-days 30
    python -m repro.bench build --n 1000000 --layer2-size 16384 \\
        --out BENCH_build.json --min-speedup 20
    python -m repro.bench kernels --n 100000 --out BENCH_kernels.json \\
        --min-speedup 5 [--gate-backend cext]
    python -m repro.bench updates --n 200000 --out BENCH_updates.json \\
        --min-retention 0.5 --max-staleness-s 2.0
    python -m repro.bench tune --n 200000 --out BENCH_tune.json \\
        --min-improvement 0.1
    python -m repro.bench tune --check BENCH_tune.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .registry import EXPERIMENTS, run_experiment


def _figures_main(argv: "list[str]") -> int:
    """``figures`` subcommand: the parallel, cached suite runner."""
    from .suite import (
        FIGURE_SUITE,
        render_suite_report,
        run_suite,
        suite_report,
        write_suite_report,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench figures",
        description="Run the figure suite through the artifact cache",
    )
    parser.add_argument("--all", action="store_true",
                        help="run every figure (figs 2-14; the default)")
    parser.add_argument("--only", metavar="IDS", default=None,
                        help="comma-separated figure ids, e.g. fig04,fig12")
    parser.add_argument("--n", type=int, default=None,
                        help="dataset size (keys per dataset)")
    parser.add_argument("--seed", type=int, default=None,
                        help="dataset / workload seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (shared by workers)")
    parser.add_argument("--cold-warm", action="store_true",
                        help="empty the cache, run cold then warm, and "
                        "verify warm results are cached and bit-identical")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the cold/warm JSON report here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit 1 unless the warm suite is at least this "
                        "much faster than cold (implies --cold-warm)")
    args = parser.parse_args(argv)

    figure_ids = list(FIGURE_SUITE)
    if args.only:
        figure_ids = [f.strip() for f in args.only.split(",") if f.strip()]
    cold_warm = args.cold_warm or args.min_speedup is not None
    if cold_warm:
        if args.cache_dir is None:
            parser.error("--cold-warm requires --cache-dir")
        report = suite_report(figure_ids, n=args.n, seed=args.seed,
                              jobs=args.jobs, cache_dir=args.cache_dir)
        print(render_suite_report(report))
        if args.out:
            write_suite_report(report, args.out)
            print(f"[report written to {args.out}]")
        failed = []
        if not report["bit_identical"]:
            failed.append("warm results are not bit-identical to cold")
        if not report["all_warm_from_cache"]:
            failed.append("some warm figures were not served from the cache")
        if (args.min_speedup is not None
                and report["speedup"] < args.min_speedup):
            failed.append(f"speedup {report['speedup']:.1f}x is below the "
                          f"required {args.min_speedup:.1f}x")
        for reason in failed:
            print(f"FAIL: {reason}")
        if not failed and args.min_speedup is not None:
            print(f"OK: speedup {report['speedup']:.1f}x >= "
                  f"{args.min_speedup:.1f}x, all warm results cached and "
                  "bit-identical")
        return 1 if failed else 0

    run = run_suite(figure_ids, n=args.n, seed=args.seed, jobs=args.jobs,
                    cache_dir=args.cache_dir)
    for f in run["figures"]:
        if "error" in f:
            print(f"{f['figure']}  {f['seconds']:8.3f}s  FAILED")
            print(f["error"], file=sys.stderr)
            continue
        source = "cache" if f["from_cache"] else "computed"
        print(f"{f['figure']}  {f['seconds']:8.3f}s  {f['rows']:4d} rows  "
              f"[{source}]")
    print(f"total {run['wall_s']:.3f}s across {len(run['figures'])} figures "
          f"(jobs={args.jobs})")
    if run["failed"]:
        print(f"FAIL: {len(run['failed'])} figure(s) raised: "
              f"{', '.join(run['failed'])}")
        return 1
    return 0


def _kernels_main(argv: "list[str]") -> int:
    """``kernels`` subcommand: per-kernel backend microbenchmark."""
    from .kernels import (
        GATE_METRIC,
        INDEX_CHOICES,
        gate_speedups,
        kernels_report,
        render_kernels_report,
        resolve_gate_backend,
        write_kernels_report,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench kernels",
        description="Microbenchmark the kernel backends (routing, "
        "bounded search, fused lookup/serve) and gate the compiled "
        "speedup over the NumPy reference",
    )
    parser.add_argument("--n", type=int, default=100_000,
                        help="dataset size (default: the 100k smoke)")
    parser.add_argument("--dataset", default="books",
                        help="dataset name (default books)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--layer2-size", type=int, default=2**14,
                        help="second-layer size of the smoke RMI")
    parser.add_argument("--bound-type", default="labs",
                        help="error-bound strategy of the smoke RMI")
    parser.add_argument("--queries", type=int, default=None,
                        help="lookup batch size (default: n)")
    parser.add_argument("--runs", type=int, default=9,
                        help="best-of-N timing runs per kernel")
    parser.add_argument("--backends", "--backend", dest="backends",
                        default=None,
                        help="comma-separated backend names "
                        "(default: all known)")
    parser.add_argument("--index", default=None,
                        help="comma-separated index sections to run: 'rmi' "
                        f"and/or family baselines {list(INDEX_CHOICES[1:])} "
                        "(default: all; with rmi excluded, --min-speedup "
                        "binds on the minimum across selected families)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the JSON report here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit 1 unless the gate backend's fused-"
                        f"{GATE_METRIC} speedup over numpy reaches this")
    parser.add_argument("--gate-backend", default="best-compiled",
                        help="backend the --min-speedup gate binds on: a "
                        "compiled backend's name (CI pins cext) or "
                        "'best-compiled' (default: the fastest available "
                        "compiled one)")
    args = parser.parse_args(argv)

    backends = None
    if args.backends:
        backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    indexes = None
    if args.index:
        indexes = [i.strip() for i in args.index.split(",") if i.strip()]
    report = kernels_report(
        n=args.n,
        dataset=args.dataset,
        seed=args.seed,
        layer2_size=args.layer2_size,
        bound_type=args.bound_type,
        queries=args.queries,
        runs=args.runs,
        backends=backends,
        indexes=indexes,
    )
    gate_name = resolve_gate_backend(report, args.gate_backend)
    if args.min_speedup is not None:
        report["gate"] = {
            "backend": gate_name,
            "metric": GATE_METRIC,
            "min_speedup": args.min_speedup,
            "speedup": (gate_speedups(report).get(gate_name)
                        if gate_name else None),
        }
        report["gate"]["passed"] = bool(
            report["gate"]["speedup"] is not None
            and report["gate"]["speedup"] >= args.min_speedup
        )
    print(render_kernels_report(report))
    if args.out:
        write_kernels_report(report, args.out)
        print(f"[report written to {args.out}]")
    if args.min_speedup is not None:
        gate = report["gate"]
        if gate["backend"] is None:
            print(f"FAIL: gate backend {args.gate_backend!r} is not an "
                  "available compiled backend")
            return 1
        if not gate["passed"]:
            shown = (f"{gate['speedup']:.2f}x"
                     if gate["speedup"] is not None
                     else "unavailable (no numpy baseline ran)")
            print(f"FAIL: {gate['backend']} {GATE_METRIC} speedup "
                  f"{shown} is below the required "
                  f"{args.min_speedup:.1f}x")
            return 1
        print(f"OK: {gate['backend']} {GATE_METRIC} speedup "
              f"{gate['speedup']:.2f}x >= {args.min_speedup:.1f}x "
              "(bit-identical on all backends)")
    return 0


def _updates_main(argv: "list[str]") -> int:
    """``updates`` subcommand: mixed read/write serving benchmark."""
    from .updates import (
        DEFAULT_WRITE_FRACTIONS,
        render_updates_report,
        updates_report,
        write_updates_report,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench updates",
        description="Serve a mixed read/write stream through the "
        "writable tier (delta buffer + background rebuild + hot-swap) "
        "and gate read-throughput retention and staleness",
    )
    parser.add_argument("--n", type=int, default=200_000,
                        help="dataset size (default 200k)")
    parser.add_argument("--dataset", default="books",
                        help="dataset name (default books)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--index", dest="index_type", default="rmi",
                        help="base index family (default rmi)")
    parser.add_argument("--ops", type=int, default=20_000,
                        help="operations per leg (default 20k)")
    parser.add_argument("--segment-size", type=int, default=512,
                        help="ops per closed-loop segment (default 512)")
    parser.add_argument("--write-fractions", default=None,
                        help="comma-separated write fractions (default "
                        f"{','.join(str(f) for f in DEFAULT_WRITE_FRACTIONS)}"
                        "; 0.0 is always included as the baseline)")
    parser.add_argument("--delete-fraction", type=float, default=0.4,
                        help="deletes among writes (default 0.4)")
    parser.add_argument("--range-fraction", type=float, default=0.1,
                        help="range queries among reads (default 0.1)")
    parser.add_argument("--rebuild-interval-s", type=float, default=0.05,
                        help="background rebuild poll interval")
    parser.add_argument("--rebuild-min-delta", type=int, default=4096,
                        help="delta entries before a rebuild fires "
                        "(default 4096 ~ 2%% of n: a rebuild costs O(n), "
                        "so the trigger must scale with n to amortize)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved rounds, each running every leg "
                        "once on fresh state in an order that reverses "
                        "from round to round; each leg reports its "
                        "median-throughput repeat (default 3)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the JSON report here")
    parser.add_argument("--min-retention", type=float, default=None,
                        help="exit 1 unless the smoke mix (lowest "
                        "non-zero write fraction) retains at least this "
                        "fraction of read-only throughput")
    parser.add_argument("--min-retention-worst", type=float, default=None,
                        help="exit 1 unless every mixed leg (including "
                        "the heaviest write mix) retains at least this")
    parser.add_argument("--max-staleness-s", type=float, default=None,
                        help="exit 1 if high-water staleness exceeds this")
    args = parser.parse_args(argv)

    fractions = DEFAULT_WRITE_FRACTIONS
    if args.write_fractions:
        fractions = tuple(float(f) for f in
                          args.write_fractions.split(",") if f.strip())
    report = updates_report(
        n=args.n,
        dataset=args.dataset,
        seed=args.seed,
        index_type=args.index_type,
        num_ops=args.ops,
        segment_size=args.segment_size,
        delete_fraction=args.delete_fraction,
        range_fraction=args.range_fraction,
        write_fractions=fractions,
        rebuild_interval_s=args.rebuild_interval_s,
        rebuild_min_delta=args.rebuild_min_delta,
        repeats=args.repeats,
    )
    gated = (args.min_retention is not None
             or args.min_retention_worst is not None
             or args.max_staleness_s is not None)
    if gated:
        report["gate"] = {
            "min_retention": args.min_retention,
            "min_retention_worst": args.min_retention_worst,
            "max_staleness_s": args.max_staleness_s,
            "smoke_retention": report["smoke_retention"],
            "retention": report["min_retention"],
            "staleness_s": report["max_staleness_s"],
        }
    print(render_updates_report(report))
    if args.out:
        write_updates_report(report, args.out)
        print(f"[report written to {args.out}]")
    failed = []
    if report["total_wrong"]:
        failed.append(f"{report['total_wrong']} oracle-mismatched answers")
    if not report["all_final_states_ok"]:
        failed.append("final live key set diverged from the oracle")
    if (args.min_retention is not None
            and report["smoke_retention"] < args.min_retention):
        failed.append(
            f"smoke-mix read retention {report['smoke_retention']:.2f}x "
            f"is below the required {args.min_retention:.2f}x"
        )
    if (args.min_retention_worst is not None
            and report["min_retention"] < args.min_retention_worst):
        failed.append(
            f"worst-leg read retention {report['min_retention']:.2f}x "
            f"is below the required {args.min_retention_worst:.2f}x"
        )
    if (args.max_staleness_s is not None
            and report["max_staleness_s"] > args.max_staleness_s):
        failed.append(
            f"high-water staleness {report['max_staleness_s']:.3f}s "
            f"exceeds the {args.max_staleness_s:.3f}s bound"
        )
    for reason in failed:
        print(f"FAIL: {reason}")
    if not failed and gated:
        print(
            f"OK: smoke retention {report['smoke_retention']:.2f}x "
            f"(curve min {report['min_retention']:.2f}x), staleness "
            f"{report['max_staleness_s'] * 1e3:.1f}ms, all answers "
            "oracle-validated"
        )
    return 1 if failed else 0


def _cache_main(argv: "list[str]") -> int:
    """``cache`` subcommand: inspect and collect the artifact store
    plus the compiled-kernel build cache (which lives outside the
    store, keyed by source digest -- merged here at the CLI layer)."""
    from .. import cache as artifact_cache
    from ..kernels import cext_backend

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench cache",
        description="Artifact cache maintenance",
    )
    parser.add_argument("action", choices=["stats", "gc"])
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: $REPRO_CACHE_DIR)")
    parser.add_argument("--json", action="store_true",
                        help="emit compact single-line JSON (machine-"
                        "readable output for CI and the serve CLI)")
    parser.add_argument("--all", action="store_true",
                        help="[gc] drop every entry")
    parser.add_argument("--max-age-days", type=float, default=None,
                        help="[gc] additionally drop entries older than this")
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        cache = artifact_cache.activate(args.cache_dir)
    else:
        cache = artifact_cache.active_cache()
        if cache is None:
            parser.error("no cache directory: pass --cache-dir or set "
                         "REPRO_CACHE_DIR")

    if args.action == "stats":
        stats = cache.stats()
        stats["kernels"] = cext_backend.build_cache_stats()
        if args.json:
            print(json.dumps(stats, sort_keys=True, separators=(",", ":")))
        else:
            print(json.dumps(stats, indent=2))
        return 0
    outcome = cache.gc(max_age_days=args.max_age_days, drop_all=args.all)
    outcome["kernels"] = cext_backend.build_cache_gc(
        max_age_days=args.max_age_days, drop_all=args.all
    )
    if args.json:
        print(json.dumps(outcome, sort_keys=True, separators=(",", ":")))
    else:
        print(f"gc: removed {outcome['removed']}, kept {outcome['kept']}")
        k = outcome["kernels"]
        print(f"kernels gc: removed {k['removed']}, kept {k['kept']}")
    return 0


def _tune_main(argv: "list[str]") -> int:
    """``tune`` subcommand: closed-loop autotuning benchmark."""
    from .tune import (
        check_tune_report,
        render_tune_report,
        tune_report,
        write_tune_report,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench tune",
        description="Drive a skew-shifting workload against the "
        "closed-loop autotuner: the controller must converge to a "
        "measurably better config, with zero wrong answers and zero "
        "dropped requests across every swap",
    )
    parser.add_argument("--check", metavar="FILE", default=None,
                        help="only structurally validate a committed "
                        "report (no run)")
    parser.add_argument("--n", type=int, default=200_000)
    parser.add_argument("--dataset", default="books")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--start-layer2", type=int, default=16,
                        help="layer2 of the mis-tuned starting RMI "
                        "(default 16: ~n/16 keys per leaf)")
    parser.add_argument("--chunks-per-window", type=int, default=128,
                        help="bulk dispatches per control window")
    parser.add_argument("--bulk-chunk", type=int, default=4096,
                        help="queries per bulk dispatch")
    parser.add_argument("--tuning-windows", type=int, default=6,
                        help="max control windows to converge in")
    parser.add_argument("--skew-windows", type=int, default=3,
                        help="Zipf windows after the shift (default 3)")
    parser.add_argument("--min-improvement", type=float, default=0.10,
                        help="gate: measured converged p99 must beat the "
                        "start phase median by this fraction")
    parser.add_argument("--layer2-grid", default="1024,16384",
                        help="RMI layer2 sizes the planner considers")
    parser.add_argument("--no-calibrate", action="store_true",
                        help="skip kernel-overhead calibration")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (persists "
                        "calibrations)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.check is not None:
        problems = check_tune_report(args.check)
        for problem in problems:
            print(f"FAIL: {problem}")
        if not problems:
            print(f"OK: {args.check} is structurally sound and its "
                  "gates passed")
        return 1 if problems else 0
    if args.cache_dir is not None:
        from .. import cache as artifact_cache

        artifact_cache.activate(args.cache_dir)
    report = tune_report(
        dataset=args.dataset,
        n=args.n,
        seed=args.seed,
        start_layer2=args.start_layer2,
        chunks_per_window=args.chunks_per_window,
        bulk_chunk=args.bulk_chunk,
        tuning_windows=args.tuning_windows,
        skew_windows=args.skew_windows,
        min_improvement=args.min_improvement,
        layer2_grid=tuple(int(s) for s in args.layer2_grid.split(",")
                          if s.strip()),
        calibrate=not args.no_calibrate,
    )
    print(render_tune_report(report))
    if args.out:
        write_tune_report(report, args.out)
        print(f"[report written to {args.out}]")
    return 0 if report["gates"]["passed"] else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "figures":
        return _figures_main(argv[1:])
    if argv and argv[0] == "kernels":
        return _kernels_main(argv[1:])
    if argv and argv[0] == "updates":
        return _updates_main(argv[1:])
    if argv and argv[0] == "tune":
        return _tune_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce figures of 'A Critical Analysis of "
        "Recursive Model Indexes' (VLDB 2022)",
    )
    parser.add_argument(
        "figure",
        help="figure id (e.g. fig04), 'all', or 'list'",
    )
    parser.add_argument("--n", type=int, default=None,
                        help="dataset size (keys per dataset)")
    parser.add_argument("--seed", type=int, default=None,
                        help="dataset / workload seed")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="additionally write <figure>.csv files here")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="additionally write <figure>.json files here")
    parser.add_argument("--svg", metavar="DIR", default=None,
                        help="additionally render <figure>.svg plots here")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for build sweeps (drivers "
                        "that support it; default 1 = in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="serve datasets/indexes/results from this "
                        "artifact cache directory")
    parser.add_argument("--layer2-size", type=int, default=2**14,
                        help="[build] second-layer size")
    parser.add_argument("--dataset", default="books",
                        help="[build] dataset name")
    parser.add_argument("--runs", type=int, default=1,
                        help="[build] best-of-N timing runs")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="[build] write the JSON report here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="[build] exit 1 unless every config's grouped "
                        "build is at least this much faster than reference")
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        from .. import cache as artifact_cache

        artifact_cache.activate(args.cache_dir)

    if args.figure == "list":
        for exp in EXPERIMENTS.values():
            print(f"{exp.figure_id}  {exp.paper_reference:25s} {exp.summary}")
        return 0

    if args.figure == "claims":
        from .claims import check_claims, render_outcomes

        outcomes = check_claims(n=args.n or 50_000, seed=args.seed or 42)
        print(render_outcomes(outcomes))
        return 1 if any(o.status in ("FAIL", "ERROR") for o in outcomes) else 0

    if args.figure == "build":
        from .parallel import build_report, render_build_report, \
            write_build_report

        report = build_report(
            n=args.n or 1_000_000,
            layer2_size=args.layer2_size,
            dataset=args.dataset,
            seed=args.seed or 42,
            jobs=args.jobs,
            runs=args.runs,
        )
        print(render_build_report(report))
        if args.out:
            write_build_report(report, args.out)
            print(f"[report written to {args.out}]")
        if args.min_speedup is not None:
            if report["min_speedup"] < args.min_speedup:
                print(f"FAIL: min speedup {report['min_speedup']:.1f}x is "
                      f"below the required {args.min_speedup:.1f}x")
                return 1
            print(f"OK: min speedup {report['min_speedup']:.1f}x >= "
                  f"{args.min_speedup:.1f}x")
        return 0

    kwargs = {}
    if args.n is not None:
        kwargs["n"] = args.n
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.jobs and args.jobs > 1:
        kwargs["jobs"] = args.jobs

    targets = list(EXPERIMENTS) if args.figure == "all" else [args.figure]
    for figure_id in targets:
        t0 = time.perf_counter()
        result = run_experiment(figure_id, **kwargs)
        elapsed = time.perf_counter() - t0
        print(result.render())
        for directory, suffix, method in (
            (args.csv, "csv", result.to_csv),
            (args.json, "json", result.to_json),
        ):
            if directory:
                out_dir = Path(directory)
                out_dir.mkdir(parents=True, exist_ok=True)
                method(out_dir / f"{figure_id}.{suffix}")
        if args.svg:
            from .svgplot import plot_figure

            out_dir = Path(args.svg)
            out_dir.mkdir(parents=True, exist_ok=True)
            if plot_figure(result, out_dir / f"{figure_id}.svg") is None:
                print(f"(no plot spec for {figure_id}; table only)")
        print(f"[{figure_id} completed in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
