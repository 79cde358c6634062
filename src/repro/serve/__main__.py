"""CLI for the serving subsystem.

Usage::

    python -m repro.serve serve --dataset books --n 100000 --index rmi \\
        --requests 5000 --qps 2000 --cache-dir .artifact-cache \\
        --metrics-out serve_metrics.json --max-p99-ms 250 --max-errors 0
    python -m repro.serve bench --out BENCH_serve.json --min-speedup 3
    python -m repro.serve swap --dataset books --n 100000 \\
        --from-index rmi --to-index pgm-index --requests 4000 --qps 5000
    python -m repro.serve cluster --shards 2 --requests 1000 \\
        --swap-shard 1 --swap-to pgm-index --kill-shard 0 \\
        --metrics-out cluster_metrics.json
    python -m repro.serve scale --shards 1,2,4 --min-speedup 2.5 \\
        --merge-into BENCH_serve.json
    python -m repro.serve tune --dataset books --n 200000 \\
        --start-layer2 64 --requests 8000 --windows 8 --dry-run \\
        --journal-out tune_journal.json

``serve`` runs a live server against an open-loop workload and reports
tail latency; ``bench`` produces the committed batched-vs-unbatched
comparison; ``swap`` demonstrates the zero-loss hot-swap protocol under
concurrent traffic.  ``cluster`` stands up the range-sharded
multi-process tier behind the scatter/gather router, drives it
open-loop with oracle validation, and optionally hot-swaps one shard
and/or SIGKILLs one worker mid-run (the CI smoke); ``scale`` measures
the 1->N shard scaling curve and can merge it into the committed
``BENCH_serve.json``.  ``tune`` runs the closed-loop autotuner against
live open-loop traffic -- the controller profiles the workload, plans
with the calibrated cost model, and hot-swaps the winner (or, with
``--dry-run``, journals the ranked plan without acting).  All subcommands resolve datasets and built
indexes through the artifact cache when ``--cache-dir`` (or
``$REPRO_CACHE_DIR``) is set.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import sys
from pathlib import Path
from typing import Any

from ..baselines import INDEX_TYPES
from .loadgen import loadgen_report, run_open_loop
from .server import IndexServer

log = logging.getLogger("repro.serve")


def _load_index(name: str, dataset: str, n: int, seed: int) -> Any:
    """Build (or restore from the artifact cache) one index by name."""
    from .. import cache as artifact_cache

    if name not in INDEX_TYPES:
        raise SystemExit(
            f"unknown index {name!r}; known: {', '.join(INDEX_TYPES)}"
        )
    cls = INDEX_TYPES[name]
    return artifact_cache.index_for(
        dataset, n, seed, name, {}, lambda k: cls(k), cls=cls
    )


def _dataset(dataset: str, n: int, seed: int):
    from .. import cache as artifact_cache

    return artifact_cache.dataset(dataset, n, seed)


def _cache_stats() -> "dict | None":
    from .. import cache as artifact_cache

    cache = artifact_cache.active_cache()
    return cache.stats() if cache is not None else None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="books",
                        help="SOSD-like dataset name (default books)")
    parser.add_argument("--n", type=int, default=100_000,
                        help="dataset size (default 100000)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--requests", type=int, default=5000,
                        help="number of requests to fire")
    parser.add_argument("--qps", type=float, default=None,
                        help="offered load (default: saturation)")
    parser.add_argument("--max-batch", type=int, default=256,
                        help="micro-batcher width (default 256)")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="micro-batcher deadline (default 2ms)")
    parser.add_argument("--max-queue", type=int, default=1024,
                        help="admission queue bound (default 1024)")
    parser.add_argument("--shed-policy", choices=["reject", "block"],
                        default="block",
                        help="full-queue policy (default block)")
    parser.add_argument("--timeout-ms", type=float, default=None,
                        help="per-request deadline (default none)")
    parser.add_argument("--range-fraction", type=float, default=0.0,
                        help="fraction of range queries (default 0)")
    parser.add_argument("--access", choices=["uniform", "zipf"],
                        default="uniform")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory")


def _activate_cache(args: argparse.Namespace) -> None:
    if args.cache_dir is not None:
        from .. import cache as artifact_cache

        artifact_cache.activate(args.cache_dir)


async def _serve_session(args: argparse.Namespace, index: Any,
                         keys) -> "tuple[dict, dict]":
    server = IndexServer(
        index,
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_queue=args.max_queue,
        shed_policy=args.shed_policy,
        log_interval_s=args.log_interval,
    )
    async with server:
        report = await run_open_loop(
            server, keys,
            num_requests=args.requests,
            qps=args.qps,
            seed=args.seed,
            access=args.access,
            range_fraction=args.range_fraction,
            timeout_s=None if args.timeout_ms is None
            else args.timeout_ms / 1e3,
        )
    return report, server.metrics.snapshot()


def _gate(report: dict, args: argparse.Namespace) -> "list[str]":
    failed = []
    if args.max_errors is not None:
        bad = (report["wrong"]
               + report["statuses"].get("error", 0)
               + report["statuses"].get("rejected", 0))
        if bad > args.max_errors:
            failed.append(f"{bad} failed/wrong requests exceed the "
                          f"allowed {args.max_errors}")
    if args.max_p99_ms is not None and "latency_ms" in report:
        p99 = report["latency_ms"]["p99"]
        if p99 > args.max_p99_ms:
            failed.append(f"p99 {p99:.2f}ms exceeds the allowed "
                          f"{args.max_p99_ms:.2f}ms")
    return failed


def _serve_main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve serve",
        description="Serve one index under an open-loop workload",
    )
    _add_common(parser)
    parser.add_argument("--index", default="rmi",
                        help=f"index type ({', '.join(INDEX_TYPES)})")
    parser.add_argument("--log-interval", type=float, default=1.0,
                        help="seconds between metric log lines")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write loadgen + server metrics JSON here")
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        help="exit 1 when the completed-request p99 "
                        "exceeds this bound")
    parser.add_argument("--max-errors", type=int, default=None,
                        help="exit 1 when wrong/error/rejected requests "
                        "exceed this count")
    args = parser.parse_args(argv)
    _activate_cache(args)

    keys = _dataset(args.dataset, args.n, args.seed)
    index = _load_index(args.index, args.dataset, args.n, args.seed)
    log.info("serving %s over %s (n=%d, %d B index)",
             args.index, args.dataset, args.n, index.size_in_bytes())
    report, metrics = asyncio.run(_serve_session(args, index, keys))
    print(loadgen_report(report))
    if args.metrics_out:
        payload = {"loadgen": report, "server": metrics,
                   "index": args.index, "dataset": args.dataset,
                   "n": args.n, "cache": _cache_stats()}
        Path(args.metrics_out).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        print(f"[metrics written to {args.metrics_out}]")
    failed = _gate(report, args)
    for reason in failed:
        print(f"FAIL: {reason}")
    return 1 if failed else 0


async def _swap_session(args: argparse.Namespace, first: Any, second: Any,
                        keys) -> "tuple[dict, dict]":
    server = IndexServer(
        first,
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_queue=args.max_queue,
        shed_policy=args.shed_policy,
        log_interval_s=None,
    )

    async def swap_halfway():
        target = args.requests // 2
        while server.metrics.completed.value < target:
            await asyncio.sleep(0.001)
        server.swap_index(second)

    async with server:
        swapper = asyncio.create_task(swap_halfway())
        report = await run_open_loop(
            server, keys,
            num_requests=args.requests,
            qps=args.qps,
            seed=args.seed,
            access=args.access,
            range_fraction=args.range_fraction,
        )
        swapper.cancel()
        try:
            await swapper
        except asyncio.CancelledError:
            pass
    return report, server.metrics.snapshot()


def _swap_main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve swap",
        description="Hot-swap the served index under concurrent traffic",
    )
    _add_common(parser)
    parser.add_argument("--from-index", default="rmi")
    parser.add_argument("--to-index", default="pgm-index")
    args = parser.parse_args(argv)
    _activate_cache(args)

    keys = _dataset(args.dataset, args.n, args.seed)
    first = _load_index(args.from_index, args.dataset, args.n, args.seed)
    second = _load_index(args.to_index, args.dataset, args.n, args.seed)
    report, metrics = asyncio.run(_swap_session(args, first, second, keys))
    print(loadgen_report(report))
    print(f"swaps: {metrics['swaps']}")
    failed = []
    if metrics["swaps"] != 1:
        failed.append(f"expected exactly 1 swap, saw {metrics['swaps']}")
    if report["wrong"]:
        failed.append(f"{report['wrong']} wrong answers across the swap")
    if report["completed"] != args.requests:
        failed.append(
            f"dropped requests across the swap: only {report['completed']}/"
            f"{args.requests} completed ({report['statuses']})"
        )
    for reason in failed:
        print(f"FAIL: {reason}")
    if not failed:
        print(f"OK: swapped {args.from_index} -> {args.to_index} under "
              f"load, all {args.requests} requests answered correctly")
    return 1 if failed else 0


def _bench_main(argv: "list[str]") -> int:
    from .bench import (
        DEFAULT_INDEXES,
        render_serve_report,
        serve_report,
        write_serve_report,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve bench",
        description="Micro-batched vs batch-size-1 serving benchmark",
    )
    parser.add_argument("--indexes", default=",".join(DEFAULT_INDEXES),
                        help="comma-separated index types")
    parser.add_argument("--dataset", default="books")
    parser.add_argument("--n", type=int, default=200_000)
    parser.add_argument("--requests", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--max-batch", type=int, default=512)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--range-fraction", type=float, default=0.1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the JSON report here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit 1 unless every index's batched mode is "
                        "at least this much faster")
    args = parser.parse_args(argv)
    _activate_cache(args)

    report = serve_report(
        index_names=[s.strip() for s in args.indexes.split(",") if s.strip()],
        dataset=args.dataset,
        n=args.n,
        num_requests=args.requests,
        seed=args.seed,
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        range_fraction=args.range_fraction,
    )
    print(render_serve_report(report))
    if args.out:
        write_serve_report(report, args.out)
        print(f"[report written to {args.out}]")
    if args.min_speedup is not None:
        if report["min_speedup"] is None \
                or report["min_speedup"] < args.min_speedup:
            print(f"FAIL: min speedup {report['min_speedup']}x is below "
                  f"the required {args.min_speedup:.1f}x")
            return 1
        print(f"OK: min speedup {report['min_speedup']:.1f}x >= "
              f"{args.min_speedup:.1f}x")
    return 0


async def _cluster_session(args: argparse.Namespace,
                           keys) -> "tuple[dict, dict]":
    from .cluster import Cluster
    from .router import ShardRouter

    cluster = Cluster(
        num_shards=args.shards,
        index_type=args.index,
        keys=keys,
        dataset=args.dataset,
        n=args.n,
        seed=args.seed,
        cache_dir=args.cache_dir,
    )
    async with cluster:
        router = ShardRouter(
            cluster,
            max_batch_size=args.max_batch,
            max_wait_s=args.max_wait_ms / 1e3,
            max_queue=args.max_queue,
            shed_policy=args.shed_policy,
        )
        async with router:

            def resolved() -> int:
                m = router.metrics
                return (m.completed.value + m.timeouts.value
                        + m.rejected.value + m.errors.value)

            async def inject_at(fraction: float, action) -> None:
                target = int(args.requests * fraction)
                while resolved() < target:
                    await asyncio.sleep(0.001)
                action()

            injections = []
            if args.swap_shard is not None:
                # Hot-swap once 40% of the stream has resolved.
                async def swap_at():
                    target = int(args.requests * 0.4)
                    while resolved() < target:
                        await asyncio.sleep(0.001)
                    await router.swap_shard(args.swap_shard, args.swap_to)

                injections.append(asyncio.create_task(swap_at()))
            if args.kill_shard is not None:
                injections.append(asyncio.create_task(inject_at(
                    0.6, lambda: cluster.kill_shard(args.kill_shard)
                )))
            report = await run_open_loop(
                router, keys,
                num_requests=args.requests,
                qps=args.qps,
                seed=args.seed,
                access=args.access,
                range_fraction=args.range_fraction,
                timeout_s=None if args.timeout_ms is None
                else args.timeout_ms / 1e3,
            )
            # Both injection tasks terminate on their own once the
            # stream resolves; awaiting (not cancelling) them keeps the
            # swap RPC's accounting intact.
            if injections:
                await asyncio.wait_for(asyncio.gather(*injections),
                                       timeout=60)

            # A saturation run can resolve entirely before a SIGKILL's
            # EOF is even observed, so the fault gate probes the shards
            # deterministically after the fact: the dead shard must
            # answer errors (never hang), the survivors must still
            # serve correct answers.
            probe: "dict[str, int]" = {}
            if args.kill_shard is not None:
                deadline = asyncio.get_running_loop().time() + 10
                while cluster.alive(args.kill_shard) \
                        and asyncio.get_running_loop().time() < deadline:
                    await asyncio.sleep(0.01)
                probe = {"dead_errors": 0, "dead_other": 0,
                         "live_ok": 0, "live_other": 0}
                plan = cluster.plan
                lo = int(plan.offsets[args.kill_shard])
                hi = int(plan.offsets[args.kill_shard + 1])
                dead_keys = keys[lo:hi:max((hi - lo) // 20, 1)][:20]
                live_shard = next(s for s in range(args.shards)
                                  if s != args.kill_shard
                                  and cluster.alive(s))
                l_lo = int(plan.offsets[live_shard])
                l_hi = int(plan.offsets[live_shard + 1])
                live_keys = keys[l_lo:l_hi:max((l_hi - l_lo) // 20,
                                               1)][:20]
                for key in dead_keys:
                    resp = await asyncio.wait_for(
                        router.lookup(int(key)), timeout=5
                    )
                    probe["dead_errors" if resp.status == "error"
                          else "dead_other"] += 1
                for key in live_keys:
                    resp = await asyncio.wait_for(
                        router.lookup(int(key)), timeout=5
                    )
                    probe["live_ok" if resp.status == "ok"
                          else "live_other"] += 1
            metrics = await router.cluster_metrics()
    return report, metrics, probe


def _cluster_gates(args: argparse.Namespace, report: dict,
                   metrics: dict, probe: dict) -> "list[str]":
    """Error accounting for one ``cluster`` run: every request resolves
    to a final status, wrong answers never pass, errors only pass (and
    a dead shard must produce them on probe) when a kill was injected,
    and an injected swap happens exactly once."""
    failed = []
    statuses = report["statuses"]
    total = sum(statuses.values())
    if total != args.requests:
        failed.append(f"only {total}/{args.requests} requests resolved "
                      f"({statuses})")
    if report["wrong"]:
        failed.append(f"{report['wrong']} wrong answers")
    errors = statuses.get("error", 0)
    alive = [s["alive"] for s in metrics["shards"]]
    if args.kill_shard is None:
        if errors:
            failed.append(f"{errors} error responses without fault "
                          "injection")
    else:
        if alive[args.kill_shard]:
            failed.append(f"shard {args.kill_shard} still alive after "
                          "kill")
        if probe.get("dead_other"):
            failed.append(
                f"{probe['dead_other']} probes of the killed shard did "
                "not come back as errors"
            )
        if probe.get("live_other"):
            failed.append(
                f"{probe['live_other']} probes of surviving shards "
                "failed: the rest of the cluster must keep serving"
            )
    if args.swap_shard is not None \
            and metrics["router"]["swaps"] != 1:
        failed.append(f"expected exactly 1 swap, saw "
                      f"{metrics['router']['swaps']}")
    return failed


def _cluster_main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve cluster",
        description="Open-loop load against the range-sharded "
        "multi-process cluster, with optional fault injection",
    )
    _add_common(parser)
    parser.add_argument("--index", default="rmi",
                        help=f"index type ({', '.join(INDEX_TYPES)})")
    parser.add_argument("--shards", type=int, default=2,
                        help="number of shard worker processes")
    parser.add_argument("--swap-shard", type=int, default=None,
                        help="hot-swap this shard's index mid-run")
    parser.add_argument("--swap-to", default="pgm-index",
                        help="index type the swapped shard rebuilds to")
    parser.add_argument("--kill-shard", type=int, default=None,
                        help="SIGKILL this shard's worker mid-run "
                        "(fault injection)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write loadgen + rolled-up cluster metrics "
                        "JSON here")
    args = parser.parse_args(argv)
    _activate_cache(args)

    keys = _dataset(args.dataset, args.n, args.seed)
    log.info("cluster: %d shards of %s over %s (n=%d)",
             args.shards, args.index, args.dataset, args.n)
    report, metrics, probe = asyncio.run(_cluster_session(args, keys))
    print(loadgen_report(report))
    alive = [s["alive"] for s in metrics["shards"]]
    print(f"shards alive: {sum(alive)}/{len(alive)}   "
          f"router swaps: {metrics['router']['swaps']}   cluster "
          f"completed: {metrics['cluster']['requests']['completed']}")
    if probe:
        print(f"post-kill probes: {probe}")
    if args.metrics_out:
        payload = {"loadgen": report, "metrics": metrics,
                   "probe": probe or None,
                   "index": args.index, "dataset": args.dataset,
                   "n": args.n, "shards": args.shards,
                   "swap_shard": args.swap_shard,
                   "kill_shard": args.kill_shard,
                   "cache": _cache_stats()}
        Path(args.metrics_out).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        print(f"[metrics written to {args.metrics_out}]")

    failed = _cluster_gates(args, report, metrics, probe)
    for reason in failed:
        print(f"FAIL: {reason}")
    if not failed:
        print(f"OK: {args.requests} requests over {args.shards} shards, "
              "error accounting clean")
    return 1 if failed else 0


def _scale_main(argv: "list[str]") -> int:
    from .bench import (
        merge_scaling_into,
        render_scaling_report,
        scaling_report,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve scale",
        description="1->N shard scaling curve (bulk scatter/gather lane)",
    )
    parser.add_argument("--shards", default="1,2,4",
                        help="comma-separated shard counts (default 1,2,4)")
    parser.add_argument("--index", default="rmi")
    parser.add_argument("--dataset", default="books")
    parser.add_argument("--n", type=int, default=400_000)
    parser.add_argument("--requests", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--chunk-size", type=int, default=4096)
    parser.add_argument("--inflight", type=int, default=8)
    parser.add_argument("--range-fraction", type=float, default=0.1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the standalone JSON report here")
    parser.add_argument("--merge-into", metavar="FILE", default=None,
                        help="merge the report under the 'scaling' key "
                        "of this BENCH_serve.json")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="gate: required speedup at the largest "
                        "shard count (default 2.5)")
    parser.add_argument("--require-cores", action="store_true",
                        help="exit 1 when the machine has fewer usable "
                        "cores than shards (gate would not bind)")
    args = parser.parse_args(argv)
    if args.cache_dir is not None:
        from .. import cache as artifact_cache

        artifact_cache.activate(args.cache_dir)

    report = scaling_report(
        shard_counts=[int(s) for s in args.shards.split(",") if s.strip()],
        index_name=args.index,
        dataset=args.dataset,
        n=args.n,
        num_requests=args.requests,
        seed=args.seed,
        chunk_size=args.chunk_size,
        inflight=args.inflight,
        range_fraction=args.range_fraction,
        required_speedup=args.min_speedup,
    )
    print(render_scaling_report(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"[report written to {args.out}]")
    if args.merge_into:
        merge_scaling_into(report, args.merge_into)
        print(f"[scaling section merged into {args.merge_into}]")
    gate = report["gate"]
    if not gate["applicable"]:
        if args.require_cores:
            print(f"FAIL: {report['usable_cores']} usable core(s) < "
                  f"{gate['at_shards']} shards; the scaling gate cannot "
                  "bind on this machine")
            return 1
        return 0
    if not gate["passed"]:
        print(f"FAIL: {gate['measured_speedup']:.2f}x at "
              f"{gate['at_shards']} shards is below the required "
              f"{gate['required_speedup']:.1f}x")
        return 1
    return 0


async def _tune_session(args: argparse.Namespace, index: Any, keys):
    from ..autotune import (
        AutoTuner,
        Planner,
        TunerConfig,
        TunerTarget,
        WorkloadSampler,
    )

    sampler = WorkloadSampler(capacity=args.sample_capacity, seed=args.seed)
    server = IndexServer(
        index,
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_queue=args.max_queue,
        shed_policy=args.shed_policy,
        sampler=sampler,
        log_interval_s=None,
    )
    planner = Planner(
        calibrate=not args.no_calibrate,
        rmi_layer2_sizes=tuple(
            int(s) for s in args.layer2_grid.split(",") if s.strip()
        ),
    )
    tuner = AutoTuner(
        TunerTarget(server),
        planner,
        TunerConfig(
            improvement_threshold=args.improvement_threshold,
            hysteresis_windows=args.hysteresis_windows,
            rollback_threshold=args.rollback_threshold,
            min_window_requests=args.min_window_requests,
            dry_run=args.dry_run,
        ),
    )
    windows = []
    async with server:
        per_window = max(args.requests // args.windows, 1)
        for w in range(args.windows):
            report = await run_open_loop(
                server, keys,
                num_requests=per_window,
                qps=args.qps,
                seed=args.seed + w,
                access=args.access,
                range_fraction=args.range_fraction,
                timeout_s=None if args.timeout_ms is None
                else args.timeout_ms / 1e3,
            )
            record = await tuner.step()
            decision = record["kind"] if record else "measured"
            p99 = report.get("latency_ms", {}).get("p99")
            print(f"[window {w}] completed={report['completed']} "
                  f"p99={p99}ms decision={decision} "
                  f"serving={tuner.current.describe() if tuner.current else '?'}")
            windows.append({"window": w, "loadgen": report,
                            "decision": decision})
    return windows, tuner


def _tune_main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve tune",
        description="Closed-loop autotuning of a live server: profile "
        "the workload, score candidates with the cost model, hot-swap "
        "the winner",
    )
    _add_common(parser)
    parser.add_argument("--index", default="rmi",
                        help=f"starting index ({', '.join(INDEX_TYPES)})")
    parser.add_argument("--start-layer2", type=int, default=None,
                        help="layer2 size of the starting RMI (lets the "
                        "demo start from a deliberately mis-tuned config)")
    parser.add_argument("--windows", type=int, default=8,
                        help="control windows to run (requests split "
                        "evenly across them)")
    parser.add_argument("--layer2-grid", default="1024,16384",
                        help="comma-separated RMI layer2 sizes the "
                        "planner considers")
    parser.add_argument("--improvement-threshold", type=float,
                        default=0.10,
                        help="predicted p99 improvement required to act")
    parser.add_argument("--hysteresis-windows", type=int, default=2,
                        help="consecutive windows the winner must hold")
    parser.add_argument("--rollback-threshold", type=float, default=0.25,
                        help="measured p99 regression triggering rollback")
    parser.add_argument("--min-window-requests", type=int, default=256)
    parser.add_argument("--sample-capacity", type=int, default=4096,
                        help="workload reservoir size")
    parser.add_argument("--no-calibrate", action="store_true",
                        help="skip kernel-overhead calibration probes")
    parser.add_argument("--dry-run", action="store_true",
                        help="plan and journal only; never build or swap")
    parser.add_argument("--journal-out", metavar="FILE", default=None,
                        help="write the decision journal JSON here")
    args = parser.parse_args(argv)
    _activate_cache(args)

    keys = _dataset(args.dataset, args.n, args.seed)
    if args.start_layer2 is not None:
        if args.index != "rmi":
            raise SystemExit("--start-layer2 only applies to --index rmi")
        from ..baselines import RMIAsIndex

        index = RMIAsIndex(keys, layer2_size=args.start_layer2)
    else:
        index = _load_index(args.index, args.dataset, args.n, args.seed)
    log.info("tuning from %s over %s (n=%d)%s", args.index, args.dataset,
             args.n, " [dry run]" if args.dry_run else "")
    windows, tuner = asyncio.run(_tune_session(args, index, keys))

    summary = tuner.journal.summary()
    print(f"decisions: {summary['counts']}")
    pvm = summary["predicted_vs_measured"]
    if pvm["swaps_measured"]:
        # Informational: window p99s over a few hundred live requests
        # are noise-level, so the measured direction flips from run to
        # run; the gated comparison is ``python -m repro.bench tune``.
        print(f"predicted-vs-measured (informational, not a check): "
              f"{pvm['swaps_measured']} swap(s), "
              f"max abs ratio error {pvm['max_abs_error']:.3f}, "
              f"directions agree: {pvm['directions_agree']}")
    if args.journal_out:
        tuner.journal.dump(args.journal_out)
        print(f"[journal written to {args.journal_out}]")

    failed = []
    wrong = sum(w["loadgen"]["wrong"] for w in windows)
    if wrong:
        failed.append(f"{wrong} wrong answers during tuning")
    resolved = sum(sum(w["loadgen"]["statuses"].values()) for w in windows)
    if resolved != args.requests // args.windows * args.windows:
        failed.append(f"only {resolved} requests resolved")
    plan = tuner.last_plan
    if plan is None or not plan.ranked:
        failed.append("controller never produced a non-empty ranked plan")
    elif not plan.finite():
        failed.append("ranked plan contains non-finite predicted "
                      "latencies")
    else:
        print(f"final plan: {len(plan.ranked)} candidates, winner "
              f"{plan.winner.config.describe()} "
              f"(predicted p99 {plan.winner.predicted_p99_ns:.0f}ns)")
    if args.dry_run and tuner.swaps_done:
        failed.append("dry run must never swap")
    for reason in failed:
        print(f"FAIL: {reason}")
    if not failed:
        print(f"OK: {len(windows)} control windows, "
              f"{tuner.swaps_done} swap(s), zero wrong answers")
    return 1 if failed else 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(message)s",
        datefmt="%H:%M:%S",
    )
    commands = {"serve": _serve_main, "bench": _bench_main,
                "swap": _swap_main, "cluster": _cluster_main,
                "scale": _scale_main, "tune": _tune_main}
    if not argv or argv[0] in ("-h", "--help") or argv[0] not in commands:
        print(__doc__)
        return 0 if argv and argv[0] in ("-h", "--help") else 2
    return commands[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
