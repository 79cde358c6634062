"""Serving benchmark entry point.

Run from the root of a checkout::

    python3 servebench/run.py --workload bulk_lane --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it stamps the host and configuration.  Exit codes:
0 all answers correct, 1 a wrong answer, 2 not run from a checkout,
3 refused (the ``cext`` kernel backend did not serve, or
``mixed_writes`` saw too few rebuild cycles).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("point_lane", "bulk_lane", "cluster_bulk", "mixed_writes")


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long smoke at 20k keys")
    return p.parse_args(argv)


def _refuse(message: str) -> int:
    print(f"servebench: refusing to report: {message}", file=sys.stderr)
    return 3


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "serve" / "server.py").is_file():
        print("servebench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("servebench: --seconds must be positive", file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(root / "src"), str(here.parent)]
    from servebench import host

    # Before NumPy: every thread and worker process inherits the pin.
    cpu, before = host.pin_cpu()
    malloc_fixed = host.fix_malloc_thresholds()
    # The C kernels are compiled once per machine, inside the checkout.
    os.environ["REPRO_KERNELS_CACHE"] = str(root / ".bench_build"
                                            / "kernels")

    from repro.core.builder import RMIConfig
    from repro.kernels import set_default_backend
    from servebench import report, workloads
    from servebench.inputs import DATASET
    from servebench.tracer import Tracer

    try:
        set_default_backend("cext")
    except (RuntimeError, ValueError) as exc:
        return _refuse(f"the cext kernel backend is unavailable ({exc})")
    cfg = workloads.make_config(args.size, args.seconds)
    inputs = workloads.make_inputs(args.workload, cfg, args.seed)
    outcomes = [workloads.run(args.workload, cfg, inputs, args.seed,
                              probes=host.probes(inputs.keys))]
    if args.trace:
        tracer = Tracer()
        report.install_probes(tracer)
        try:
            outcomes.append(workloads.run(args.workload, cfg, inputs,
                                          args.seed, tracer))
        finally:
            tracer.uninstall()
        metrics = report.per_layer(tracer, outcomes[1], outcomes[0])
    else:
        metrics = report.end_to_end(outcomes[0])
    last = outcomes[-1]
    backend = last.facts["backend"]
    if backend != "cext":
        return _refuse(f"kernel backend {backend!r} served, not cext")
    if args.workload == "mixed_writes":
        rebuilds = min(o.facts["rebuilds"] for o in outcomes)
        if rebuilds < cfg.min_rebuilds:
            return _refuse(f"{rebuilds} rebuild cycles, fewer than "
                           f"{cfg.min_rebuilds}")
    stamp = host.stamp(cpu, before)
    stamp.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        dataset=DATASET, kernel_backend=backend,
        rmi=RMIConfig().with_layer2_size(cfg.leaves).describe(),
        server=last.facts["server"], config=cfg.describe(),
        latency_samples=[len(o.latencies) for o in outcomes],
        setup_samples=[len(o.setup_s) for o in outcomes],
        rebuilds=[o.facts.get("rebuilds") for o in outcomes],
        setup_speed=outcomes[0].setup_speed,
        slice_speeds=[round(x, 4) for *_, x in outcomes[0].slices],
        malloc_thresholds_fixed=malloc_fixed,
        measured=report.end_to_end(outcomes[0], scaled=False),
    )
    print(json.dumps({"stamp": stamp}, default=str))
    correct = all(o.wrong == 0 for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
