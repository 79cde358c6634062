"""Process-pool execution of build sweeps, and the build benchmark.

RMI builds are pure CPU-bound functions of ``(keys, config)``, so a
hyperparameter sweep (Section 4.2 trains thousands of configurations)
parallelizes trivially across processes.  :func:`pool_map_keys` ships
the key array to each worker once (via the pool initializer) instead of
once per task, which matters when one 8-byte-per-key array backs
hundreds of configurations.

Results always come back in the order of the input items, regardless of
``jobs`` — sweeps are reproducible modulo wall-clock noise.

:func:`build_report` is the grouped-vs-reference build benchmark behind
``python -m repro.bench build`` and the committed ``BENCH_build.json``:
it times every configuration once with the grouped closed-form fit and
once with the per-segment reference path (``grouped_fit=False``), both
under the NumPy kernel backend, and reports the speedups.  A third
build per configuration runs under the ``cext`` backend, whose build
kernels cover the two-layer grouped LR build.  Each build pins its
backend with :func:`~repro.kernels.use_backend` inside the task, so a
pool worker builds on the backend its sweep names.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from ..core.builder import RMIConfig
from ..cost.counters import BuildCounters
from ..data import sosd
from ..kernels import backend_available, get_backend, use_backend

__all__ = [
    "default_jobs",
    "pool_map",
    "pool_map_keys",
    "run_build_sweep",
    "build_report",
    "write_build_report",
    "render_build_report",
]

T = TypeVar("T")
R = TypeVar("R")

#: Key array shared with pool workers (set by the pool initializer).
_WORKER_KEYS: "np.ndarray | None" = None


def default_jobs() -> int:
    """Number of worker processes to use by default (the CPU count)."""
    return max(os.cpu_count() or 1, 1)


def _init_worker(keys: np.ndarray) -> None:
    global _WORKER_KEYS
    _WORKER_KEYS = keys


def _call_with_keys(payload: "tuple[Callable, T]") -> R:
    fn, item = payload
    return fn(_WORKER_KEYS, item)


def pool_map(
    fn: "Callable[[T], R]",
    items: Iterable[T],
    jobs: int = 1,
    initializer: "Callable[..., None] | None" = None,
    initargs: tuple = (),
) -> "list[R]":
    """``[fn(x) for x in items]``, optionally across worker processes.

    ``jobs <= 1`` runs in-process (no pickling, exact tracebacks).
    ``fn`` must be picklable (a module-level function) when ``jobs > 1``.
    Output order always matches input order.

    ``initializer(*initargs)`` runs once per worker before any item
    (e.g. activating the artifact cache in each process); in-process
    runs call it once directly, so the two paths see the same setup.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in items]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)),
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        return list(pool.map(fn, items))


def pool_map_keys(
    fn: "Callable[[np.ndarray, T], R]",
    keys: np.ndarray,
    items: Iterable[T],
    jobs: int = 1,
) -> "list[R]":
    """``[fn(keys, x) for x in items]`` with ``keys`` shared per worker.

    The key array crosses the process boundary once per worker (pool
    initializer), not once per item.  ``jobs <= 1`` runs in-process.
    Output order always matches input order.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(keys, item) for item in items]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)),
        initializer=_init_worker,
        initargs=(keys,),
    ) as pool:
        return list(pool.map(_call_with_keys, [(fn, item) for item in items]))


def _timed_build(keys: np.ndarray,
                 task: "tuple[str | None, RMIConfig]") -> dict:
    """Build one configuration on one backend (``None``: the process
    default) and report timings + work counters."""
    kernels, config = task
    # Resolve (load) the backend outside the timed build.
    with use_backend(get_backend(kernels)) as backend:
        t0 = time.perf_counter()
        rmi = config.build(keys)
        wall = time.perf_counter() - t0
    st = rmi.build_stats
    counters = BuildCounters.from_rmi(rmi)
    return {
        "config": config.describe(),
        "kernels": backend.name,
        "model_types": list(config.model_types),
        "layer2_size": int(config.layer_sizes[0]),
        "bound_type": config.bound_type,
        "grouped_fit": bool(config.grouped_fit),
        "fit_path": counters.fit_path,
        "build_s": wall,
        "train_root_s": st.train_root_seconds,
        "segment_s": st.segment_seconds,
        "train_leaves_s": st.train_leaves_seconds,
        "bounds_s": st.bounds_seconds,
        "index_bytes": int(rmi.size_in_bytes()),
        "models_trained": counters.models_trained,
        "keys_touched": counters.keys_touched,
    }


def run_build_sweep(
    keys: np.ndarray,
    configs: Sequence[RMIConfig],
    jobs: int = 1,
    runs: int = 1,
    kernels: "str | None" = None,
) -> "list[dict]":
    """Time a build per configuration; best-of-``runs`` wall clock.

    Returns one dict per config, in config order.  With ``runs > 1``
    each configuration is rebuilt that many times and the fastest run's
    record is kept (standard best-of-N timing hygiene).  Every build
    runs on the ``kernels`` backend (``None``: the process default).
    """
    tasks = [(kernels, config) for config in configs]
    best: "list[dict | None]" = [None] * len(tasks)
    for _ in range(max(runs, 1)):
        rows = pool_map_keys(_timed_build, keys, tasks, jobs=jobs)
        for i, row in enumerate(rows):
            if best[i] is None or row["build_s"] < best[i]["build_s"]:
                best[i] = row
    return [row for row in best if row is not None]


#: Default configurations of the build benchmark.  ``ls -> lr`` is the
#: paper's Section 8 comparison config; ``ls -> cs`` exercises the
#: CS fit + fallback, whose reference path is the slowest of all.
_REPORT_MODEL_TYPES: "tuple[tuple[str, str], ...]" = (("ls", "lr"), ("ls", "cs"))


def build_report(
    n: int = 1_000_000,
    layer2_size: int = 2**14,
    dataset: str = "books",
    seed: int = 42,
    model_types: "Sequence[tuple[str, str]]" = _REPORT_MODEL_TYPES,
    bound_type: str = "labs",
    jobs: int = 1,
    runs: int = 1,
) -> dict:
    """Grouped vs per-segment build times, as a JSON-ready dict.

    Each (root, leaf) combination is built with ``grouped_fit=True``
    and with ``grouped_fit=False`` (the per-segment reference path) on
    the same keys, both under the NumPy kernel backend; ``speedup`` is
    reference / grouped wall time.  The grouped builds additionally
    assert structural parity with their reference twin: identical leaf
    sizes and error-bound payloads.  ``cext`` is the grouped build under
    the C backend (``None`` where it cannot load) and ``cext_speedup``
    its speedup over the NumPy grouped build; only configurations its
    build kernels cover get faster.
    """
    keys = sosd.generate(dataset, n=n, seed=seed)
    pairs = [tuple(mt) for mt in model_types]

    def sweep(kernels: str, grouped: bool) -> "list[dict]":
        configs = [
            RMIConfig(model_types=mt, layer_sizes=(int(layer2_size),),
                      bound_type=bound_type, grouped_fit=grouped)
            for mt in pairs
        ]
        return run_build_sweep(keys, configs, jobs=jobs, runs=runs,
                               kernels=kernels)

    grouped_rows = sweep("numpy", True)
    reference_rows = sweep("numpy", False)
    cext_rows = (sweep("cext", True) if backend_available("cext")
                 else [None] * len(pairs))
    entries = []
    for mt, g, r, c in zip(pairs, grouped_rows, reference_rows, cext_rows):
        for other in (r, c):
            if other is not None and other["index_bytes"] != g["index_bytes"]:
                raise AssertionError(
                    f"{mt}: {other['kernels']} "
                    f"{other['fit_path']} build disagrees with the NumPy "
                    f"grouped build on index size ({other['index_bytes']} "
                    f"vs {g['index_bytes']} bytes)"
                )
        entries.append({
            "model_types": list(mt),
            "grouped": g,
            "reference": r,
            "speedup": r["build_s"] / max(g["build_s"], 1e-12),
            "cext": c,
            "cext_speedup": None if c is None else
            g["build_s"] / max(c["build_s"], 1e-12),
        })
    speedups = [e["speedup"] for e in entries]
    return {
        "benchmark": "grouped vs per-segment RMI build",
        "dataset": dataset,
        "n": int(n),
        "layer2_size": int(layer2_size),
        "bound_type": bound_type,
        "seed": int(seed),
        "runs": int(runs),
        "jobs": int(jobs),
        "cpu_count": os.cpu_count(),
        "configs": entries,
        "min_speedup": min(speedups) if speedups else None,
        "max_speedup": max(speedups) if speedups else None,
    }


def write_build_report(report: dict, path: "str | os.PathLike") -> None:
    """Write a :func:`build_report` dict as pretty-printed JSON."""
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def render_build_report(report: dict) -> str:
    """Human-readable summary of a :func:`build_report` dict."""
    lines = [
        f"grouped vs per-segment RMI build -- {report['dataset']}, "
        f"n={report['n']:,}, layer2=2^{int(np.log2(report['layer2_size']))}, "
        f"{report['bound_type']}, best of {report['runs']}",
    ]
    for e in report["configs"]:
        arrow = "->".join(e["model_types"])
        cext = e["cext"]
        lines.append(
            f"  {arrow:8s} grouped {e['grouped']['build_s']:8.3f}s   "
            f"reference {e['reference']['build_s']:8.3f}s   "
            f"speedup {e['speedup']:6.1f}x   "
            + ("cext n/a" if cext is None else
               f"cext {cext['build_s']:8.3f}s ({e['cext_speedup']:.1f}x "
               "over grouped)")
        )
    return "\n".join(lines)
