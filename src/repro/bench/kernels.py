"""Per-kernel microbenchmark across kernel backends (ROADMAP item 4).

Behind ``python -m repro.bench kernels`` and the committed
``BENCH_kernels.json``: one tuned RMI smoke configuration (by default
books, 100k keys, 2^14 leaves, LS→LR, LAbs — the regime where the
paper's tuned RMIs live) is packed once, then each of the four kernel
entry points is timed on every loadable backend:

``predict``
    routing + leaf prediction (``rmi_predict``);
``lower_bound_window``
    the bounded search with escape repair, over the exact windows the
    smoke RMI produces;
``lookup``
    the fused route→predict→search batch (``rmi_lookup``, the RMI's
    serve kernel with no ranges) — this is the "100k lookup smoke" the
    speedup gate binds on;
``serve``
    the fused point+range serving unit (``rmi_serve``), the same
    kernel with ranges.

Next to them, ``call_us`` states the fixed cost of one kernel call: the
mean of a loop of one-key ``serve`` calls, best of ``runs`` rounds.  A
small batch pays it whole, so it is what divides a per-request batch's
ns per key from a bulk chunk's.

Beyond the RMI smoke, the report carries one section per *family
baseline* (``--index`` selects which): each packable index of Table 5
-- PGM, CompressedPGM, RadixSpline, FITing-Tree (``pla`` family),
B-tree and Hist-Tree (``tree`` family) -- is built on the same keys,
packed, and its ``lookup`` (the serve with no ranges) and ``serve``
-- both the family's one serve kernel, the index's batch path on
every backend -- timed per backend, NumPy included.  A final
``sorted_narrowing`` section times the pure-NumPy sorted-batch
narrowing fast path in ``core/search.py`` against the plain windowed
search, so the report also states what indexes gain where nothing
compiles.

Every backend's outputs are asserted bit-identical to the NumPy
reference (and ``lookup`` additionally to the ``searchsorted`` oracle)
before its timings count: a fast wrong kernel must fail the bench, not
win it.  Backends that cannot load in this environment are recorded as
``available: false`` rather than dropped, so a committed report states
explicitly which legs ran.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from ..baselines.btree import BTreeIndex
from ..baselines.compressed_pgm import CompressedPGMIndex
from ..baselines.fiting_tree import FITingTree
from ..baselines.hist_tree import HistTree
from ..baselines.interfaces import UnsupportedDataError
from ..baselines.pgm import PGMIndex
from ..baselines.radix_spline import RadixSpline
from ..core.rmi import RMI
from ..data import sosd
from ..kernels import KNOWN_BACKENDS, get_backend, pack_rmi

__all__ = [
    "KERNELS",
    "FAMILY_KERNELS",
    "GATE_METRIC",
    "INDEX_CHOICES",
    "kernels_report",
    "render_kernels_report",
    "write_kernels_report",
    "resolve_gate_backend",
    "gate_speedups",
]

#: Kernel names in report order (RMI section).
KERNELS = ("predict", "lower_bound_window", "lookup", "serve")

#: Kernel names timed per family baseline (the packed generic entry
#: points; predict/lower_bound_window are RMI-internal stages).
FAMILY_KERNELS = ("lookup", "serve")

#: The kernel whose speedup the ``--min-speedup`` gate binds on.
GATE_METRIC = "lookup"

#: The family-baseline smokes: ``(index name, packed family, builder)``.
#: Builders return ``(index, config)`` where ``config`` records any
#: non-default constructor choice the report should state.  The B-tree
#: runs sparse (the paper's Section 4.5 size knob) so the bench
#: exercises the directory-plus-page-scan shape rather than a dense
#: ``searchsorted`` rename; the Hist-Tree deduplicates the keys it
#: indexes (it rejects duplicate runs by contract).
FAMILY_SMOKES = (
    ("pgm-index", "pla", lambda keys: (PGMIndex(keys), {})),
    ("compressed-pgm", "pla", lambda keys: (CompressedPGMIndex(keys), {})),
    ("radix-spline", "pla", lambda keys: (RadixSpline(keys), {})),
    ("fiting-tree", "pla", lambda keys: (FITingTree(keys), {})),
    ("b-tree", "tree",
     lambda keys: (BTreeIndex(keys, sparsity=8), {"sparsity": 8})),
    ("hist-tree", "tree",
     lambda keys: (HistTree(np.unique(keys)), {"deduplicated": True})),
)

#: Valid ``--index`` selections.
INDEX_CHOICES = ("rmi",) + tuple(name for name, _, _ in FAMILY_SMOKES)


def _smoke_queries(keys: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Half present / half absent lookup mix, deterministically shuffled.

    Absent keys are drawn from within the key range: out-of-range
    queries all collapse onto the boundary leaves, which flatters no
    one and measures nothing but a hot cache line.
    """
    rng = np.random.default_rng(seed)
    present = rng.choice(keys, m // 2)
    absent = rng.integers(keys.min(), keys.max(), m - m // 2,
                          dtype=np.uint64)
    queries = np.concatenate([present, absent])
    rng.shuffle(queries)
    return np.ascontiguousarray(queries, dtype=np.uint64)


def _windows(packed, pos: np.ndarray, ids: np.ndarray, n: int):
    """The (lo, hi) windows the staged path derives from error bounds."""
    if packed.bkind == 1:
        lo = pos + packed.blo[ids]
        hi = pos + packed.bhi[ids]
    elif packed.bkind == 2:
        lo = pos + packed.blo[0]
        hi = pos + packed.bhi[0]
    else:
        lo = np.zeros(len(pos), dtype=np.int64)
        hi = np.full(len(pos), n - 1, dtype=np.int64)
    return np.clip(lo, 0, n - 1), np.clip(hi, 0, n - 1)


#: One-key ``serve`` calls per timing of ``call_us``.
CALL_LOOP = 200


def _interleaved_best(legs: dict, runs: int) -> dict:
    """Each leg's best timing over the same ``runs`` rounds.

    ``legs`` maps a key to ``(fn, loop)``; a timing is the mean of
    ``loop`` calls of ``fn``.  Every round times every leg once, in an
    order that reverses from round to round, so host drift between the
    legs of a compared pair (a backend and the NumPy reference) moves
    both alike instead of landing on one of them.
    """
    for fn, _ in legs.values():
        fn()  # warm: page-fault outputs, load code paths
    best = dict.fromkeys(legs, float("inf"))
    order = list(legs)
    for r in range(max(runs, 1)):
        for key in order if r % 2 == 0 else reversed(order):
            fn, loop = legs[key]
            t0 = time.perf_counter()
            for _ in range(loop):
                fn()
            best[key] = min(best[key], (time.perf_counter() - t0) / loop)
    return best


def _timed_backends(loaded: dict, legs: dict, runs: int, kernels,
                    m: int) -> dict:
    """The report entries of every loaded backend from one interleaved
    timing.

    ``legs`` maps each backend name to ``{kernel: fn}`` plus ``"call"``,
    the one-key serve whose ``CALL_LOOP``-call mean is ``call_us`` (the
    fixed cost of one kernel call).
    """
    best = _interleaved_best({
        (name, kernel): (fn, CALL_LOOP if kernel == "call" else 1)
        for name, fns in legs.items() for kernel, fn in fns.items()
    }, runs)
    return {
        name: {
            "available": True,
            "compiled": bool(loaded[name].compiled),
            "bit_identical": True,
            "kernels": {
                kernel: {"best_s": best[name, kernel],
                         "ns_per_op": best[name, kernel] / m * 1e9}
                for kernel in kernels
            },
            "call_us": best[name, "call"] * 1e6,
        }
        for name in legs
    }


def _family_section(family: str, build, keys: np.ndarray, qs: np.ndarray,
                    runs: int, loaded: "dict[str, object]") -> dict:
    """One family baseline: every loaded backend's ``lookup``/``serve``
    on the packed form (the index's batch path), each checked against
    the NumPy replay and the oracle before its timings count."""
    try:
        index, config = build(keys)
    except (UnsupportedDataError, ValueError) as exc:
        return {"family": family, "built": False, "error": str(exc)}
    m = len(qs)
    oracle = np.searchsorted(index.keys, qs, side="left").astype(np.int64)
    packed = index.pack()
    section = {
        "family": family,
        "built": True,
        "n": int(index.n),
        "config": config,
        "packed": packed is not None,
        "backends": {},
        "speedups": {},
    }
    if packed is None:
        return section
    reference = get_backend("numpy")
    if not np.array_equal(reference.lookup(packed, index.keys, qs), oracle):
        raise RuntimeError(
            f"numpy backend disagrees with the oracle on {index.name}"
        )
    ref_serve = reference.serve(packed, index.keys, qs, qs, qs)
    one, none = qs[:1], qs[:0]
    legs = {}
    for name, backend in loaded.items():
        got = backend.lookup(packed, index.keys, qs)
        got_serve = backend.serve(packed, index.keys, qs, qs, qs)
        if not (np.array_equal(got, oracle)
                and all(np.array_equal(g, r)
                        for g, r in zip(got_serve, ref_serve))):
            raise RuntimeError(
                f"backend {name!r} is not bit-identical to the NumPy "
                f"replay of {index.name}"
            )
        legs[name] = {
            "lookup": lambda b=backend: b.lookup(packed, index.keys, qs),
            "serve": lambda b=backend: b.serve(packed, index.keys, qs, qs,
                                               qs),
            "call": lambda b=backend: b.serve(packed, index.keys, one, none,
                                              none),
        }
    section["backends"] = _timed_backends(loaded, legs, runs,
                                          FAMILY_KERNELS, m)
    section["speedups"] = _speedups(section["backends"], FAMILY_KERNELS)
    return section


def _speedups(backends: "dict[str, dict]",
              kernels: "tuple[str, ...]") -> "dict[str, dict[str, float]]":
    """Per-kernel speedup of every available backend over the NumPy
    leg; empty when the NumPy leg did not run."""
    baseline = backends.get("numpy")
    if not (baseline and baseline.get("available")):
        return {}
    return {
        name: {
            kernel: (baseline["kernels"][kernel]["best_s"]
                     / entry["kernels"][kernel]["best_s"])
            for kernel in kernels
        }
        for name, entry in backends.items()
        if name != "numpy" and entry.get("available")
    }


def _sorted_narrowing_section(keys: np.ndarray, qs: np.ndarray,
                              runs: int, half_width: int = 2048) -> dict:
    """Plain vs sorted-batch-narrowed window search on the pure-NumPy
    path: windows of ``±half_width`` around the true positions, the
    shape a coarse index (sparse directory, wide-eps PLA) hands the
    shared search."""
    from ..core.search import (
        NARROW_MIN_BATCH,
        NARROW_MIN_MEAN_WIDTH,
        _batch_lower_bound_window_narrowed,
        _batch_lower_bound_window_plain,
    )

    n = len(keys)
    q = np.ascontiguousarray(qs, dtype=np.uint64)
    oracle = np.searchsorted(keys, q, side="left").astype(np.int64)
    lo = np.maximum(oracle - half_width, 0)
    hi = np.minimum(oracle + half_width, n - 1)
    if not np.array_equal(
        _batch_lower_bound_window_narrowed(keys, q, lo, hi), oracle
    ):
        raise RuntimeError("narrowed window search disagrees with the oracle")
    best = _interleaved_best({
        name: (lambda search=search: search(keys, q, lo, hi), 1)
        for name, search in (("plain", _batch_lower_bound_window_plain),
                             ("narrowed", _batch_lower_bound_window_narrowed))
    }, runs)
    plain, narrowed = best["plain"], best["narrowed"]
    width = 2 * half_width + 1
    return {
        "batch": len(q),
        "window_width": width,
        "engages": bool(len(q) >= NARROW_MIN_BATCH
                        and width >= NARROW_MIN_MEAN_WIDTH),
        "plain": {"best_s": plain, "ns_per_op": plain / len(q) * 1e9},
        "narrowed": {"best_s": narrowed,
                     "ns_per_op": narrowed / len(q) * 1e9},
        "speedup": plain / narrowed,
    }


def kernels_report(
    n: int = 100_000,
    dataset: str = "books",
    seed: int = 42,
    layer2_size: int = 2**14,
    model_types: "tuple[str, str]" = ("ls", "lr"),
    bound_type: str = "labs",
    queries: "int | None" = None,
    runs: int = 9,
    backends: "list[str] | None" = None,
    indexes: "list[str] | None" = None,
) -> dict:
    """Time every kernel on every loadable backend; JSON-ready dict.

    Timings are best-of-``runs`` (microbenchmarks want the noise
    floor, not the scheduler), taken in ``runs`` interleaved rounds:
    each round times every backend's every kernel once, in an order
    that reverses from round to round, so a drift in host speed lands
    on both sides of a speedup alike.  Speedups are per kernel against
    the NumPy backend on the same arrays.  ``indexes`` selects which
    sections run (``"rmi"`` and/or family baseline names; default
    all); the RMI section keeps its historical top-level
    ``backends``/``speedups`` keys, family sections live under
    ``families``.
    """
    selected = list(indexes) if indexes else list(INDEX_CHOICES)
    unknown = [s for s in selected if s not in INDEX_CHOICES]
    if unknown:
        raise ValueError(
            f"unknown index selection(s) {unknown}; pick from {INDEX_CHOICES}"
        )
    keys = sosd.generate(dataset, n=n, seed=seed)
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    m = int(queries) if queries is not None else int(n)
    qs = _smoke_queries(keys, m, seed + 1)

    names = list(backends) if backends else list(KNOWN_BACKENDS)
    backend_status: "dict[str, dict]" = {}
    loaded: "dict[str, object]" = {}
    for name in names:
        try:
            backend = get_backend(name)
        except (ValueError, RuntimeError) as exc:
            backend_status[name] = {"available": False, "error": str(exc)}
            continue
        backend.warmup()
        backend_status[name] = {
            "available": True, "compiled": bool(backend.compiled),
        }
        loaded[name] = backend

    report_backends: "dict[str, dict]" = {}
    speedups: "dict[str, dict[str, float]]" = {}
    if "rmi" in selected:
        report_backends, speedups = _rmi_sections(
            keys, qs, layer2_size, model_types, bound_type, runs,
            names, loaded, backend_status,
        )
    families = {
        name: _family_section(family, build, keys, qs, runs, loaded)
        for name, family, build in FAMILY_SMOKES
        if name in selected
    }

    return {
        "kind": "kernels",
        "dataset": dataset,
        "n": int(n),
        "queries": m,
        "layer2_size": int(layer2_size),
        "model_types": list(model_types),
        "bound_type": bound_type,
        "runs": int(runs),
        "gate_metric": GATE_METRIC,
        "indexes": selected,
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "backend_status": backend_status,
        "backends": report_backends,
        "speedups": speedups,
        "families": families,
        "sorted_narrowing": _sorted_narrowing_section(keys, qs, runs),
    }


def _rmi_sections(keys, qs, layer2_size, model_types, bound_type, runs,
                  names, loaded, backend_status):
    """The historical RMI smoke: per-backend timings and speedups."""
    rmi = RMI(
        keys,
        layer_sizes=[int(layer2_size)],
        model_types=tuple(model_types),
        bound_type=bound_type,
    )
    packed = pack_rmi(rmi)
    if packed is None:  # pragma: no cover - smoke config is packable
        raise RuntimeError("smoke RMI configuration is not packable")

    reference = get_backend("numpy")
    ref_ids, ref_pos = reference.rmi_predict(packed, qs)
    win_lo, win_hi = _windows(packed, ref_pos, ref_ids, len(keys))
    oracle = np.searchsorted(keys, qs, side="left").astype(np.int64)
    ref_serve = reference.rmi_serve(packed, keys, qs, qs, qs)
    if not np.array_equal(reference.rmi_lookup(packed, keys, qs), oracle):
        raise RuntimeError("numpy backend disagrees with the oracle")

    m = len(qs)
    one, none = qs[:1], qs[:0]
    legs = {}
    for name, backend in loaded.items():
        got_ids, got_pos = backend.rmi_predict(packed, qs)
        got_lbw = backend.lower_bound_window(keys, qs, win_lo, win_hi)
        got_lookup = backend.rmi_lookup(packed, keys, qs)
        got_serve = backend.rmi_serve(packed, keys, qs, qs, qs)
        mismatches = [
            kernel
            for kernel, ok in (
                ("predict", np.array_equal(got_ids, ref_ids)
                 and np.array_equal(got_pos, ref_pos)),
                ("lower_bound_window", np.array_equal(got_lbw, oracle)),
                ("lookup", np.array_equal(got_lookup, oracle)),
                ("serve", all(np.array_equal(g, r)
                              for g, r in zip(got_serve, ref_serve))),
            )
            if not ok
        ]
        if mismatches:
            raise RuntimeError(
                f"backend {backend.name!r} is not bit-identical to the "
                f"NumPy reference on: {', '.join(mismatches)}"
            )

        legs[name] = {
            "predict": lambda b=backend: b.rmi_predict(packed, qs),
            "lower_bound_window": lambda b=backend: b.lower_bound_window(
                keys, qs, win_lo, win_hi),
            "lookup": lambda b=backend: b.rmi_lookup(packed, keys, qs),
            "serve": lambda b=backend: b.rmi_serve(packed, keys, qs, qs, qs),
            "call": lambda b=backend: b.rmi_serve(packed, keys, one, none,
                                                  none),
        }

    timed = _timed_backends(loaded, legs, runs, KERNELS, m)
    report_backends = {
        name: timed.get(name) or {
            "available": False,
            "error": backend_status[name].get("error", "not loadable"),
        }
        for name in names
    }
    return report_backends, _speedups(report_backends, KERNELS)


def gate_speedups(report: dict) -> "dict[str, float]":
    """Per-backend speedup the ``--min-speedup`` gate binds on.

    When the RMI section ran, its gate-metric speedup (the historical
    gate, unchanged).  Otherwise -- an ``--index`` run selecting only
    family baselines -- the *minimum* gate-metric speedup across the
    selected families: a multi-family gate must clear the bar
    everywhere, not just on its best index.
    """
    if report.get("speedups"):
        return {
            name: per[GATE_METRIC]
            for name, per in report["speedups"].items()
        }
    out: "dict[str, float]" = {}
    for fam in report.get("families", {}).values():
        for name, per in fam.get("speedups", {}).items():
            value = per.get(GATE_METRIC)
            if value is not None:
                out[name] = min(out.get(name, float("inf")), value)
    return out


def _backend_status(report: dict) -> dict:
    """Availability map, tolerating pre-``backend_status`` reports."""
    status = report.get("backend_status")
    if status:
        return status
    return {
        name: {
            "available": bool(entry.get("available")),
            "compiled": bool(entry.get("compiled")),
        }
        for name, entry in report.get("backends", {}).items()
    }


def resolve_gate_backend(report: dict, gate_backend: str) -> "str | None":
    """Backend name the gate binds on, or ``None`` when none qualifies.

    ``"best-compiled"`` picks the available compiled backend with the
    highest gate-metric speedup (see :func:`gate_speedups`); a concrete
    name requires that backend to be available (CI's cext gate must
    fail loudly when the library did not build, not silently pass).
    """
    status = _backend_status(report)
    if gate_backend != "best-compiled":
        entry = status.get(gate_backend)
        if not (entry and entry.get("available") and entry.get("compiled")):
            return None
        return gate_backend
    best_name, best = None, -1.0
    for name, value in gate_speedups(report).items():
        if not status.get(name, {}).get("compiled"):
            continue
        if value > best:
            best_name, best = name, value
    return best_name


def _call_line(prefix: str, entry: dict) -> str:
    """The ``call_us`` line of one backend."""
    return f"{prefix} call (1-key serve) {entry['call_us']:8.2f}us"


def render_kernels_report(report: dict) -> str:
    """Human-readable summary of a :func:`kernels_report` dict."""
    lines = [
        f"kernel backends -- {report['dataset']}, n={report['n']:,}, "
        f"{report['queries']:,} queries, layer2=2^"
        f"{int(np.log2(report['layer2_size']))}, "
        f"{'->'.join(report['model_types'])}, {report['bound_type']}, "
        f"best of {report['runs']}",
    ]
    for name, entry in report["backends"].items():
        if not entry.get("available"):
            lines.append(f"  {name:6s} unavailable "
                         f"({entry.get('error', 'not loadable')})")
            continue
        for kernel in KERNELS:
            t = entry["kernels"][kernel]
            speed = report["speedups"].get(name, {}).get(kernel)
            suffix = f"  {speed:5.2f}x vs numpy" if speed else ""
            lines.append(
                f"  {name:6s} {kernel:18s} {t['best_s'] * 1e3:8.2f}ms  "
                f"{t['ns_per_op']:7.1f}ns/op{suffix}"
            )
        lines.append(_call_line(f"  {name:6s}", entry))
    for fam_name, fam in report.get("families", {}).items():
        if not fam.get("built"):
            lines.append(
                f"  {fam_name}: not built ({fam.get('error', 'unknown')})"
            )
            continue
        tag = f"{fam_name} [{fam['family']}]"
        for name, entry in fam["backends"].items():
            for kernel in FAMILY_KERNELS:
                t = entry["kernels"][kernel]
                speed = fam["speedups"].get(name, {}).get(kernel)
                suffix = f"  {speed:5.2f}x vs numpy" if speed else ""
                lines.append(
                    f"  {tag:24s} {name:6s} {kernel:6s} "
                    f"{t['best_s'] * 1e3:8.2f}ms  "
                    f"{t['ns_per_op']:7.1f}ns/op{suffix}"
                )
            lines.append(_call_line(f"  {tag:24s} {name:6s}", entry))
        if not fam.get("packed"):
            lines.append(f"  {tag:24s} unpackable: no kernels to time")
    narrowing = report.get("sorted_narrowing")
    if narrowing:
        lines.append(
            f"  sorted-narrowing (numpy, batch={narrowing['batch']:,}, "
            f"window={narrowing['window_width']}): plain "
            f"{narrowing['plain']['ns_per_op']:.1f}ns/op -> narrowed "
            f"{narrowing['narrowed']['ns_per_op']:.1f}ns/op "
            f"({narrowing['speedup']:.2f}x)"
        )
    return "\n".join(lines)


def write_kernels_report(report: dict, path: "str | os.PathLike") -> None:
    """Write a :func:`kernels_report` dict as pretty-printed JSON."""
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
