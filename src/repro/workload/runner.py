"""Workload execution and measurement.

Runs a lookup workload against an index (an
:class:`~repro.baselines.interfaces.OrderedIndex` or a bare
:class:`~repro.core.rmi.RMI`), following the paper's protocol
(Section 4.4): several independent runs, the median run is reported,
and a checksum over the returned positions validates correctness.

All workloads execute through the **batch path**
(:meth:`~repro.baselines.interfaces.OrderedIndex.lookup_batch`),
optionally in fixed-size chunks (``chunk_size``) so serving-style
pipelines can bound per-batch latency and working-set size.
Validation is two-fold: the position checksum of the full batch run,
plus a batch-vs-scalar cross-check -- a deterministic sample of
queries is re-answered through the scalar ``lower_bound``/``lookup``
path and compared element-wise, so a vectorized fast path can never
silently diverge from the reference semantics.

Each result carries three views of the cost:

* ``wall_seconds`` / ``wall_ns_per_lookup`` -- measured Python time of
  the vectorized batch path (honest relative throughput at this scale);
* ``counters`` -- machine-independent operation counts from a traced
  sample of scalar lookups;
* ``estimated_ns_per_lookup`` -- the analytic cost model's estimate of
  the per-lookup latency on the paper's machine, which is what the
  figure drivers plot (see :mod:`repro.cost.model`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..baselines.interfaces import OrderedIndex
from ..core.rmi import RMI
from ..cost.counters import OperationCounters
from ..cost.model import CostModel
from .generator import RangeWorkload, Workload, position_checksum

__all__ = [
    "WorkloadResult",
    "execute_lookup_batch",
    "run_workload",
    "run_range_workload",
    "measure_build",
    "trace_sample",
    "crosscheck_scalar",
]

#: Queries traced per workload for operation counting (tracing is a
#: scalar Python path, so it runs on a sample, not the full workload).
DEFAULT_TRACE_SAMPLE = 512

#: Queries re-answered through the scalar path to cross-check the
#: vectorized batch results.
DEFAULT_CROSSCHECK_SAMPLE = 64


@dataclass(frozen=True)
class WorkloadResult:
    """Measurements of one index over one workload."""

    index_name: str
    index_bytes: int
    num_lookups: int
    wall_seconds: float
    checksum_ok: bool
    counters: OperationCounters
    estimated_ns_per_lookup: float
    estimated_eval_ns: float
    estimated_search_ns: float
    #: Batch-vs-scalar agreement on a deterministic query sample.
    scalar_agreement_ok: bool = True
    #: Kernel backend that executed the batch path ("numpy", "cext")
    #: -- wall-clock numbers are only comparable within one backend,
    #: so results record which one ran.
    kernel_backend: str = "numpy"
    #: True when the batch path ran the backend's packed kernel: the
    #: index packed (an RMI additionally needs a compiled backend).
    #: False means the index's own batch path ran -- the staged RMI
    #: path, an unpackable index's vectorized path, or the scalar
    #: fallback -- an honesty bit for comparing wall-clock numbers
    #: across indexes.
    kernel_packed: bool = False

    @property
    def wall_ns_per_lookup(self) -> float:
        return self.wall_seconds / max(self.num_lookups, 1) * 1e9

    @property
    def valid(self) -> bool:
        """Both validations: checksum and batch-vs-scalar agreement."""
        return self.checksum_ok and self.scalar_agreement_ok


def execute_lookup_batch(
    index: "OrderedIndex | RMI",
    queries: np.ndarray,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Answer ``queries`` through the index's batch path.

    ``chunk_size`` splits the workload into fixed-size sub-batches
    (``None`` = one batch), bounding per-call latency and the size of
    the intermediate per-query arrays the vectorized paths allocate.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if chunk_size is None or chunk_size >= len(queries):
        return index.lookup_batch(queries)
    out = np.empty(len(queries), dtype=np.int64)
    for start in range(0, len(queries), chunk_size):
        stop = start + chunk_size
        out[start:stop] = index.lookup_batch(queries[start:stop])
    return out


def _scalar_lookup(index: "OrderedIndex | RMI", key: int) -> int:
    return index.lookup(key) if isinstance(index, RMI) else index.lower_bound(key)


def crosscheck_scalar(
    index: "OrderedIndex | RMI",
    queries: np.ndarray,
    batch_positions: np.ndarray,
    sample: int = DEFAULT_CROSSCHECK_SAMPLE,
) -> bool:
    """Batch-vs-scalar agreement on a deterministic query sample.

    Re-answers an evenly strided sample of ``queries`` through the
    scalar path and compares against the batch results -- the runtime
    guard corresponding to the conformance suite's exhaustive check.
    """
    if not len(queries):
        return True
    stride = max(len(queries) // max(sample, 1), 1)
    take = np.arange(0, len(queries), stride)[:sample]
    return all(
        _scalar_lookup(index, int(queries[i])) == int(batch_positions[i])
        for i in take
    )


def trace_sample(
    index: "OrderedIndex | RMI",
    queries: np.ndarray,
    sample: int = DEFAULT_TRACE_SAMPLE,
) -> OperationCounters:
    """Collect operation counters from a deterministic query sample."""
    take = queries[:: max(len(queries) // sample, 1)][:sample]
    evals, comps, intervals = [], [], []
    if isinstance(index, RMI):
        for q in take:
            t = index.lookup_traced(int(q))
            evals.append(t.model_evaluations)
            comps.append(t.comparisons)
            intervals.append(t.interval_size)
    else:
        for q in take:
            b = index.search_bounds(int(q))
            width = max(b.hi - b.lo + 1, 1)
            evals.append(b.evaluation_steps)
            comps.append(int(np.ceil(np.log2(width + 1))))
            intervals.append(width)
    return OperationCounters.collect(evals, comps, intervals)


def run_workload(
    index: "OrderedIndex | RMI",
    workload: Workload,
    runs: int = 3,
    cost_model: CostModel | None = None,
    search: str | None = None,
    trace_size: int = DEFAULT_TRACE_SAMPLE,
    chunk_size: int | None = None,
    crosscheck_size: int = DEFAULT_CROSSCHECK_SAMPLE,
) -> WorkloadResult:
    """Execute a workload ``runs`` times; report the median run.

    All lookups go through the batch path (chunked by ``chunk_size``
    when given).  ``search`` overrides the search algorithm assumed by
    the cost model; by default it is the RMI's configured algorithm or
    ``bin`` for baselines (the Section 8 protocol).
    """
    cm = cost_model or CostModel()
    durations = []
    positions = None
    for _ in range(max(runs, 1)):
        t0 = time.perf_counter()
        positions = execute_lookup_batch(index, workload.queries, chunk_size)
        durations.append(time.perf_counter() - t0)
    checksum_ok = position_checksum(positions) == workload.checksum
    scalar_ok = crosscheck_scalar(
        index, workload.queries, positions, crosscheck_size
    )

    counters = trace_sample(index, workload.queries, trace_size)
    if isinstance(index, RMI):
        name = f"rmi[{index.describe()}]"
        algo = search or index.search_name
    else:
        name = index.name
        algo = search or "bin"
    index_bytes = index.size_in_bytes()
    eval_ns = cm.evaluation_ns(counters.mean_evaluation_steps, index_bytes)
    search_ns = cm.search_ns(
        algo,
        counters.mean_comparisons,
        counters.mean_interval,
        index.n * 8,
    )
    from ..kernels import get_backend

    # The RMI adapter's batch path is its RMI's (held on .rmi).
    state_fn = getattr(getattr(index, "rmi", index), "_kernel_state", None)
    kernel_packed = bool(state_fn is not None and state_fn() is not None)
    return WorkloadResult(
        index_name=name,
        index_bytes=index_bytes,
        num_lookups=workload.num_lookups,
        wall_seconds=float(np.median(durations)),
        checksum_ok=checksum_ok,
        counters=counters,
        estimated_ns_per_lookup=(
            eval_ns + search_ns + cm.per_lookup_overhead_ns
        ),
        estimated_eval_ns=eval_ns,
        estimated_search_ns=search_ns,
        scalar_agreement_ok=scalar_ok,
        kernel_backend=get_backend().name,
        kernel_packed=kernel_packed,
    )


def run_range_workload(
    index: "OrderedIndex | RMI",
    workload: RangeWorkload,
    runs: int = 1,
    chunk_size: int | None = None,
) -> tuple[float, bool]:
    """Execute a range workload; returns ``(median seconds, checksum ok)``.

    Implemented via :meth:`range_query_batch` -- two batched
    lower-bound lookups per chunk, exactly what the scalar
    :meth:`OrderedIndex.range_query` does per query, so the measured
    time reflects two lookups per range.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    durations = []
    checksum = None
    m = workload.num_queries
    step = m if chunk_size is None else chunk_size
    for _ in range(max(runs, 1)):
        starts = np.empty(m, dtype=np.int64)
        counts = np.empty(m, dtype=np.int64)
        t0 = time.perf_counter()
        for lo in range(0, m, step):
            hi = lo + step
            starts[lo:hi], counts[lo:hi] = index.range_query_batch(
                workload.lows[lo:hi], workload.highs[lo:hi]
            )
        durations.append(time.perf_counter() - t0)
        checksum = int(starts.sum() + counts.sum())
    return float(np.median(durations)), checksum == workload.checksum


def measure_build(
    factory: Callable[[], "OrderedIndex | RMI"], runs: int = 3
) -> tuple["OrderedIndex | RMI", float]:
    """Build an index ``runs`` times; return (index, median seconds)."""
    durations = []
    index = None
    for _ in range(max(runs, 1)):
        t0 = time.perf_counter()
        index = factory()
        durations.append(time.perf_counter() - t0)
    return index, float(np.median(durations))
