"""Serving-layer observability: counters and log-binned histograms.

Tail latency is the serving metric that matters (the ROADMAP's
"millions of users" north star is a p99 statement, not a mean), so the
histograms here keep enough resolution to report p50/p95/p99 across six
orders of magnitude without storing per-request samples: geometric
bins, a fixed number per decade, plus exact count/sum/min/max.

Counters are plain Python ints mutated without locks: every producer
runs on the server's single asyncio event loop (and CPython's GIL makes
``int`` increments atomic anyway), so there is no lock to take and no
contention to measure.  :class:`ServeMetrics` aggregates everything the
server and load generator record and exports it two ways -- a JSON
document (:meth:`ServeMetrics.to_json`) for CI artifacts and the CLI,
and a one-line summary (:meth:`ServeMetrics.log_line`) that
:class:`IndexServer` emits periodically under live traffic.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right
from typing import Any, Sequence

import numpy as np

from .batcher import STATUS_ERROR, STATUS_OK, STATUS_REJECTED, STATUS_TIMEOUT

__all__ = ["Counter", "Gauge", "Histogram", "ServeMetrics",
           "rollup_states", "window_between"]

#: Counter attributes of :class:`ServeMetrics`, in snapshot order.
#: ``state()``/``merge_state()`` and the cluster roll-up iterate this
#: tuple so a counter added here is automatically aggregated.
COUNTER_NAMES = (
    "submitted",
    "completed",
    "timeouts",
    "rejected",
    "errors",
    "batches",
    "coalesced",
    "swaps",
    "writes",
)

#: Histogram attributes of :class:`ServeMetrics` (same contract).
HISTOGRAM_NAMES = ("latency_s", "batch_size", "queue_depth")

#: Gauge attributes of :class:`ServeMetrics` (same contract).  Older
#: metric states without a ``gauges`` section merge cleanly -- the
#: roll-up reads them with ``.get``.
GAUGE_NAMES = ("staleness_s",)

#: The counter of :class:`ServeMetrics` each final status increments.
_STATUS_COUNTERS = {
    STATUS_OK: "completed",
    STATUS_TIMEOUT: "timeouts",
    STATUS_REJECTED: "rejected",
    STATUS_ERROR: "errors",
}


class Counter:
    """A monotonically increasing event counter (single-writer)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Gauge:
    """A sampled level metric: the latest value plus its high-water mark.

    The writable tier's staleness bound is the motivating instance:
    ``value`` is the most recent sample (current staleness), ``max``
    the worst observed over the process lifetime -- the number the
    staleness-bound gate binds on.  :meth:`reset` re-arms ``value``
    (after a rebuild hot-swap drains the delta) while ``max`` keeps the
    high-water mark.  Single-writer, like :class:`Counter`.
    """

    __slots__ = ("value", "max", "samples")

    def __init__(self) -> None:
        self.value = 0.0
        self.max = 0.0
        self.samples = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        if value > self.max:
            self.max = value
        self.samples += 1

    def reset(self, value: float = 0.0) -> None:
        """Re-arm the current level without touching the high-water mark."""
        self.value = float(value)

    def state(self) -> "dict[str, Any]":
        return {"value": self.value, "max": self.max,
                "samples": self.samples}

    def merge_state(self, state: "dict[str, Any]") -> None:
        """Fold another gauge's state in (cluster roll-up: worst wins)."""
        self.value = max(self.value, float(state["value"]))
        self.max = max(self.max, float(state["max"]))
        self.samples += int(state.get("samples", 0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge(value={self.value}, max={self.max})"


class Histogram:
    """A geometric-bin histogram with percentile estimation.

    Bin ``i`` covers ``[lo * g**i, lo * g**(i+1))`` with ``g`` chosen so
    every decade splits into ``bins_per_decade`` bins; observations
    outside ``[lo, hi)`` clamp into the first/last bin.  One table of
    bin edges decides the bin of every observation, whether it arrives
    alone (:meth:`observe`) or in a batch (:meth:`observe_many`), so
    both land every value in the same bin.  Percentiles
    come from the cumulative bin counts and are reported as the
    geometric midpoint of the selected bin, clamped to the exact
    observed ``[min, max]`` -- a relative error bounded by one bin width
    (~12% at the default 20 bins/decade), plenty for p50/p95/p99
    reporting.
    """

    def __init__(self, lo: float = 1e-6, hi: float = 1e3,
                 bins_per_decade: int = 20) -> None:
        if not 0 < lo < hi:
            raise ValueError("histogram needs 0 < lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins_per_decade = int(bins_per_decade)
        decades = math.log10(self.hi / self.lo)
        self.num_bins = max(int(math.ceil(decades * bins_per_decade)), 1)
        self._log_lo = math.log10(self.lo)
        edges = 10.0 ** (self._log_lo + np.arange(self.num_bins + 1)
                         / self.bins_per_decade)
        #: Bin ``i`` is ``[_edges[i], _edges[i + 1])``.
        self._edges = edges.tolist()
        #: The edges between bins, for numpy searches.
        self._inner_edges = edges[1:-1]
        self.counts = [0] * self.num_bins
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # The same search as observe_many: the inner edges only, so
        # values outside [lo, hi) clamp into the first/last bin.
        idx = bisect_right(self._edges, value, 1, self.num_bins) - 1
        self.counts[idx] += 1

    def observe_many(self, values: "Sequence[float] | np.ndarray") -> None:
        """:meth:`observe` every value, in one vectorized update."""
        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return
        idx = np.searchsorted(self._inner_edges, values, side="right")
        binned = np.bincount(idx, minlength=self.num_bins)
        nonzero = np.flatnonzero(binned)
        for i, c in zip(nonzero.tolist(), binned[nonzero].tolist()):
            self.counts[i] += c
        self.count += values.size
        self.total += float(values.sum())
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100])."""
        if self.count == 0:
            return 0.0
        target = max(int(math.ceil(q / 100.0 * self.count)), 1)
        seen = 0
        for idx, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                mid = math.sqrt(self._edges[idx] * self._edges[idx + 1])
                return min(max(mid, self.min), self.max)
        return self.max  # pragma: no cover - unreachable (counts sum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> "dict[str, float]":
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    # -- cross-process merge ---------------------------------------------

    def state(self) -> "dict[str, Any]":
        """Full-fidelity, picklable/JSON-able histogram state.

        Unlike :meth:`summary` this keeps the raw bin counts, so
        histograms recorded in different worker processes can be merged
        without losing percentile accuracy -- merged percentiles are as
        bin-accurate as if every observation had landed in one
        histogram.
        """
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins_per_decade": self.bins_per_decade,
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_state(cls, state: "dict[str, Any]") -> "Histogram":
        hist = cls(lo=state["lo"], hi=state["hi"],
                   bins_per_decade=state["bins_per_decade"])
        hist.merge_state(state)
        return hist

    def merge_state(self, state: "dict[str, Any]") -> None:
        """Fold another histogram's :meth:`state` into this one.

        Requires identical binning -- merging differently-binned
        histograms would silently misplace counts.
        """
        if (state["lo"], state["hi"], state["bins_per_decade"]) != (
            self.lo, self.hi, self.bins_per_decade
        ) or len(state["counts"]) != self.num_bins:
            raise ValueError("cannot merge histograms with different bins")
        if not state["count"]:
            return
        for i, c in enumerate(state["counts"]):
            self.counts[i] += c
        self.count += state["count"]
        self.total += state["total"]
        self.min = min(self.min, state["min"])
        self.max = max(self.max, state["max"])


class ServeMetrics:
    """Every counter and histogram the serving layer maintains.

    Request accounting is by final status: ``submitted`` splits into
    ``completed`` (answered from an index), ``timeouts`` (deadline
    expired before service), ``rejected`` (shed at admission or during
    shutdown), and ``errors`` (index raised during batch execution).
    ``coalesced`` counts requests answered as part of a multi-request
    batch -- the micro-batcher's effectiveness metric.
    """

    def __init__(self) -> None:
        self.started_at = time.time()
        self.submitted = Counter()
        self.completed = Counter()
        self.timeouts = Counter()
        self.rejected = Counter()
        self.errors = Counter()
        self.batches = Counter()
        self.coalesced = Counter()
        self.swaps = Counter()
        #: Accepted write operations (inserts + deletes).
        self.writes = Counter()
        #: Age of the oldest unmerged write (the staleness bound);
        #: sampled by the server, reset on rebuild hot-swaps.
        self.staleness_s = Gauge()
        #: Request latency (submit -> response), seconds.  80 bins per
        #: decade (~2.9% bin width): the autotuner compares pre/post-swap
        #: window p99 *ratios*, which coarser bins would quantize away.
        self.latency_s = Histogram(lo=1e-6, hi=1e3, bins_per_decade=80)
        #: Requests per executed batch.
        self.batch_size = Histogram(lo=1.0, hi=1e6, bins_per_decade=40)
        #: Queue depth sampled when each batch is collected.
        self.queue_depth = Histogram(lo=1.0, hi=1e6, bins_per_decade=40)

    # -- recording hooks (called by the server) -------------------------

    def record_batch(self, size: int, queue_depth: int) -> None:
        self.batches.inc()
        self.batch_size.observe(max(size, 1))
        self.queue_depth.observe(max(queue_depth, 1))
        if size > 1:
            self.coalesced.inc(size)

    def record_response(self, status: str, latency_s: float) -> None:
        self.latency_s.observe(latency_s)
        self._count_status(status, 1)

    def record_responses(self, status: str,
                         latencies_s: "Sequence[float]") -> None:
        """:meth:`record_response` for a batch answered with one status:
        one histogram update for all of them."""
        self.latency_s.observe_many(latencies_s)
        self._count_status(status, len(latencies_s))

    def _count_status(self, status: str, n: int) -> None:
        name = _STATUS_COUNTERS.get(status)
        if name is not None:
            getattr(self, name).inc(n)

    # -- derived numbers -------------------------------------------------

    @property
    def coalesced_fraction(self) -> float:
        """Fraction of completed requests served in multi-request batches."""
        done = self.completed.value
        return self.coalesced.value / done if done else 0.0

    def snapshot(self) -> "dict[str, Any]":
        """All metrics as a JSON-ready dict."""
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests": {
                "submitted": self.submitted.value,
                "completed": self.completed.value,
                "timeouts": self.timeouts.value,
                "rejected": self.rejected.value,
                "errors": self.errors.value,
            },
            "batches": self.batches.value,
            "coalesced_requests": self.coalesced.value,
            "coalesced_fraction": round(self.coalesced_fraction, 4),
            "swaps": self.swaps.value,
            "writes": self.writes.value,
            "staleness_s": _rounded(self.staleness_s.state()),
            "latency_s": _rounded(self.latency_s.summary()),
            "batch_size": _rounded(self.batch_size.summary()),
            "queue_depth": _rounded(self.queue_depth.summary()),
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    # -- cross-process roll-up -------------------------------------------

    def state(self) -> "dict[str, Any]":
        """Full-fidelity metrics state for cross-process aggregation.

        A cluster worker ships this over its control pipe; the router
        merges the states of all shards into one cluster-wide view
        (:func:`rollup_states`) whose p50/p95/p99 are computed from the
        summed bin counts, not averaged summaries.
        """
        return {
            "started_at": self.started_at,
            "counters": {name: getattr(self, name).value
                         for name in COUNTER_NAMES},
            "histograms": {name: getattr(self, name).state()
                           for name in HISTOGRAM_NAMES},
            "gauges": {name: getattr(self, name).state()
                       for name in GAUGE_NAMES},
        }

    @classmethod
    def from_state(cls, state: "dict[str, Any]") -> "ServeMetrics":
        metrics = cls()
        metrics.merge_state(state)
        metrics.started_at = state["started_at"]
        return metrics

    def merge_state(self, state: "dict[str, Any]") -> None:
        """Fold another instance's :meth:`state` into this one."""
        self.started_at = min(self.started_at, state["started_at"])
        for name in COUNTER_NAMES:
            getattr(self, name).inc(state["counters"].get(name, 0))
        for name in HISTOGRAM_NAMES:
            hist_state = state["histograms"].get(name)
            if hist_state is not None:
                getattr(self, name).merge_state(hist_state)
        for name in GAUGE_NAMES:
            gauge_state = state.get("gauges", {}).get(name)
            if gauge_state is not None:
                getattr(self, name).merge_state(gauge_state)

    def log_line(self) -> str:
        """One-line live summary, suitable for periodic logging."""
        lat = self.latency_s
        return (
            f"served={self.completed.value} timeout={self.timeouts.value} "
            f"rejected={self.rejected.value} errors={self.errors.value} "
            f"batches={self.batches.value} "
            f"mean_batch={self.batch_size.mean:.1f} "
            f"coalesced={self.coalesced_fraction * 100:.1f}% "
            f"p50={lat.percentile(50) * 1e3:.2f}ms "
            f"p99={lat.percentile(99) * 1e3:.2f}ms "
            f"swaps={self.swaps.value} writes={self.writes.value} "
            f"stale={self.staleness_s.value * 1e3:.0f}ms"
        )


def rollup_states(states: "list[dict[str, Any]]") -> ServeMetrics:
    """Merge worker :meth:`ServeMetrics.state` payloads into one view.

    The sharded serving tier's cluster-wide metrics: counters sum,
    histograms merge bin-by-bin, so the rolled-up ``p50/p95/p99`` are
    the percentiles of the union of all shards' observations (to bin
    resolution), not an average of per-shard percentiles.
    """
    merged = ServeMetrics()
    for state in states:
        if state is not None:
            merged.merge_state(state)
    return merged


def _histogram_window(prev: "dict[str, Any]",
                      cur: "dict[str, Any]") -> "dict[str, Any]":
    """The histogram state of just the interval ``prev -> cur``.

    Bin counts subtract exactly (both states come from the same
    monotonically growing histogram), so windowed percentiles are as
    bin-accurate as lifetime ones.  ``min``/``max`` are exact whenever
    the lifetime extreme moved during the window; otherwise they are
    bounded by the edges of the outermost non-empty window bins.
    """
    if (cur["lo"], cur["hi"], cur["bins_per_decade"]) != (
        prev["lo"], prev["hi"], prev["bins_per_decade"]
    ) or len(cur["counts"]) != len(prev["counts"]):
        raise ValueError("cannot window histograms with different bins")
    counts = [c - p for c, p in zip(cur["counts"], prev["counts"])]
    count = cur["count"] - prev["count"]
    if count < 0 or any(c < 0 for c in counts):
        raise ValueError("windowed histogram went backwards; snapshots "
                         "must come from the same growing histogram")
    state = dict(cur)
    state["counts"] = counts
    state["count"] = count
    if count == 0:
        state["total"] = 0.0
        state["min"] = None
        state["max"] = None
        return state
    state["total"] = cur["total"] - prev["total"]
    nonzero = [i for i, c in enumerate(counts) if c]
    log_lo = math.log10(cur["lo"])
    step = 1.0 / cur["bins_per_decade"]
    if prev["min"] is None or cur["min"] < prev["min"]:
        state["min"] = cur["min"]
    else:
        state["min"] = min(10.0 ** (log_lo + nonzero[0] * step),
                           cur["max"])
    if prev["max"] is None or cur["max"] > prev["max"]:
        state["max"] = cur["max"]
    else:
        state["max"] = min(10.0 ** (log_lo + (nonzero[-1] + 1) * step),
                           cur["max"])
    if state["min"] > state["max"]:
        state["min"] = state["max"]
    return state


def window_between(prev_state: "dict[str, Any]",
                   cur_state: "dict[str, Any]") -> ServeMetrics:
    """The metrics of just the interval between two ``state()`` snapshots.

    Counters become per-interval deltas, histograms subtract bin-by-bin
    (percentiles of only the window's observations), gauges report the
    current level with a window-scoped high-water mark.  This is what
    lets the autotune controller react to the *last* window instead of
    lifetime aggregates that old traffic dominates.
    """
    window = ServeMetrics()
    for name in COUNTER_NAMES:
        delta = (cur_state["counters"].get(name, 0)
                 - prev_state["counters"].get(name, 0))
        if delta < 0:
            raise ValueError(f"counter {name!r} went backwards between "
                             "snapshots")
        getattr(window, name).inc(delta)
    for name in HISTOGRAM_NAMES:
        prev_h = prev_state["histograms"].get(name)
        cur_h = cur_state["histograms"].get(name)
        if prev_h is not None and cur_h is not None:
            delta_state = _histogram_window(prev_h, cur_h)
            if delta_state["count"]:
                getattr(window, name).merge_state(delta_state)
    for name in GAUGE_NAMES:
        prev_g = prev_state.get("gauges", {}).get(name)
        cur_g = cur_state.get("gauges", {}).get(name)
        if cur_g is None:
            continue
        gauge = getattr(window, name)
        gauge.value = float(cur_g["value"])
        # The lifetime high-water mark only tells the window's max when
        # it moved during the window; otherwise the freshest sample is
        # the best window-scoped bound available.
        if prev_g is None or cur_g["max"] > prev_g["max"]:
            gauge.max = float(cur_g["max"])
        else:
            gauge.max = float(cur_g["value"])
        gauge.samples = (int(cur_g.get("samples", 0))
                         - int(prev_g.get("samples", 0) if prev_g else 0))
    window.started_at = prev_state.get("started_at", window.started_at)
    return window


def _rounded(summary: "dict[str, float]") -> "dict[str, float]":
    return {k: (round(v, 9) if isinstance(v, float) else v)
            for k, v in summary.items()}
