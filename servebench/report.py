"""Metric catalog, traced-run probes, and the numbers each run reports.

The catalog here is the single source of the metric names, units and
directions; ``BENCHMARK.json`` lists the same (a test keeps them
equal).
"""

from __future__ import annotations

import selectors
import statistics
from collections import defaultdict
from typing import Any

import numpy as np

from .tracer import (
    COUNT,
    END,
    FOLD,
    NAME,
    PARENT,
    REMOTE,
    START,
    TAG,
    Tracer,
    attribute,
    layer_of,
)
from .workloads import Outcome

#: ``(name, unit, better, bound)``; bound = tolerated worsening as a
#: share of the parent's median.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("read_qps", "1/s", "higher", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_p95_ms", "ms", "lower", 0.25),
)

#: Layers whose self-time share of the traced wall time is reported.
SHARE_LAYERS = ("batcher", "server", "metrics", "index", "kernels",
                "router", "cluster", "writable", "loop")

#: ``(name, unit, better)`` of every traced-run metric.
PER_LAYER = (
    ("batcher.batches", "count", "higher"),
    ("batcher.batch_size_mean", "count", "higher"),
    ("batcher.queue_wait_ms_p50", "ms", "lower"),
    ("batcher.rejected", "count", "lower"),
    ("server.dispatch_us_per_batch", "us", "lower"),
    ("server.handoff_us_per_call", "us", "lower"),
    ("server.timeouts", "count", "lower"),
    ("server.errors", "count", "lower"),
    ("metrics.record_us_per_response", "us", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.warm_s", "s", "lower"),
    ("index.size_bytes", "B", "lower"),
    ("index.serve_ns_per_key", "ns", "lower"),
    ("kernels.serve_ns_per_key", "ns", "lower"),
    ("kernels.lookup_ns_per_key", "ns", "lower"),
    ("kernels.delta_correct_ns_per_key", "ns", "lower"),
    ("kernels.fused_key_share", "frac", "higher"),
    ("router.route_us_per_chunk", "us", "lower"),
    ("router.self_us_per_chunk", "us", "lower"),
    ("router.shards_per_chunk", "count", "lower"),
    ("cluster.start_s", "s", "lower"),
    ("cluster.rpc_us_per_call", "us", "lower"),
    ("cluster.worker_us_per_call", "us", "lower"),
    ("cluster.transport_us_per_call", "us", "lower"),
    ("cluster.bytes_per_call", "B", "lower"),
    ("writable.apply_us_per_write", "us", "lower"),
    ("writable.delta_len_mean", "count", "lower"),
    ("writable.dirty_call_share", "frac", "lower"),
    ("writable.serve_ns_per_key", "ns", "lower"),
    ("writable.rebuilds", "count", "higher"),
    ("writable.rebuild_ms_p50", "ms", "lower"),
    ("writable.rebuild_keys_per_write", "count", "lower"),
    ("writable.swap_ms_p50", "ms", "lower"),
    ("writable.staleness_max_ms", "ms", "lower"),
    ("writable.write_qps", "1/s", "higher"),
    *((f"share.{layer}", "frac", "lower") for layer in SHARE_LAYERS),
    ("bench.oracle_share", "frac", "lower"),
    ("trace.overhead", "frac", "lower"),
    ("trace.coverage", "frac", "higher"),
)

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _keys3(args) -> int:
    """Keys in a ``(points, lows, highs)`` call (both bounds count)."""
    return len(args[-3]) + 2 * len(args[-2])


def install_probes(tracer: Tracer) -> None:
    """Wrap the serving stack's public entry points (the traced run)."""
    from repro.baselines.rmi_adapter import RMIAsIndex
    from repro.kernels import get_backend
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cluster import Cluster
    from repro.serve.metrics import ServeMetrics
    from repro.serve.router import ShardPlan, ShardRouter
    from repro.serve.server import IndexServer
    from repro.writable import RebuildDaemon, WritableIndex

    def rebuilt(args, result, sid):
        tracer.spans[sid][COUNT] = args[0].windex.base.n if result else 0

    def rpc_bytes(args, result, sid):
        tracer.spans[sid][COUNT] += sum(a.nbytes for a in result)

    w = tracer.wrap
    tracer.wrap_collect(MicroBatcher)
    tracer.wrap_selector(selectors.DefaultSelector)
    tracer.wrap_steps(IndexServer, "lookup", "server.submit")
    tracer.wrap_steps(IndexServer, "range_query", "server.submit")
    w(IndexServer, "serve_bulk", "server.serve_bulk",
      count=_keys3, handoff=True)
    w(IndexServer, "apply_writes", "server.apply_writes",
      count=lambda a: len(a[1]), handoff=True)
    w(IndexServer, "swap_index", "server.swap_index")
    tracer.wrap_folded(ServeMetrics, "record_response",
                       "metrics.record_response")
    for cls, layer in ((RMIAsIndex, "index"), (WritableIndex, "writable")):
        w(cls, "__init__", f"{layer}.init")
        w(cls, "warm_kernels", f"{layer}.warm")
    w(RMIAsIndex, "serve_batch", "index.serve_batch", count=_keys3)
    w(WritableIndex, "serve_batch", "writable.serve_batch",
      count=lambda a: (_keys3(a), a[0].delta_len))
    w(WritableIndex, "apply", "writable.apply",
      count=lambda a: len(a[1]))
    w(RebuildDaemon, "rebuild_now", "writable.rebuild_now", done=rebuilt)
    w(ShardPlan, "route_points", "router.route_points",
      count=lambda a: len(a[1]))
    w(ShardRouter, "lookup_batch", "router.lookup_batch",
      count=lambda a: len(a[1]))
    w(ShardRouter, "range_query_batch", "router.range_query_batch",
      count=lambda a: len(a[1]))
    w(Cluster, "start", "cluster.start")
    w(Cluster, "execute_bulk", "cluster.execute_bulk", REMOTE,
      count=lambda a: sum(x.nbytes for x in a[2:5]), done=rpc_bytes)
    backend = get_backend()
    w(backend, "rmi_serve", "kernels.rmi_serve",
      count=lambda a: len(a[2]) + 2 * len(a[3]))
    w(backend, "rmi_lookup", "kernels.rmi_lookup",
      count=lambda a: len(a[2]))
    w(backend, "delta_correct", "kernels.delta_correct",
      count=lambda a: len(a[3]))


def _metric(name: str, value: float) -> "dict[str, Any]":
    return {"value": float(value), "unit": _UNITS[name]}


#: The measured phase is cut into consecutive windows of equal sample
#: count: about two per second, each with at least
#: ``MIN_WINDOW_SAMPLES`` samples (so that p95 has ten beyond it).
WINDOWS_PER_SECOND = 2
MIN_WINDOW_SAMPLES = 200


def windowed(out: Outcome,
             scaled: bool = True) -> "tuple[float, float, float]":
    """``(read_qps, p50_ms, p95_ms)`` at nominal host speed.

    Each window gets its own read rate and latency percentiles, scaled
    by the host speed around its slice (``scaled=False``: as measured;
    the p95 only where ``out.p95_scaled``);
    the run reports the medians over windows, so that a burst of host
    noise in one window does not move its figure.
    """
    lat = np.frombuffer(out.latencies, dtype=np.float64)
    done = np.frombuffer(out.done_at, dtype=np.float64)
    rates, p50s, p95s = [], [], []
    for start, end, slice_speed in out.slices or [(out.t0, out.t1, 1.0)]:
        idx = np.flatnonzero((done > start) & (done <= end))
        if not len(idx):
            continue
        idx = idx[np.argsort(done[idx], kind="stable")]
        k = int(round((end - start) * WINDOWS_PER_SECOND))
        k = max(1, min(k, len(idx) // MIN_WINDOW_SAMPLES))
        if not scaled:
            slice_speed = 1.0
        edges = np.linspace(0, len(idx), k + 1).astype(int)
        prev = start
        for lo, hi in zip(edges[:-1], edges[1:]):
            last = done[idx[hi - 1]]
            rates.append((hi - lo) * out.sample_reads / (last - prev)
                         / slice_speed)
            prev = last
            p50, p95 = np.percentile(lat[idx[lo:hi]], [50, 95])
            p50s.append(p50 * 1e3 * slice_speed)
            p95s.append(p95 * 1e3
                        * (slice_speed if out.p95_scaled else 1.0))
    return (statistics.median(rates), statistics.median(p50s),
            statistics.median(p95s))


def end_to_end(out: Outcome, scaled: bool = True) -> "dict[str, dict]":
    """The end-to-end metrics, times and rates at nominal host speed.

    The host's speed over its nominal speed is measured around the
    set-ups and around each measured slice (see
    :class:`~servebench.host.HostProbe`): rates are divided by it and
    times multiplied, so that host drift between runs cancels
    (``scaled=False``: everything as measured).  Memory is reported as
    measured.
    """
    qps, p50, p95 = windowed(out, scaled)
    values = {
        "setup_s": statistics.median(out.setup_s)
        * (out.setup_speed if scaled else 1.0),
        "peak_rss_mb": out.peak_rss_mb,
        "read_qps": qps,
        "read_p50_ms": p50,
        "read_p95_ms": p95,
    }
    return {name: _metric(name, values[name]) for name, *_ in END_TO_END}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced: Outcome,
              untraced: Outcome) -> "dict[str, dict]":
    """Every ``PER_LAYER`` metric from the traced pass's spans.

    ``writable.write_qps`` stands in for an end-to-end write rate, so
    it comes from the untraced pass, at nominal host speed (as in
    :func:`end_to_end`).  Metrics of layers a workload does not use
    read 0.
    """
    spans = tracer.spans
    t0, t1 = traced.t0, traced.t1
    wall = t1 - t0
    setup_end = traced.facts["setup_end"]
    self_s, folded = attribute(spans, t0, t1)
    window = defaultdict(list)
    setup = defaultdict(list)
    children = defaultdict(list)
    for sid, rec in enumerate(spans):
        parent = rec[PARENT]
        if t0 <= rec[START] < t1:
            # Kernel warm-up probes of a hot swap are not serving work.
            if parent is None or not spans[parent][NAME].endswith(".warm"):
                window[rec[NAME]].append(sid)
            if parent is not None:
                children[parent].append(sid)
        elif rec[START] < setup_end:
            setup[rec[NAME]].append(sid)

    def dur(sid: int) -> float:
        return spans[sid][END] - spans[sid][START]

    def total(name: str) -> float:
        return sum(dur(s) for s in window[name])

    def keys(name: str) -> int:
        return sum(spans[s][COUNT] for s in window[name])

    def ns_per_key(name: str) -> float:
        return _ratio(total(name), keys(name)) * 1e9

    def minus_children(sid: int, names: "tuple[str, ...]") -> float:
        return dur(sid) - sum(dur(c) for c in children[sid]
                              if spans[c][NAME] in names)

    served = ("index.serve_batch", "writable.serve_batch", "writable.apply")
    batches = [s for s in window["batcher.collect"] if spans[s][COUNT]]
    waits = [tracer.queue_waits[spans[s][TAG]] for s in batches]
    calls = window["server.serve_bulk"] + window["server.apply_writes"]
    router_calls = (window["router.lookup_batch"]
                    + window["router.range_query_batch"])
    rpc = window["cluster.execute_bulk"]
    records = [rec[FOLD]["metrics.record_response"]
               for rec in spans if rec[FOLD]
               and "metrics.record_response" in rec[FOLD]
               and t0 <= rec[START] < t1]
    wserve = [spans[s][COUNT] for s in window["writable.serve_batch"]]
    rebuilds = [s for s in window["writable.rebuild_now"]
                if spans[s][COUNT]]
    worker = _worker_us_per_call(traced.facts)
    rpc_us = _mean(dur(s) for s in rpc) * 1e6

    layer_self = defaultdict(float)
    for sid, rec in enumerate(spans):
        layer_self[layer_of(rec[NAME])] += self_s[sid]
    for name, seconds in folded.items():
        layer_self[layer_of(name)] += seconds
    root = traced.facts["root"]
    explained = (float(self_s.sum()) + sum(folded.values())
                 - float(self_s[root]))
    oracle = layer_self["bench"] - float(self_s[root])

    values = {
        "batcher.batches": len(batches),
        "batcher.batch_size_mean": _mean(spans[s][COUNT] for s in batches),
        "batcher.queue_wait_ms_p50": (
            float(np.median(np.concatenate(waits))) * 1e3 if waits else 0.0),
        "batcher.rejected": traced.facts["rejected"],
        "server.dispatch_us_per_batch": _mean(
            minus_children(s, served)
            for s in window["server.dispatch"]) * 1e6,
        "server.handoff_us_per_call": _mean(
            minus_children(s, served) for s in calls) * 1e6,
        "server.timeouts": traced.facts["timeouts"],
        "server.errors": traced.facts["errors"],
        "metrics.record_us_per_response": _ratio(
            sum(s for _, s in records), sum(n for n, _ in records)) * 1e6,
        "index.build_s": _median(dur(s) for s in setup["index.init"]),
        "index.warm_s": _median(dur(s) for s in setup["index.warm"]),
        "index.size_bytes": traced.facts.get("index_bytes", 0),
        "index.serve_ns_per_key": ns_per_key("index.serve_batch"),
        "kernels.serve_ns_per_key": ns_per_key("kernels.rmi_serve"),
        "kernels.lookup_ns_per_key": ns_per_key("kernels.rmi_lookup"),
        "kernels.delta_correct_ns_per_key":
            ns_per_key("kernels.delta_correct"),
        "kernels.fused_key_share": _ratio(
            keys("kernels.rmi_serve"),
            keys("kernels.rmi_serve") + keys("kernels.rmi_lookup")),
        "router.route_us_per_chunk":
            _mean(dur(s) for s in router_calls) * 1e6,
        "router.self_us_per_chunk":
            _ratio(layer_self["router"], len(router_calls)) * 1e6,
        "router.shards_per_chunk": _ratio(len(rpc), len(router_calls)),
        "cluster.start_s": _median(dur(s) for s in setup["cluster.start"]),
        "cluster.rpc_us_per_call": rpc_us,
        "cluster.worker_us_per_call": worker,
        "cluster.transport_us_per_call": rpc_us - worker if rpc else 0.0,
        "cluster.bytes_per_call": _mean(spans[s][COUNT] for s in rpc),
        "writable.apply_us_per_write": _ratio(
            total("writable.apply"), keys("writable.apply")) * 1e6,
        "writable.delta_len_mean": _mean(d for _, d in wserve),
        "writable.dirty_call_share": _ratio(sum(d > 0 for _, d in wserve),
                                            len(wserve)),
        "writable.serve_ns_per_key": _ratio(
            total("writable.serve_batch"), sum(k for k, _ in wserve)) * 1e9,
        "writable.rebuilds": traced.facts.get("rebuilds", 0),
        "writable.rebuild_ms_p50": _median(dur(s) for s in rebuilds) * 1e3,
        "writable.rebuild_keys_per_write": _ratio(
            sum(spans[s][COUNT] for s in rebuilds), traced.writes),
        "writable.swap_ms_p50":
            _median(dur(s) for s in window["server.swap_index"]) * 1e3,
        "writable.staleness_max_ms":
            traced.facts.get("staleness_max_s", 0.0) * 1e3,
        "writable.write_qps":
            _ratio(untraced.writes, untraced.write_s) / untraced.speed,
        "bench.oracle_share": oracle / wall,
        "trace.overhead": untraced.read_qps / traced.read_qps - 1.0,
        "trace.coverage": explained / wall,
    }
    for layer in SHARE_LAYERS:
        values[f"share.{layer}"] = layer_self[layer] / wall
    return {name: _metric(name, values[name]) for name, *_ in PER_LAYER}


def _worker_us_per_call(facts: "dict[str, Any]") -> float:
    before, after = facts.get("shards_before"), facts.get("shards_after")
    if not before or not after:
        return 0.0
    count = total = 0.0
    for b, a in zip(before, after):
        hb, ha = b["histograms"]["latency_s"], a["histograms"]["latency_s"]
        count += ha["count"] - hb["count"]
        total += ha["total"] - hb["total"]
    return _ratio(total, count) * 1e6
