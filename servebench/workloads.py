"""The four closed-loop serving workloads.

Each workload sets its server up ``setup_repeats`` times (the set-up
time is the median), warms up, then measures: it times every request
or bulk call from the caller's side and checks every answer.  See
``README.md`` for why each workload exists.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import gc
import math
import time
from array import array
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import host
from .inputs import (
    CHUNK_READS,
    N_KEYS,
    POOL_CHUNKS,
    MixedStream,
    ReadChunk,
    RequestPool,
    answer_digest,
    flatten_pool,
    make_keys,
    make_mixed_stream,
    make_read_pool,
    recount_wrong,
    segment_writes,
)
from .tracer import ACTIVE, WAIT, Tracer

WORKLOADS = ("point_lane", "bulk_lane", "cluster_bulk", "mixed_writes")

#: ``mixed_writes`` segments per second of ``--seconds``: sized so a run
#: takes about ``--seconds`` on a 2-vCPU Xeon host pinned to one CPU.
SEGMENTS_PER_SECOND = 85
#: ``mixed_writes`` starts a rebuild every this many segments (65536
#: writes, 1.6x ``min_delta``), so the share of reads that overlap a
#: rebuild -- about half -- is the same in every run.  Left to the
#: daemon's 50 ms timer, a rebuild starts once the delta reaches
#: ``min_delta`` and the timer next fires; the cycle length then varies
#: from run to run, and with it the mix of reads that run alone and
#: reads that share the CPU with a rebuild, which the read p50 sits
#: between.  Warm-up and every measured slice are whole cycles.
REBUILD_EVERY = 64

_now = time.perf_counter


@dataclass(frozen=True)
class Config:
    """Workload sizes; :func:`make_config` gives the two presets."""

    seconds: float
    n_keys: int = N_KEYS
    pool_chunks: int = POOL_CHUNKS
    chunk_reads: int = CHUNK_READS
    warmup_s: float = 1.0
    setup_repeats: int = 7
    #: RMI leaf models (LS->LR, LAbs bounds).
    leaves: int = 2**14
    #: point_lane: client coroutines, each with one request outstanding.
    clients: int = 256
    #: cluster_bulk: shards (one worker process each) and chunks in flight.
    shards: int = 2
    inflight: int = 2
    #: Every lane measures in this many slices, with the host probe
    #: timed before, between and after them.
    slices: int = 5
    #: mixed_writes: warm-up segments, segments per measured slice,
    #: writes per segment, the daemon's ``min_delta``, segments between
    #: rebuild starts, and the fewest rebuilds a valid run shows.
    warm_segments: int = 0
    slice_segments: int = 0
    writes_per_segment: int = 0
    min_delta: int = 0
    rebuild_every: int = REBUILD_EVERY
    min_rebuilds: int = 10

    @property
    def segments(self) -> int:
        """``mixed_writes`` segments in all, warm-up included."""
        return self.warm_segments + self.slices * self.slice_segments

    def describe(self) -> "dict[str, Any]":
        return dict(self.__dict__, segments=self.segments)


def make_config(size: str, seconds: float) -> Config:
    """``full``: the benchmark proper; ``tiny``: a seconds-long smoke."""
    if size == "full":
        slices = Config.slices
        cycles = max(1, round(seconds * SEGMENTS_PER_SECOND
                              / (slices * REBUILD_EVERY)))
        return Config(
            seconds=seconds,
            warm_segments=2 * REBUILD_EVERY,
            slice_segments=cycles * REBUILD_EVERY,
            writes_per_segment=segment_writes(CHUNK_READS),
            min_delta=N_KEYS // 50,
        )
    if size == "tiny":
        return Config(
            seconds=seconds, n_keys=20_000, pool_chunks=4, chunk_reads=512,
            warmup_s=0.2, setup_repeats=2, leaves=2**8, slices=2,
            warm_segments=40, slice_segments=160,
            writes_per_segment=segment_writes(512), min_delta=400,
            rebuild_every=40, min_rebuilds=1,
        )
    raise ValueError(f"unknown size {size!r}")


@dataclass
class Inputs:
    keys: np.ndarray
    pool: "list[ReadChunk]"
    requests: "RequestPool | None" = None
    stream: "MixedStream | None" = None


def make_inputs(workload: str, cfg: Config, seed: int) -> Inputs:
    """Every input of ``workload``, generated from ``seed`` alone."""
    keys = make_keys(seed, cfg.n_keys)
    pool = make_read_pool(keys, seed, cfg.pool_chunks, cfg.chunk_reads)
    inputs = Inputs(keys=keys, pool=pool)
    if workload == "point_lane":
        inputs.requests = flatten_pool(pool, seed)
    elif workload == "mixed_writes":
        inputs.stream = make_mixed_stream(keys, pool, seed, cfg.segments,
                                          cfg.writes_per_segment)
    return inputs


@dataclass
class Outcome:
    """What one pass measured (see ``report.py`` for the metrics)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reads: int = 0
    writes: int = 0
    write_s: float = 0.0
    t0: float = 0.0
    t1: float = 0.0
    #: One sample per request (point_lane), bulk call or segment: its
    #: latency and completion time, each sample worth ``sample_reads``.
    latencies: array = field(default_factory=lambda: array("d"))
    done_at: array = field(default_factory=lambda: array("d"))
    sample_reads: int = 1
    #: Whether the read p95 is scaled by host speed (see ``_mixed``).
    p95_scaled: bool = True
    setup_s: "list[float]" = field(default_factory=list)
    #: Host speed around the set-ups (1.0: not probed).
    setup_speed: float = 1.0
    #: ``(start, end, host speed)`` of each measured slice.
    slices: "list[tuple[float, float, float]]" = field(default_factory=list)
    peak_rss_mb: float = 0.0
    facts: "dict[str, Any]" = field(default_factory=dict)

    @property
    def speed(self) -> float:
        """Host speed over the measured slices (1.0: not probed)."""
        if not self.slices:
            return 1.0
        return math.prod(x for *_, x in self.slices) ** (1 / len(self.slices))

    @property
    def read_qps(self) -> float:
        if self.slices:
            return self.reads / sum(end - start
                                    for start, end, _ in self.slices)
        return self.reads / (self.t1 - self.t0)

    def sample(self, latency: float, done: float) -> None:
        self.latencies.append(latency)
        self.done_at.append(done)

    def tally(self, attempted: int, failed: int, wrong: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        self.wrong += wrong


def _wrong(chunk: ReadChunk, pos, starts, counts) -> int:
    return (int(np.count_nonzero(pos != chunk.exp_pos))
            + int(np.count_nonzero((starts != chunk.exp_start)
                                   | (counts != chunk.exp_count))))


def _check_span(tracer: "Tracer | None"):
    return tracer.sync_span("bench.check") if tracer is not None \
        else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


class ShardRMI:
    """Builds one shard's RMI inside its forked worker.

    Refuses to build unless the worker resolves the ``cext`` kernel
    backend, and drops the traced run's probes there: spans recorded in
    a worker could not reach the parent's trace.
    """

    def __init__(self, leaves: int, tracer: "Tracer | None") -> None:
        self.leaves = leaves
        self.tracer = tracer

    def __call__(self, keys: np.ndarray) -> Any:
        from repro.baselines.rmi_adapter import RMIAsIndex
        from repro.kernels import get_backend

        if self.tracer is not None:
            self.tracer.uninstall()
        backend = get_backend().name
        if backend != "cext":
            raise RuntimeError(f"shard worker resolved kernels {backend!r}")
        return RMIAsIndex(keys, layer2_size=self.leaves)


@dataclass
class Served:
    server: Any = None
    daemon: Any = None
    windex: Any = None
    cluster: Any = None
    router: Any = None

    async def stop(self) -> None:
        if self.router is not None:
            await self.router.stop()
        if self.cluster is not None:
            await self.cluster.stop()
        if self.daemon is not None:
            await self.daemon.stop()
        if self.server is not None:
            await self.server.stop()


async def _start(workload: str, cfg: Config, keys: np.ndarray,
                 tracer: "Tracer | None") -> Served:
    from repro.baselines.rmi_adapter import RMIAsIndex
    from repro.serve.server import IndexServer

    if workload == "cluster_bulk":
        from repro.serve.cluster import Cluster
        from repro.serve.router import ShardRouter

        cluster = Cluster(keys=keys, num_shards=cfg.shards,
                          index_factory=ShardRMI(cfg.leaves, tracer))
        await cluster.start()
        router = ShardRouter(cluster)
        await router.start()
        return Served(cluster=cluster, router=router)
    index = RMIAsIndex(keys, layer2_size=cfg.leaves)
    if workload != "mixed_writes":
        server = IndexServer(index)
        await server.start()
        return Served(server=server)
    from repro.writable import RebuildDaemon, WritableIndex

    windex = WritableIndex(index)
    server = IndexServer(windex)
    await server.start()
    # Not started: the stream triggers its cycles (see REBUILD_EVERY).
    daemon = RebuildDaemon(
        windex, server=server, min_delta=cfg.min_delta,
        factory=functools.partial(RMIAsIndex, layer2_size=cfg.leaves),
    )
    return Served(server=server, daemon=daemon, windex=windex)


async def _set_up(workload: str, cfg: Config, keys: np.ndarray,
                  out: Outcome, tracer: "Tracer | None") -> Served:
    """Set up ``cfg.setup_repeats`` times; keep the last for serving."""
    served = None
    for i in range(cfg.setup_repeats):
        if served is not None:
            # Release the previous instance before timing the next one.
            await served.stop()
            served = None
            gc.collect()
        start = _now()
        served = await _start(workload, cfg, keys, tracer)
        out.setup_s.append(_now() - start)
    return served


# ---------------------------------------------------------------------------
# closed loops
# ---------------------------------------------------------------------------


async def _point_loop(server, pool: RequestPool, clients: int,
                      until: float, out: "Outcome | None",
                      tracer: "Tracer | None") -> float:
    """``clients`` coroutines, one request outstanding each."""
    n = len(pool)
    stride = max(n // clients, 1)
    is_range, a, b, e1, e2 = pool.is_range, pool.a, pool.b, pool.e1, pool.e2
    counts = [0, 0, 0]  # attempted, failed, wrong
    last_done = [_now()]

    async def client(c: int) -> None:
        i = c * stride
        done = None
        while True:
            start = _now()
            if tracer is not None and done is not None:
                tracer.fold_collect("bench.client", start - done)
            if start >= until:
                return
            j = i % n
            i += 1
            if is_range[j]:
                resp = await server.range_query(a[j], b[j])
            else:
                resp = await server.lookup(a[j])
            done = _now()
            counts[0] += 1
            if resp.status != "ok":
                counts[1] += 1
                continue
            if resp.position != e1[j] or (is_range[j]
                                          and resp.count != e2[j]):
                counts[1] += 1
                counts[2] += 1
            if out is not None:
                out.sample(done - start, done)
            last_done[0] = done

    await asyncio.gather(*(client(c) for c in range(clients)))
    if out is not None:
        out.tally(*counts)
        out.reads += counts[0] - counts[1]
    elif counts[1]:
        raise RuntimeError(f"{counts[1]} failed requests during warm-up")
    return last_done[0]


async def _bulk_loop(call, pool: "list[ReadChunk]", lanes: int,
                     until: float, out: "Outcome | None",
                     tracer: "Tracer | None") -> float:
    """``lanes`` callers, each with one chunk outstanding."""
    last_done = [_now()]
    failures = [0]

    async def lane(k: int) -> None:
        i = k
        while _now() < until:
            chunk = pool[i % len(pool)]
            if tracer is not None:
                tracer.tag.set(i)
            i += lanes
            start = _now()
            try:
                pos, starts, counts = await call(chunk)
            except Exception:
                if out is None:
                    raise
                out.tally(chunk.reads, chunk.reads)
                continue
            done = _now()
            with _check_span(tracer):
                wrong = _wrong(chunk, pos, starts, counts)
            if out is None:
                failures[0] += wrong
                continue
            out.tally(chunk.reads, wrong, wrong)
            out.reads += chunk.reads - wrong
            out.sample(done - start, done)
            last_done[0] = done

    await asyncio.gather(*(lane(k) for k in range(lanes)))
    if failures[0]:
        raise RuntimeError(f"{failures[0]} wrong answers during warm-up")
    return last_done[0]


async def _measure(loop, cfg: Config, out: Outcome,
                   probe: "host.HostProbe | None") -> None:
    """The measured phase: ``await loop(k, out)`` runs slice ``k`` and
    returns when its last sample completed.

    With a ``probe`` the phase is cut into ``cfg.slices`` slices;
    between them, with nothing in flight, the probe times the host, and
    each slice records the host speed around it.  Without one (the
    traced pass) the slices run back to back, unprobed.
    """
    out.t0 = _now()
    if probe is None:
        for k in range(cfg.slices):
            out.t1 = await loop(k, out)
        return
    rates = [probe.rate(host.PROBE_SLICE_S)]
    for k in range(cfg.slices):
        start = _now()
        end = await loop(k, out)
        rates.append(probe.rate(host.PROBE_SLICE_S))
        out.slices.append((start, end, probe.speed(rates[-2:])))
    out.t1 = end


async def _timed(workload: str, cfg: Config, inp: Inputs, served: Served,
                 out: Outcome, tracer: "Tracer | None",
                 probe: "host.HostProbe | None") -> None:
    """Warm up, then measure for ``cfg.seconds`` (time-bounded lanes)."""
    if workload == "point_lane":
        def loop(until, rec):
            return _point_loop(served.server, inp.requests, cfg.clients,
                               until, rec, tracer)
    else:
        if workload == "bulk_lane":
            lanes = 1

            async def call(chunk):
                return await served.server.serve_bulk(
                    chunk.points, chunk.lows, chunk.highs)
        else:
            lanes = cfg.inflight
            router = served.router

            async def call(chunk):
                pos, (starts, counts) = await asyncio.gather(
                    router.lookup_batch(chunk.points),
                    router.range_query_batch(chunk.lows, chunk.highs))
                return pos, starts, counts

        def loop(until, rec):
            return _bulk_loop(call, inp.pool, lanes, until, rec, tracer)

    if workload != "point_lane":
        out.sample_reads = cfg.chunk_reads
    await loop(_now() + cfg.warmup_s, None)
    if served.cluster is not None:
        out.facts["shards_before"] = await served.cluster.shard_metrics()
    if tracer is not None:
        out.facts["root"] = tracer.root(
            "bench.run", WAIT if workload == "point_lane" else ACTIVE)
    await _measure(lambda k, rec: loop(_now() + cfg.seconds / cfg.slices,
                                       rec), cfg, out, probe)
    if served.cluster is not None:
        out.facts["shards_after"] = await served.cluster.shard_metrics()


async def _mixed(cfg: Config, inp: Inputs, served: Served, out: Outcome,
                 tracer: "Tracer | None",
                 probe: "host.HostProbe | None") -> None:
    """Run the whole pre-generated stream: write burst, then reads.

    Every ``cfg.rebuild_every`` segments a rebuild cycle of the daemon
    starts in the background, unless the previous one still runs.  The
    warm-up and each measured slice are whole cycles, and a slice waits
    for its last rebuild after its last sample, so the probe between
    slices times the host alone.
    """
    stream, pool, server = inp.stream, inp.pool, served.server
    mismatched: "dict[int, tuple]" = {}
    out.sample_reads = cfg.chunk_reads
    # The read p95 sits near 6 ms in every run whatever the host speed:
    # reads that overlap a rebuild and wait about one 5 ms GIL switch
    # interval for it.  Unscaled, two sets of ten seeds spread by 0.05;
    # scaled, by 0.19 and 0.12.  So it is reported as measured.
    out.p95_scaled = False
    rebuild: "asyncio.Task | None" = None

    async def run(first: int, stop: int, rec: "Outcome | None") -> float:
        nonlocal rebuild
        for s in range(first, stop):
            if s and s % cfg.rebuild_every == 0 and (rebuild is None
                                                     or rebuild.done()):
                if rebuild is not None:
                    rebuild.result()  # raises if the last cycle failed
                # A fresh context: the rebuild is its own flow, not part
                # of the segment loop's (the traced run parents by it).
                rebuild = asyncio.create_task(served.daemon.rebuild_now(),
                                              context=contextvars.Context())
            if tracer is not None:
                tracer.tag.set(s)
            chunk = pool[stream.pool_index[s]]
            wkeys = stream.wkeys[s]
            start = _now()
            await server.apply_writes(wkeys, stream.wops[s])
            mid = _now()
            pos, starts, counts = await server.serve_bulk(
                chunk.points, chunk.lows, chunk.highs)
            done = _now()
            with _check_span(tracer):
                if answer_digest(stream.weights, pos, starts,
                                 counts) != stream.digests[s]:
                    mismatched[s] = (pos.copy(), starts.copy(),
                                     counts.copy())
            out.attempted += chunk.reads + len(wkeys)
            if rec is not None:
                rec.writes += len(wkeys)
                rec.write_s += mid - start
                rec.reads += chunk.reads
                rec.sample(done - mid, done)
        end = _now()
        if rebuild is not None:
            await rebuild
        return end

    await run(0, cfg.warm_segments, None)
    out.facts["rebuilds_before"] = served.daemon.rebuilds
    if tracer is not None:
        out.facts["root"] = tracer.root("bench.run", ACTIVE)
    first, per = cfg.warm_segments, cfg.slice_segments
    await _measure(lambda k, rec: run(first + k * per,
                                      first + (k + 1) * per, rec),
                   cfg, out, probe)
    out.facts["rebuilds"] = served.daemon.rebuilds \
        - out.facts["rebuilds_before"]
    # Before the check below materializes the live keys a second time.
    out.peak_rss_mb = host.peak_rss_mb()
    live = served.windex.keys
    out.facts["live_keys_equal"] = bool(np.array_equal(live,
                                                      stream.final_live))
    if mismatched:
        wrong = recount_wrong(inp.keys, pool, out.facts["seed"],
                              cfg.writes_per_segment, mismatched)
        out.tally(0, wrong, wrong)
        out.reads -= wrong
    if not out.facts["live_keys_equal"]:
        out.tally(0, 1, 1)


async def run_pass(workload: str, cfg: Config, inp: Inputs, seed: int,
                   tracer: "Tracer | None" = None,
                   probes: "host.Probes | None" = None) -> Outcome:
    """One set-up-warm-up-measure cycle of ``workload``.

    The peak resident set is reset once the inputs exist, so it covers
    set-up and serving; for the cluster the workers' peaks are added.
    With ``probes``, the host is timed just before and just after the
    set-ups, and between the measured slices.
    """
    out = Outcome(facts={"seed": seed})
    gc.collect()
    host.reset_peak_rss()
    if probes is not None:
        before = probes.setup.rate(host.PROBE_SETUP_S)
    served = await _set_up(workload, cfg, inp.keys, out, tracer)
    out.facts["setup_end"] = _now()
    if probes is not None:
        out.setup_speed = probes.setup.speed(
            [before, probes.setup.rate(host.PROBE_SETUP_S)])
    probe = probes.serving if probes is not None else None
    # Long-lived objects (inputs, the server) leave the collector's
    # generations, so full collections cost the same in every run.
    gc.collect()
    gc.freeze()
    try:
        if workload == "mixed_writes":
            await _mixed(cfg, inp, served, out, tracer, probe)
        else:
            await _timed(workload, cfg, inp, served, out, tracer, probe)
        if workload != "mixed_writes":
            out.peak_rss_mb = host.peak_rss_mb()
        if served.cluster is not None:
            out.peak_rss_mb += sum(host.peak_rss_mb(info["pid"])
                                   for info in served.cluster.worker_info)
        _collect_facts(served, out)
    finally:
        await served.stop()
        gc.unfreeze()
    if tracer is not None:
        tracer.finish(_now())
    return out


def _collect_facts(served: Served, out: Outcome) -> None:
    from repro.kernels import get_backend

    out.facts["backend"] = get_backend().name
    if served.server is not None:
        m = served.server.metrics
        out.facts.update(
            rejected=m.rejected.value, timeouts=m.timeouts.value,
            errors=m.errors.value, staleness_max_s=m.staleness_s.max,
            index_bytes=served.server.index.size_in_bytes(),
        )
        out.facts["server"] = _knobs(served.server.batcher,
                                     shed_policy=served.server.shed_policy)
    if served.router is not None:
        m = served.router.metrics
        out.facts.update(rejected=m.rejected.value,
                         timeouts=m.timeouts.value, errors=m.errors.value)
        out.facts["server"] = {
            "router": _knobs(served.router._batchers[0],
                             shed_policy=served.router.shed_policy),
            "worker": dict(served.cluster._opts.__dict__),
        }


def _knobs(batcher: Any, **extra: Any) -> "dict[str, Any]":
    return {"max_batch_size": batcher.max_batch_size,
            "max_wait_s": batcher.max_wait_s,
            "max_queue": batcher.max_queue, **extra}


def run(workload: str, cfg: Config, inp: Inputs, seed: int,
        tracer: "Tracer | None" = None,
        probes: "host.Probes | None" = None) -> Outcome:
    return asyncio.run(run_pass(workload, cfg, inp, seed, tracer, probes))
