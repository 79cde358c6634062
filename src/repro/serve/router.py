"""Range-sharded request routing: partition, scatter/gather, stitch.

One :class:`~repro.serve.server.IndexServer` is capped by a single
Python process; the sharded tier splits the keyspace into ``N``
contiguous shards, each owned by one worker, and puts a
:class:`ShardRouter` in front.  This module is the *logic* layer --
partition planning, point routing, range spans, and result stitching
are pure functions over a :class:`ShardPlan`, so the whole
scatter/gather contract is property-testable against the
``np.searchsorted`` oracle without spawning a single process
(:class:`LocalBackend`).  The multi-process transport lives in
:mod:`repro.serve.cluster`.

**Partitioning.**  ``plan_shards(keys, N)`` slices the sorted key array
into ``N`` contiguous, non-empty slices; shard ``i`` owns global
positions ``[offsets[i], offsets[i+1])`` and its routing key is
``maxes[i]``, the largest key it holds.  Boundaries may fall inside
duplicate runs -- correctness never depends on where.

**Point routing.**  A lower-bound query ``k`` goes to the first shard
whose ``max >= k`` (clamped to the last shard).  Every earlier shard
holds only keys ``< k``, so the global answer is that shard's local
answer plus its offset; a ``k`` beyond all keys resolves to the last
shard's local ``n``, i.e. the global ``n`` -- no special case.

**Range scatter/gather.**  ``[low, high)`` spans shards
``route(low) .. route(high)``.  Each spanned shard answers the *same*
``(low, high)`` over its slice; stitching is ``global_start =
offsets[first] + local_start(first)`` and ``count = sum(local
counts)``, exact because shards outside the span contribute zero and
key order is preserved across shard boundaries.

**Per-shard dispatch.**  The router reuses the
:class:`~repro.serve.batcher.MicroBatcher` per shard as a transport
coalescer: requests bound for the same shard ride one backend call
(one pipe message in the cluster), and multiple frames stay in flight
per shard -- the worker's own micro-batcher coalesces across frames.
Expired requests are answered ``timeout`` at dispatch, a dead shard's
requests are answered ``error`` immediately (never a hang), and
shard-level hot-swap reuses the worker ``swap_index`` protocol.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from .batcher import (
    OP_LOOKUP,
    OP_RANGE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    MicroBatcher,
    Request,
    Response,
)
from .metrics import ServeMetrics, rollup_states

__all__ = [
    "ShardPlan",
    "plan_shards",
    "ShardDeadError",
    "LocalBackend",
    "ShardRouter",
]

_EMPTY_U64 = np.empty(0, dtype=np.uint64)

#: Worse statuses win when a scattered range's parts disagree.
_STATUS_RANK = {STATUS_OK: 0, STATUS_REJECTED: 1, STATUS_TIMEOUT: 2,
                STATUS_ERROR: 3}


class ShardDeadError(RuntimeError):
    """The worker owning a shard exited (crash or kill)."""


# ---------------------------------------------------------------------------
# Partition plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous range partition of a sorted key array.

    ``offsets`` has ``num_shards + 1`` entries (``offsets[0] == 0``,
    ``offsets[-1] == n_total``); shard ``i`` owns global positions
    ``[offsets[i], offsets[i+1])`` and ``maxes[i]`` is its largest key.
    """

    offsets: np.ndarray  # int64, len num_shards + 1
    maxes: np.ndarray  # uint64, len num_shards

    @property
    def num_shards(self) -> int:
        return len(self.maxes)

    @property
    def n_total(self) -> int:
        return int(self.offsets[-1])

    def shard_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def route_points(self, queries: np.ndarray) -> np.ndarray:
        """Owning shard id per query (first shard with ``max >= q``)."""
        queries = np.asarray(queries, dtype=np.uint64)
        ids = np.searchsorted(self.maxes, queries, side="left")
        return np.minimum(ids, self.num_shards - 1).astype(np.int64)

    def shard_of(self, key: int) -> int:
        return int(self.route_points(np.array([key], dtype=np.uint64))[0])

    def range_span(self, low: int, high: int) -> "tuple[int, int]":
        """Inclusive shard span ``[i_lo, i_hi]`` of range ``[low, high)``."""
        span = self.route_points(np.array([low, high], dtype=np.uint64))
        return int(span[0]), int(span[1])

    def slice_keys(self, keys: np.ndarray, shard_id: int) -> np.ndarray:
        return keys[int(self.offsets[shard_id]):
                    int(self.offsets[shard_id + 1])]


def plan_shards(keys: np.ndarray, num_shards: int) -> ShardPlan:
    """Split sorted ``keys`` into ``num_shards`` even contiguous slices.

    ``num_shards`` is clamped to ``len(keys)`` so every shard is
    non-empty.  Boundaries are positional: a duplicate run may straddle
    two shards, which the routing rule (first shard with ``max >= q``,
    ``side='left'``) answers correctly -- the first shard holding the
    duplicate wins, matching the lower-bound oracle.
    """
    n = len(keys)
    if n == 0:
        raise ValueError("cannot shard an empty key array")
    num_shards = max(1, min(int(num_shards), n))
    offsets = (np.arange(num_shards + 1, dtype=np.int64) * n) // num_shards
    maxes = np.asarray(keys, dtype=np.uint64)[offsets[1:] - 1]
    return ShardPlan(offsets=offsets, maxes=maxes)


def _by_shard(ids: np.ndarray) -> "Iterator[tuple[int, np.ndarray]]":
    """``(shard_id, indices)`` for every shard that ``ids`` routes to."""
    for shard_id in np.flatnonzero(np.bincount(ids)):
        yield int(shard_id), np.flatnonzero(ids == shard_id)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------
#
# A backend executes work on one shard.  The contract (duck-typed; the
# multi-process implementation is ``repro.serve.cluster.Cluster``):
#
#   plan: ShardPlan
#   def alive(shard_id) -> bool
#   async def execute_requests(shard_id, requests) -> list of
#       (status, position, count, batch_size, error) tuples, in order,
#       positions/counts in *local* shard coordinates
#   async def execute_bulk(shard_id, points, lows, highs)
#       -> (positions, starts, counts) ndarrays, local coordinates
#   async def swap_shard(shard_id, index_spec) -> None
#   async def shard_metrics() -> list of ServeMetrics.state() | None
#   async def stop() -> list of final states | None


class LocalBackend:
    """In-process backend: one built index per shard, no processes.

    The reference implementation of the backend contract, used by the
    property tests (split-then-gather must be bit-identical to the
    single-index oracle) and usable as a zero-dependency single-process
    emulation of the cluster.  ``kill(shard_id)`` simulates a worker
    crash for fault-injection tests.
    """

    def __init__(self, indexes: "Sequence[Any]", plan: ShardPlan) -> None:
        if len(indexes) != plan.num_shards:
            raise ValueError("one index per shard required")
        self.plan = plan
        self._indexes = list(indexes)
        self._dead: "set[int]" = set()
        self.shard_metric_objs = [ServeMetrics() for _ in indexes]

    def alive(self, shard_id: int) -> bool:
        return shard_id not in self._dead

    def kill(self, shard_id: int) -> None:
        """Simulate a worker crash: subsequent executions fail."""
        self._dead.add(shard_id)

    def _index(self, shard_id: int) -> Any:
        if shard_id in self._dead:
            raise ShardDeadError(f"shard {shard_id} worker is dead")
        return self._indexes[shard_id]

    async def execute_requests(self, shard_id: int,
                               requests: "Sequence[Request]"):
        points = np.array([r.key for r in requests if r.op == OP_LOOKUP],
                          dtype=np.uint64)
        lows = np.array([r.low for r in requests if r.op == OP_RANGE],
                        dtype=np.uint64)
        highs = np.array([r.high for r in requests if r.op == OP_RANGE],
                         dtype=np.uint64)
        index = self._index(shard_id)
        positions, starts, counts = index.serve_batch(points, lows, highs)
        metrics = self.shard_metric_objs[shard_id]
        metrics.submitted.inc(len(requests))
        metrics.record_batch(len(requests), 0)
        metrics.completed.inc(len(requests))
        out = []
        p = r = 0
        for req in requests:
            if req.op == OP_LOOKUP:
                out.append((STATUS_OK, int(positions[p]), None,
                            len(requests), None))
                p += 1
            else:
                out.append((STATUS_OK, int(starts[r]), int(counts[r]),
                            len(requests), None))
                r += 1
        return out

    async def execute_writes(self, shard_id: int, keys,
                             ops) -> "tuple[int, int]":
        """Apply a write burst to one shard; return ``(applied, live)``.

        ``live`` is the shard's post-write live cardinality -- the
        router rebuilds its global stitch offsets from these, since
        writes change shard sizes out from under the static plan.
        """
        index = self._index(shard_id)
        apply = getattr(index, "apply", None)
        if not callable(apply):
            raise TypeError(
                f"shard {shard_id} index {type(index).__name__} is not "
                "writable; wrap it in repro.writable.WritableIndex"
            )
        n = int(apply(np.asarray(keys, dtype=np.uint64),
                      np.asarray(ops, dtype=np.int8)))
        metrics = self.shard_metric_objs[shard_id]
        metrics.writes.inc(n)
        staleness = getattr(index, "staleness_s", None)
        if callable(staleness):
            metrics.staleness_s.set(float(staleness()))
        return n, len(index.keys)

    async def execute_bulk(self, shard_id: int, points, lows, highs):
        index = self._index(shard_id)
        n = len(points) + len(lows)
        metrics = self.shard_metric_objs[shard_id]
        metrics.submitted.inc(n)
        if n:
            metrics.record_batch(n, 0)
            metrics.completed.inc(n)
        return index.serve_batch(
            np.asarray(points, dtype=np.uint64),
            np.asarray(lows, dtype=np.uint64),
            np.asarray(highs, dtype=np.uint64),
        )

    async def swap_shard(self, shard_id: int, index_spec: Any) -> None:
        """Swap one shard's index; ``index_spec`` is a built index or a
        ``factory(keys)`` callable over the shard's current keys."""
        if shard_id in self._dead:
            raise ShardDeadError(f"shard {shard_id} worker is dead")
        old = self._indexes[shard_id]
        if isinstance(index_spec, str) and index_spec == "@rebuild":
            # In-place delta compaction of a writable shard (the
            # cluster's "@rebuild" swap payload, single-process form).
            old.rebuild()
            self.shard_metric_objs[shard_id].swaps.inc()
            self.shard_metric_objs[shard_id].staleness_s.reset(
                float(old.staleness_s())
            )
            return
        new = index_spec(old.keys) if callable(index_spec) else index_spec
        self._indexes[shard_id] = new
        self.shard_metric_objs[shard_id].swaps.inc()

    async def shard_metrics(self):
        return [m.state() if self.alive(i) else None
                for i, m in enumerate(self.shard_metric_objs)]

    async def stop(self):
        return await self.shard_metrics()


# ---------------------------------------------------------------------------
# Scattered range aggregation
# ---------------------------------------------------------------------------


@dataclass
class _Scatter:
    """Aggregation state of one range query fanned over several shards."""

    parent: Request
    first_shard: int
    parts_total: int
    parts_done: int = 0
    start: "int | None" = None  # global, from the first spanned shard
    count: int = 0
    batch_size: int = 0
    worst: str = STATUS_OK
    error: "str | None" = None


@dataclass
class _SubRequest(Request):
    """One shard's slice of a scattered range query."""

    scatter: "_Scatter | None" = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------------


class ShardRouter:
    """Scatter/gather front of a sharded serving tier.

    Mirrors the :class:`~repro.serve.server.IndexServer` request API
    (``lookup`` / ``range_query`` coroutines returning
    :class:`~repro.serve.batcher.Response`), so the open-loop load
    generator drives a cluster unchanged.  Additionally exposes the
    bulk lanes ``lookup_batch`` / ``range_query_batch`` used by the
    scaling benchmark, per-shard hot-swap, and the cluster-wide metrics
    roll-up.
    """

    def __init__(
        self,
        backend: Any,
        *,
        max_batch_size: int = 256,
        max_wait_s: float = 0.0005,
        max_queue: int = 4096,
        shed_policy: str = "block",
        default_timeout_s: "float | None" = None,
        metrics: "ServeMetrics | None" = None,
        samplers: "Sequence[Any] | None" = None,
    ) -> None:
        if shed_policy not in ("reject", "block"):
            raise ValueError(f"unknown shed policy {shed_policy!r}")
        self._backend = backend
        self.plan: ShardPlan = backend.plan
        # Writes change shard cardinalities out from under the static
        # plan, so global positions are stitched with *live* offsets,
        # refreshed from the counts each write reply carries.  Routing
        # still uses the plan's key boundaries (maxes), which writes
        # never move.
        self._live_counts = self.plan.shard_sizes().astype(np.int64)
        self._offsets = np.asarray(self.plan.offsets,
                                   dtype=np.int64).copy()
        self.shed_policy = shed_policy
        self.default_timeout_s = default_timeout_s
        self.metrics = metrics if metrics is not None else ServeMetrics()
        #: Optional per-shard workload samplers (:class:`~repro.autotune.
        #: sampler.WorkloadSampler`), fed each shard's dispatched batches
        #: -- shards see different traffic, so each gets its own profile
        #: and the autotuner may converge them to different configs.
        if samplers is not None and len(samplers) != backend.plan.num_shards:
            raise ValueError(
                f"samplers must match num_shards "
                f"({len(samplers)} != {backend.plan.num_shards})"
            )
        self.samplers = list(samplers) if samplers is not None else None
        self._batchers = [
            MicroBatcher(max_batch_size=max_batch_size,
                         max_wait_s=max_wait_s, max_queue=max_queue)
            for _ in range(self.plan.num_shards)
        ]
        self._dispatchers: "list[asyncio.Task]" = []
        self._inflight: "set[asyncio.Task]" = set()
        self._accepting = False

    # -- lifecycle -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    async def start(self) -> "ShardRouter":
        if self._dispatchers:
            raise RuntimeError("router is already running")
        self._accepting = True
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(i),
                                name=f"repro-route-shard{i}")
            for i in range(self.num_shards)
        ]
        return self

    async def stop(self) -> None:
        """Graceful drain: answer everything queued, then stop routing.

        Does *not* stop the backend -- the owner of the cluster (or
        LocalBackend) shuts it down after the router is quiesced.
        """
        self._accepting = False
        for batcher in self._batchers:
            batcher.close()
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers)
            self._dispatchers = []
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        for shard_id, batcher in enumerate(self._batchers):
            for req in batcher.drain_nowait():
                self._deliver(shard_id, req, STATUS_REJECTED, None, None,
                              0, "router shut down before service")

    async def __aenter__(self) -> "ShardRouter":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- request API (server-compatible) ---------------------------------

    async def lookup(self, key: int,
                     timeout_s: "float | None" = None) -> Response:
        """Global lower-bound position of ``key`` (single-shard route)."""
        request = Request(op=OP_LOOKUP, key=int(key))
        shard_id = self.plan.shard_of(int(key))
        return await self._submit_one(shard_id, request, timeout_s)

    async def range_query(self, low: int, high: int,
                          timeout_s: "float | None" = None) -> Response:
        """Global ``(start, count)`` of ``[low, high)``; scatter/gathers
        across every spanned shard and stitches the windows in key
        order."""
        if high < low:
            raise ValueError("range_query requires low <= high")
        i_lo, i_hi = self.plan.range_span(int(low), int(high))
        if i_lo == i_hi:
            request = Request(op=OP_RANGE, low=int(low), high=int(high))
            return await self._submit_one(i_lo, request, timeout_s)
        return await self._submit_scattered(i_lo, i_hi, int(low), int(high),
                                            timeout_s)

    # -- admission -------------------------------------------------------

    def _prepare(self, request: Request,
                 timeout_s: "float | None") -> None:
        now = time.monotonic()
        request.enqueued_at = now
        timeout_s = timeout_s if timeout_s is not None \
            else self.default_timeout_s
        if timeout_s is not None:
            request.deadline = now + timeout_s
        request.future = asyncio.get_running_loop().create_future()

    async def _admit(self, shard_id: int, request: Request) -> bool:
        if self.shed_policy == "reject":
            return self._batchers[shard_id].try_put(request)
        return await self._batchers[shard_id].put(request)

    async def _submit_one(self, shard_id: int, request: Request,
                          timeout_s: "float | None") -> Response:
        self._prepare(request, timeout_s)
        self.metrics.submitted.inc()
        if not self._accepting:
            return self._immediate(request, "router is not accepting "
                                   "requests")
        if not await self._admit(shard_id, request):
            return self._immediate(request, "queue full")
        return await request.future

    async def _submit_scattered(self, i_lo: int, i_hi: int, low: int,
                                high: int,
                                timeout_s: "float | None") -> Response:
        parent = Request(op=OP_RANGE, low=low, high=high)
        self._prepare(parent, timeout_s)
        self.metrics.submitted.inc()
        if not self._accepting:
            return self._immediate(parent, "router is not accepting "
                                   "requests")
        scatter = _Scatter(parent=parent, first_shard=i_lo,
                           parts_total=i_hi - i_lo + 1)
        for shard_id in range(i_lo, i_hi + 1):
            part = _SubRequest(op=OP_RANGE, low=low, high=high,
                               scatter=scatter)
            part.enqueued_at = parent.enqueued_at
            part.deadline = parent.deadline
            if not await self._admit(shard_id, part):
                # The part never reached a dispatcher; account for it
                # here.  Parts already admitted still execute and feed
                # the aggregate, which resolves once all arrive.
                self._scatter_feed(shard_id, scatter, STATUS_REJECTED,
                                   None, None, 0, "queue full")
        return await parent.future

    def _immediate(self, request: Request, reason: str) -> Response:
        response = Response(
            op=request.op,
            status=STATUS_REJECTED,
            latency_s=time.monotonic() - request.enqueued_at,
            error=reason,
        )
        self.metrics.record_response(response.status, response.latency_s)
        return response

    # -- dispatch --------------------------------------------------------

    async def _dispatch_loop(self, shard_id: int) -> None:
        batcher = self._batchers[shard_id]
        while True:
            batch = await batcher.collect()
            if batch is None:
                return
            self.metrics.record_batch(len(batch), batcher.depth())
            now = time.monotonic()
            live: "list[Request]" = []
            for req in batch:
                if req.expired(now):
                    self._deliver(shard_id, req, STATUS_TIMEOUT, None,
                                  None, len(batch),
                                  "deadline expired before dispatch")
                else:
                    live.append(req)
            if not live:
                continue
            sampler = (self.samplers[shard_id]
                       if self.samplers is not None else None)
            if sampler is not None:
                sampler.observe(
                    np.array([r.key for r in live if r.op == OP_LOOKUP],
                             dtype=np.uint64),
                    np.array([r.low for r in live if r.op == OP_RANGE],
                             dtype=np.uint64),
                    np.array([r.high for r in live if r.op == OP_RANGE],
                             dtype=np.uint64),
                )
            if not self._backend.alive(shard_id):
                for req in live:
                    self._deliver(shard_id, req, STATUS_ERROR, None, None,
                                  0, f"shard {shard_id} worker is dead")
                continue
            # Fire and track without awaiting the reply inline: frames
            # pipeline per shard, and the worker's own micro-batcher
            # coalesces requests across frames.
            task = asyncio.create_task(
                self._finish(shard_id, live,
                             self._backend.execute_requests(shard_id,
                                                            live))
            )
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _finish(self, shard_id: int, live: "list[Request]",
                      reply: Any) -> None:
        try:
            results = await reply
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
            for req in live:
                self._deliver(shard_id, req, STATUS_ERROR, None, None, 0,
                              reason)
            return
        for req, (status, pos, count, batch_size, err) in zip(live,
                                                              results):
            self._deliver(shard_id, req, status, pos, count, batch_size,
                          err)

    # -- delivery / stitching --------------------------------------------

    def _deliver(self, shard_id: int, request: Request, status: str,
                 position: "int | None", count: "int | None",
                 batch_size: int, error: "str | None") -> None:
        """Resolve one dispatched request with shard-local results."""
        scatter = getattr(request, "scatter", None)
        if scatter is not None:
            self._scatter_feed(shard_id, scatter, status, position, count,
                               batch_size, error)
            return
        if status == STATUS_OK and position is not None:
            position = int(position) + int(self._offsets[shard_id])
        self._resolve(request, Response(
            op=request.op,
            status=status,
            position=position if status == STATUS_OK else None,
            count=count if status == STATUS_OK else None,
            latency_s=time.monotonic() - request.enqueued_at,
            batch_size=batch_size,
            error=error,
        ))

    def _scatter_feed(self, shard_id: int, scatter: _Scatter, status: str,
                      position: "int | None", count: "int | None",
                      batch_size: int, error: "str | None") -> None:
        """Fold one shard's window into a scattered range aggregate."""
        scatter.parts_done += 1
        scatter.batch_size = max(scatter.batch_size, batch_size)
        if status == STATUS_OK:
            scatter.count += int(count or 0)
            if shard_id == scatter.first_shard:
                scatter.start = (int(position)
                                 + int(self._offsets[shard_id]))
        elif _STATUS_RANK[status] > _STATUS_RANK[scatter.worst]:
            scatter.worst = status
            scatter.error = error
        if scatter.parts_done < scatter.parts_total:
            return
        parent = scatter.parent
        if scatter.worst == STATUS_OK:
            response = Response(
                op=OP_RANGE,
                status=STATUS_OK,
                position=scatter.start,
                count=scatter.count,
                latency_s=time.monotonic() - parent.enqueued_at,
                batch_size=scatter.batch_size,
            )
        else:
            response = Response(
                op=OP_RANGE,
                status=scatter.worst,
                latency_s=time.monotonic() - parent.enqueued_at,
                batch_size=scatter.batch_size,
                error=scatter.error,
            )
        self._resolve(parent, response)

    def _resolve(self, request: Request, response: Response) -> None:
        self.metrics.record_response(response.status, response.latency_s)
        if request.future is not None and not request.future.done():
            request.future.set_result(response)

    # -- bulk scatter/gather lanes ---------------------------------------

    async def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Split a whole point batch by shard boundary, scatter, gather.

        The scaling benchmark's lane: one backend call per touched
        shard, results gathered back into query order with shard
        offsets applied.  Raises :class:`ShardDeadError` (or the
        backend's failure) if any touched shard cannot answer.
        """
        queries = np.ascontiguousarray(queries, dtype=np.uint64)
        out = np.empty(len(queries), dtype=np.int64)
        if not len(queries):
            return out
        ids = self.plan.route_points(queries)

        async def one(shard_id: int, idx: np.ndarray) -> None:
            if self.samplers is not None \
                    and self.samplers[shard_id] is not None:
                self.samplers[shard_id].observe(queries[idx], _EMPTY_U64,
                                                _EMPTY_U64)
            positions, _, _ = await self._backend.execute_bulk(
                shard_id, queries[idx], _EMPTY_U64, _EMPTY_U64
            )
            out[idx] = (np.asarray(positions, dtype=np.int64)
                        + int(self._offsets[shard_id]))

        await asyncio.gather(*(one(s, idx) for s, idx in _by_shard(ids)))
        return out

    async def range_query_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Bulk ranges: per-shard sub-windows stitched in key order."""
        lows = np.ascontiguousarray(lows, dtype=np.uint64)
        highs = np.ascontiguousarray(highs, dtype=np.uint64)
        if len(lows) != len(highs):
            raise ValueError("range_query_batch needs equal-length bounds")
        if np.any(highs < lows):
            raise ValueError("range_query_batch requires low <= high")
        m = len(lows)
        starts_out = np.zeros(m, dtype=np.int64)
        counts_out = np.zeros(m, dtype=np.int64)
        if not m:
            return starts_out, counts_out
        first = self.plan.route_points(lows)
        last = self.plan.route_points(highs)

        async def one(shard_id: int, sel: np.ndarray) -> None:
            if self.samplers is not None \
                    and self.samplers[shard_id] is not None:
                self.samplers[shard_id].observe(_EMPTY_U64, lows[sel],
                                                highs[sel])
            _, starts, counts = await self._backend.execute_bulk(
                shard_id, _EMPTY_U64, lows[sel], highs[sel]
            )
            starts = np.asarray(starts, dtype=np.int64)
            counts = np.asarray(counts, dtype=np.int64)
            counts_out[sel] += counts
            owns = first[sel] == shard_id
            starts_out[sel[owns]] = (starts[owns]
                                     + int(self._offsets[shard_id]))

        # One mask per spanned shard; a shard no range touches gets no
        # call (it may be dead while every range avoids it).
        spans = ((s, np.flatnonzero((first <= s) & (last >= s)))
                 for s in range(int(first.min()), int(last.max()) + 1))
        await asyncio.gather(*(one(s, sel) for s, sel in spans if len(sel)))
        return starts_out, counts_out

    # -- write lane ------------------------------------------------------

    async def apply_writes(self, keys: np.ndarray,
                           ops: np.ndarray) -> int:
        """Scatter one ordered write burst to its owning shards.

        Keys route by the plan's static boundaries (``maxes``), which
        writes never move -- a fresh key beyond every boundary lands on
        the last shard, preserving global key order across shards.  The
        per-shard sub-streams preserve the burst's op order, and every
        reply's live count refreshes the stitch offsets, so reads
        issued after this call resolves see consistent global
        positions.  Requires every touched shard's index to be a
        :class:`~repro.writable.WritableIndex` (or expose ``apply``).
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        ops = np.ascontiguousarray(ops, dtype=np.int8)
        if len(keys) != len(ops):
            raise ValueError("apply_writes needs equal-length keys/ops")
        if not len(keys):
            return 0
        ids = self.plan.route_points(keys)

        async def one(shard_id: int, idx: np.ndarray) -> int:
            applied, live = await self._backend.execute_writes(
                shard_id, keys[idx], ops[idx]
            )
            self._live_counts[shard_id] = int(live)
            return int(applied)

        applied = await asyncio.gather(*(
            one(s, idx) for s, idx in _by_shard(ids)
        ))
        self._offsets = np.concatenate((
            np.zeros(1, dtype=np.int64),
            np.cumsum(self._live_counts, dtype=np.int64),
        ))
        total = int(sum(applied))
        self.metrics.writes.inc(total)
        return total

    # -- shard management / metrics --------------------------------------

    async def swap_shard(self, shard_id: int, index_spec: Any) -> None:
        """Hot-swap one shard's index via the worker swap protocol.

        Zero-loss: the worker's ``swap_index`` applies to batches
        dispatched after the swap; everything in flight completes
        against the index it captured.
        """
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"no shard {shard_id}")
        await self._backend.swap_shard(shard_id, index_spec)
        self.metrics.swaps.inc()

    async def cluster_metrics(self) -> "dict[str, Any]":
        """Router + per-shard + rolled-up cluster-wide metrics view.

        ``cluster`` merges every live shard's histograms bin-by-bin, so
        its p50/p95/p99 reflect the union of all shard observations;
        ``router`` is the end-to-end (client-observed) view including
        routing and transport time.
        """
        states = await self._backend.shard_metrics()
        shards = []
        for shard_id, state in enumerate(states):
            if state is None:
                shards.append({"shard": shard_id, "alive": False})
            else:
                snap = ServeMetrics.from_state(state).snapshot()
                shards.append({"shard": shard_id, "alive": True,
                               "metrics": snap})
        rolled = rollup_states([s for s in states if s is not None])
        return {
            "num_shards": self.num_shards,
            "shard_sizes": [int(x) for x in self._live_counts],
            "router": self.metrics.snapshot(),
            "shards": shards,
            "cluster": rolled.snapshot(),
        }
