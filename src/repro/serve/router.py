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

**One request lane.**  ``lookup`` / ``range_query`` queue on one
:class:`~repro.serve.batcher.MicroBatcher`; admission, deadlines and
resolution are :class:`~repro.serve.server.RequestFront`'s, the code
:class:`~repro.serve.server.IndexServer` runs.  Each collected batch
answers its expired requests ``timeout`` and sends the rest as
``(points, lows, highs)`` arrays through the one split behind
``lookup_batch`` / ``range_query_batch``: every touched shard gets one
part, the points it owns and the ranges that span it (in the cluster:
one ``bulk`` frame per shard and event-loop pass).  A shard that fails
answers ``error`` to the requests routed to it and only to those -- a
range fails if any shard it spans fails -- while the bulk methods raise
its exception.  Batching happens once, here: ``max_queue`` bounds the
router's one queue, ``Response.batch_size`` is the router batch's size,
and a request that expires after its batch was dispatched is still
answered.

**One shard handler.**  :func:`answer_shard` answers every shard call
(``bulk``, ``write``, ``swap``, ``metrics``, ``describe``) on the
shard's :class:`~repro.serve.server.IndexServer` -- in a cluster worker
for every pipe message but ``stop`` and ``die``, in
:class:`LocalBackend` for every call -- and no other code answers one.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from .batcher import STATUS_ERROR, MicroBatcher, Request
from .metrics import ServeMetrics, rollup_states
from .server import SHED_POLICIES, IndexServer, RequestFront

__all__ = [
    "ShardPlan",
    "plan_shards",
    "ShardDeadError",
    "answer_shard",
    "LocalBackend",
    "ShardRouter",
]

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)


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
#   async def execute_bulk(shard_id, points, lows, highs)
#       -> (positions, starts, counts) ndarrays, local coordinates (the
#       ``bulk`` call; a backend may batch parts into one call)
#   async def call(shard_id, kind, payload) -> answer_shard's reply;
#       raises (ShardDeadError for a dead shard) when it cannot answer
#   async def shard_metrics() -> list of ServeMetrics.state() | None
#   async def stop() -> list of final states | None


async def answer_shard(server: IndexServer, kind: str, payload: Any) -> Any:
    """Answer one shard call on the shard's ``server``.

    The only code that answers one, in a cluster worker and in
    :class:`LocalBackend` alike:

    * ``bulk`` -- a ``(points, lows, highs)`` batch, served by
      :meth:`~repro.serve.server.IndexServer.serve_bulk`;
    * ``write`` -- a ``(keys, ops)`` burst applied by
      :meth:`~repro.serve.server.IndexServer.apply_writes`; the reply
      ``(applied, live)`` carries the shard's live cardinality, from
      which the router restitches its global offsets;
    * ``swap`` -- a ``factory(keys)`` or ``None``: the shard's
      :meth:`~repro.serve.server.IndexServer.rebuild`, whose reply is
      the factory of what it served before;
    * ``metrics`` -- the server's full-fidelity
      :meth:`~repro.serve.metrics.ServeMetrics.state`;
    * ``describe`` -- ``(IndexFactory.of(base), live keys)``: what the
      shard serves (the base of a writable index) and over which keys.
    """
    if kind == "bulk":
        return await server.serve_bulk(*payload)
    if kind == "write":
        applied = await server.apply_writes(*payload)
        return applied, server.index.n
    if kind == "swap":
        return await server.rebuild(payload)
    if kind == "metrics":
        return server.metrics.state()
    if kind == "describe":
        from ..writable import IndexFactory, WritableIndex

        index = server.index
        base = index.base if isinstance(index, WritableIndex) else index
        return IndexFactory.of(base), np.asarray(index.keys)
    raise ValueError(f"unknown shard call {kind!r}")


class LocalBackend:
    """In-process backend: one :class:`~repro.serve.server.IndexServer`
    per shard, no processes.

    The reference implementation of the backend contract, used by the
    property tests (split-then-gather must be bit-identical to the
    single-index oracle) and usable as a zero-dependency single-process
    emulation of the cluster.  Every call is :func:`answer_shard` on the
    shard's server, as in a worker; a server starts on its shard's first
    call, and :meth:`stop` stops them.  ``kill(shard_id)`` simulates a
    worker crash for fault-injection tests.
    """

    def __init__(self, indexes: "Sequence[Any]", plan: ShardPlan) -> None:
        if len(indexes) != plan.num_shards:
            raise ValueError("one index per shard required")
        self.plan = plan
        self._servers = [IndexServer(index) for index in indexes]
        #: Each shard server's metrics.
        self.shard_metric_objs = [server.metrics for server in self._servers]
        self._dead: "set[int]" = set()

    def alive(self, shard_id: int) -> bool:
        return shard_id not in self._dead

    def kill(self, shard_id: int) -> None:
        """Simulate a worker crash: subsequent executions fail."""
        self._dead.add(shard_id)

    async def call(self, shard_id: int, kind: str, payload: Any) -> Any:
        if shard_id in self._dead:
            raise ShardDeadError(f"shard {shard_id} worker is dead")
        server = self._servers[shard_id]
        if not server.running:
            await server.start()
        return await answer_shard(server, kind, payload)

    async def execute_bulk(self, shard_id: int, points, lows, highs):
        return await self.call(shard_id, "bulk", (points, lows, highs))

    async def shard_metrics(self):
        return [await self.call(i, "metrics", None) if self.alive(i)
                else None for i in range(self.plan.num_shards)]

    async def stop(self):
        states = await self.shard_metrics()
        for server in self._servers:
            if server.running:
                await server.stop()
        return states


# ---------------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------------


class ShardRouter(RequestFront):
    """Scatter/gather front of a sharded serving tier.

    Serves the :class:`~repro.serve.server.IndexServer` request API
    (``lookup`` / ``range_query`` coroutines returning
    :class:`~repro.serve.batcher.Response`, from the shared
    :class:`~repro.serve.server.RequestFront`), so the open-loop load
    generator drives a cluster unchanged.  Additionally exposes the
    bulk lanes ``lookup_batch`` / ``range_query_batch`` used by the
    scaling benchmark, per-shard hot-swap, and the cluster-wide metrics
    roll-up.
    """

    _role = "router"

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
        if shed_policy not in SHED_POLICIES:
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
        #: sampler.WorkloadSampler`), fed each shard's part of every
        #: dispatched batch -- shards see different traffic, so each gets
        #: its own profile and the autotuner may converge them to
        #: different configs.
        if samplers is not None and len(samplers) != backend.plan.num_shards:
            raise ValueError(
                f"samplers must match num_shards "
                f"({len(samplers)} != {backend.plan.num_shards})"
            )
        self.samplers = list(samplers) if samplers is not None else None
        self.batcher = MicroBatcher(max_batch_size=max_batch_size,
                                    max_wait_s=max_wait_s,
                                    max_queue=max_queue)
        #: The one batcher, as a list: servebench reads its knobs here.
        self._batchers = [self.batcher]
        self._dispatcher: "asyncio.Task | None" = None
        self._inflight: "set[asyncio.Task]" = set()
        self._accepting = False

    # -- lifecycle -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    async def start(self) -> "ShardRouter":
        if self._dispatcher is not None:
            raise RuntimeError("router is already running")
        self._accepting = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop(),
                                               name="repro-route")
        return self

    async def stop(self) -> None:
        """Graceful drain: answer everything queued, then stop routing.

        Does *not* stop the backend -- the owner of the cluster (or
        LocalBackend) shuts it down after the router is quiesced.
        """
        self._accepting = False
        self.batcher.close()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        self._reject_queued()

    async def __aenter__(self) -> "ShardRouter":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- dispatch --------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            batch = await self.batcher.collect()
            if batch is None:
                return
            live = self._open_batch(batch)
            if live is None:
                continue
            # Not awaited inline: the next batch is collected while this
            # one's parts are in flight.
            task = asyncio.create_task(self._serve(len(batch), *live))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _serve(self, size: int, requests: "list[Request]",
                     points: np.ndarray, lows: np.ndarray,
                     highs: np.ndarray) -> None:
        """Send one opened batch through the split, then answer
        ``error`` to the requests a failed shard owed and ``ok`` to the
        rest."""
        positions, starts, counts, failures = await self._split(
            points, lows, highs)
        done = time.monotonic()
        if failures:
            n = len(points)
            failed = np.zeros(len(requests), dtype=bool)
            for idx, exc in failures:
                fresh = idx[~failed[idx]]
                failed[fresh] = True
                self._resolve_all([requests[i] for i in fresh.tolist()],
                                  STATUS_ERROR, done, size,
                                  error=f"{type(exc).__name__}: {exc}")
            ok = ~failed
            requests = [r for r, keep in zip(requests, ok.tolist()) if keep]
            positions = positions[ok[:n]]
            starts, counts = starts[ok[n:]], counts[ok[n:]]
        self._resolve_ok(requests, done, size, positions, starts, counts)

    # -- bulk scatter/gather lanes ---------------------------------------

    async def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Split a whole point batch by shard boundary, scatter, gather.

        The scaling benchmark's lane: one backend call per touched
        shard, results gathered back into query order with shard
        offsets applied.  Raises :class:`ShardDeadError` (or the
        backend's failure) if any touched shard cannot answer.
        """
        positions, _, _, failures = await self._split(
            np.ascontiguousarray(queries, dtype=np.uint64),
            _EMPTY_U64, _EMPTY_U64)
        if failures:
            raise failures[0][1]
        return positions

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
        _, starts, counts, failures = await self._split(_EMPTY_U64, lows,
                                                        highs)
        if failures:
            raise failures[0][1]
        return starts, counts

    async def _split(
        self, points: np.ndarray, lows: np.ndarray, highs: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, list]":
        """Global ``(positions, starts, counts)`` of one batch, and its
        failures.

        Every touched shard gets one backend call: the points it owns
        and the ranges that span it, each range with the same bounds on
        every shard it spans (stitched in key order).  No shard that
        nothing touches is called -- it may be dead while every request
        avoids it.  A shard that fails leaves its answers unset and adds
        ``(indices into points + ranges, its exception)`` to the list
        returned beside them.
        """
        n, m = len(points), len(lows)
        positions = np.empty(n, dtype=np.int64)
        starts = np.zeros(m, dtype=np.int64)
        counts = np.zeros(m, dtype=np.int64)
        failures: "list[tuple[np.ndarray, Exception]]" = []
        # The bulk lanes send one side only; an empty side does no work
        # (each NumPy call costs about a microsecond even on an empty
        # array, and on one CPU the router's time is the cluster's).
        point_idx = dict(_by_shard(self.plan.route_points(points))) \
            if n else {}
        range_idx: "dict[int, np.ndarray]" = {}
        first = _EMPTY_I64
        if m:
            first = self.plan.route_points(lows)
            last = self.plan.route_points(highs)
            for shard_id in range(int(first.min()), int(last.max()) + 1):
                sel = np.flatnonzero((first <= shard_id) & (last >= shard_id))
                if len(sel):
                    range_idx[shard_id] = sel

        async def one(shard_id: int) -> None:
            pidx = point_idx.get(shard_id, _EMPTY_I64)
            ridx = range_idx.get(shard_id, _EMPTY_I64)
            part = (points[pidx], lows[ridx], highs[ridx])
            if self.samplers is not None \
                    and self.samplers[shard_id] is not None:
                self.samplers[shard_id].observe(*part)
            try:
                got, local_starts, local_counts = \
                    await self._backend.execute_bulk(shard_id, *part)
            except Exception as exc:  # this shard failed, not the batch
                failures.append((np.concatenate((pidx, ridx + n)), exc))
                return
            offset = int(self._offsets[shard_id])
            if len(pidx):
                positions[pidx] = np.asarray(got, dtype=np.int64) + offset
            if len(ridx):
                counts[ridx] += np.asarray(local_counts, dtype=np.int64)
                owns = first[ridx] == shard_id
                starts[ridx[owns]] = (np.asarray(local_starts,
                                                 dtype=np.int64)[owns]
                                      + offset)

        await asyncio.gather(*(one(shard_id) for shard_id
                               in sorted(point_idx.keys() | range_idx)))
        return positions, starts, counts, failures

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
            applied, live = await self._backend.call(
                shard_id, "write", (keys[idx], ops[idx]))
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

    async def swap_shard(self, shard_id: int, spec: Any) -> Any:
        """Rebuild one shard's index over its live keys and hot-swap it.

        ``spec`` is a ``factory(keys)``, an index type name, or
        ``"@rebuild"`` for the shard's own factory; the backend gets a
        factory or ``None`` and runs the shard server's
        :meth:`~repro.serve.server.IndexServer.rebuild`.  Zero-loss, and
        a writable shard keeps its writes.  Returns the shard's previous
        factory (the token that undoes the swap).
        """
        if isinstance(spec, str):
            from ..baselines import INDEX_TYPES
            from ..writable.rebuild import IndexFactory

            spec = None if spec == "@rebuild" \
                else IndexFactory(INDEX_TYPES[spec])
        previous = await self.call_shard(shard_id, "swap", spec)
        self.metrics.swaps.inc()
        return previous

    async def call_shard(self, shard_id: int, kind: str,
                         payload: Any = None) -> Any:
        """One :func:`answer_shard` call on shard ``shard_id``, wherever
        the shard lives (``describe`` and ``metrics`` are the tuner's);
        raises :class:`ShardDeadError` for a dead shard."""
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"no shard {shard_id}")
        return await self._backend.call(shard_id, kind, payload)

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
