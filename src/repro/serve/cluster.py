"""Multi-process worker tier of the range-sharded serving cluster.

:class:`Cluster` spawns one OS process per shard.  Each worker runs the
*existing* serving stack -- an :class:`~repro.serve.server.IndexServer`
whose micro-batcher coalesces everything arriving over the control pipe
into fused ``serve_batch`` calls -- over its contiguous slice of the
keyspace, with the dataset and the built index resolved through the
artifact cache when one is active (workers activate it themselves via
the spec's ``cache_dir``).  The parent side implements the backend
contract :class:`~repro.serve.router.ShardRouter` routes through.

**Wire protocol** (pickled tuples over a ``multiprocessing.Pipe``)::

    parent -> worker   (kind, msg_id, payload)
    worker -> parent   (msg_id, ok, payload)

Kinds: ``reqs`` (a frame of point/range requests, served through the
worker's micro-batcher), ``bulk`` (a pre-formed array batch, served via
:meth:`IndexServer.serve_bulk`; one frame may carry several callers'
parts, see below), ``write`` (a key/op burst applied to a
writable shard via :meth:`IndexServer.apply_writes`; the reply carries
the shard's post-write live cardinality for the router's offset
stitching), ``swap`` (rebuild + zero-loss ``swap_index``; the
``"@rebuild"`` payload compacts a writable shard's delta in place
instead of replacing the index), ``metrics`` (full-fidelity
:meth:`~repro.serve.metrics.ServeMetrics.state`), ``stop`` (graceful
drain: every in-flight frame finishes, the server drains, the final
metrics state comes back), and ``die`` (fault injection: the worker
``os._exit``\\ s without cleanup, simulating a crash).

**Bulk outbox**: a pipe frame costs far more than the bytes it carries,
so :meth:`Cluster.execute_bulk` does not send at once.  It queues its
``(points, lows, highs)`` part on the shard's outbox, and the first
part queued in an event-loop pass schedules one flush (``call_soon``)
that sends every queued part as a single ``bulk`` frame of concatenated
arrays and slices the reply back to each caller.  The worker serves
that frame as one ``serve_bulk``.  Any other message to a shard flushes
its outbox first, so the pipe carries messages in call order; a failed
frame fails every part in it with the same exception.

**Failure model**: one reader thread per worker pushes replies onto the
event loop; EOF on the pipe -- graceful exit *or* SIGKILL -- marks the
shard dead and fails every pending reply future with
:class:`~repro.serve.router.ShardDeadError`, which the router turns
into per-request ``error`` responses.  A dead shard never hangs the
router, and the remaining shards keep serving.

Deadlines cross the process boundary as absolute ``time.monotonic()``
values; on Linux that clock is system-wide, so the worker's dispatcher
applies the same expiry rule as a single-process server.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import logging
import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .batcher import OP_LOOKUP, OP_RANGE
from .router import ShardDeadError, ShardPlan, plan_shards
from .server import IndexServer

__all__ = ["WorkerSpec", "Cluster", "cluster_for_dataset"]

log = logging.getLogger("repro.serve.cluster")

#: msg_id of the unsolicited ready message every worker sends first.
_READY_ID = 0


@dataclass
class WorkerSpec:
    """Everything one worker needs to build and serve its shard.

    The key slice arrives either directly (``keys``, cheap under fork
    thanks to copy-on-write) or through the artifact cache: with
    ``cache_dir`` set and ``keys`` omitted, the worker activates the
    cache and loads ``dataset(dataset, n, seed)`` as an mmap, slicing
    ``[lo, hi)`` out of it -- the parent never pickles the data.
    ``index_factory`` overrides ``index_type`` for tests that need a
    custom index class.
    """

    shard_id: int
    lo: int
    hi: int
    index_type: str = "binary-search"
    keys: "np.ndarray | None" = None
    dataset: "str | None" = None
    n: int = 0
    seed: int = 42
    cache_dir: "str | None" = None
    index_factory: "Callable[[np.ndarray], Any] | None" = field(
        default=None, repr=False
    )


@dataclass
class WorkerOptions:
    """Per-worker ``IndexServer`` tuning (picklable)."""

    max_batch_size: int = 512
    max_wait_s: float = 0.001
    max_queue: int = 8192


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _shard_keys(spec: WorkerSpec) -> np.ndarray:
    if spec.keys is not None:
        return np.ascontiguousarray(spec.keys, dtype=np.uint64)
    if spec.dataset is None:
        raise ValueError("WorkerSpec needs either keys or a dataset")
    from .. import cache as artifact_cache

    if spec.cache_dir is not None:
        artifact_cache.activate(spec.cache_dir)
    full = artifact_cache.dataset(spec.dataset, spec.n, spec.seed)
    return np.ascontiguousarray(full[spec.lo:spec.hi], dtype=np.uint64)


def _build_index(spec: WorkerSpec, keys: np.ndarray,
                 index_type: "str | None" = None,
                 factory: "Callable | None" = None) -> Any:
    """Build (or restore from the artifact cache) this shard's index."""
    from ..baselines import INDEX_TYPES

    factory = factory if factory is not None else spec.index_factory
    if factory is not None:
        return factory(keys)
    name = index_type if index_type is not None else spec.index_type
    cls = INDEX_TYPES[name]
    if spec.cache_dir is not None and spec.dataset is not None:
        from .. import cache as artifact_cache

        artifact_cache.activate(spec.cache_dir)
        return artifact_cache.index_for(
            spec.dataset, spec.n, spec.seed, name,
            {"shard_lo": spec.lo, "shard_hi": spec.hi},
            lambda _full: cls(keys), cls=cls,
        )
    return cls(keys)


def _worker_main(conn, spec: WorkerSpec, opts: WorkerOptions) -> None:
    """Worker process entry point: build the shard, serve the pipe."""
    try:
        keys = _shard_keys(spec)
        index = _build_index(spec, keys)
    except Exception as exc:  # startup failure: report, don't hang
        try:
            conn.send((_READY_ID, False, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    try:
        asyncio.run(_worker_serve(conn, spec, keys, index, opts))
    finally:
        try:
            conn.close()
        except OSError:
            pass


async def _worker_serve(conn, spec: WorkerSpec, keys: np.ndarray,
                        index: Any, opts: WorkerOptions) -> None:
    server = IndexServer(
        index,
        max_batch_size=opts.max_batch_size,
        max_wait_s=opts.max_wait_s,
        max_queue=opts.max_queue,
        shed_policy="block",  # backpressure into the pipe, never shed
    )
    loop = asyncio.get_running_loop()
    recv_pool = ThreadPoolExecutor(
        max_workers=1, thread_name_prefix=f"shard{spec.shard_id}-recv"
    )
    frames: "set[asyncio.Task]" = set()
    stop_id: "int | None" = None
    async with server:
        conn.send((_READY_ID, True,
                   {"shard": spec.shard_id, "n": len(keys),
                    "pid": os.getpid()}))
        while True:
            try:
                msg = await loop.run_in_executor(recv_pool, conn.recv)
            except (EOFError, OSError):
                break  # parent went away: drain and exit
            kind, msg_id, payload = msg
            if kind == "stop":
                stop_id = msg_id
                break
            if kind == "die":
                os._exit(17)  # fault injection: crash, no cleanup
            if kind == "reqs":
                task = asyncio.create_task(
                    _serve_frame(server, conn, msg_id, payload)
                )
            elif kind == "bulk":
                task = asyncio.create_task(
                    _serve_bulk_frame(server, conn, msg_id, payload)
                )
            elif kind == "write":
                task = asyncio.create_task(
                    _write_frame(server, conn, msg_id, payload)
                )
            elif kind == "swap":
                task = asyncio.create_task(
                    _swap_frame(server, conn, msg_id, spec, keys, payload)
                )
            elif kind == "metrics":
                conn.send((msg_id, True, server.metrics.state()))
                continue
            else:
                conn.send((msg_id, False, f"unknown message kind {kind!r}"))
                continue
            frames.add(task)
            task.add_done_callback(frames.discard)
        # Graceful drain: finish every in-flight frame (their requests
        # resolve through the still-running server), then the context
        # exit drains the server itself.
        if frames:
            await asyncio.gather(*frames, return_exceptions=True)
        final_state = server.metrics.state()
    if stop_id is not None:
        try:
            conn.send((stop_id, True, final_state))
        except (OSError, BrokenPipeError):
            pass
    recv_pool.shutdown(wait=False)


async def _serve_frame(server: IndexServer, conn, msg_id: int,
                       items: "list[tuple]") -> None:
    """Serve one frame of requests through the worker's micro-batcher."""
    coros = []
    now = time.monotonic()
    for op, key, low, high, deadline in items:
        timeout_s = None if deadline is None else max(deadline - now, 0.0)
        if op == OP_LOOKUP:
            coros.append(server.lookup(key, timeout_s=timeout_s))
        else:
            coros.append(server.range_query(low, high, timeout_s=timeout_s))
    try:
        responses = await asyncio.gather(*coros)
        payload = [(r.status, r.position, r.count, r.batch_size, r.error)
                   for r in responses]
        conn.send((msg_id, True, payload))
    except Exception as exc:
        _send_error(conn, msg_id, exc)


async def _serve_bulk_frame(server: IndexServer, conn, msg_id: int,
                            payload: "tuple") -> None:
    points, lows, highs = payload
    try:
        positions, starts, counts = await server.serve_bulk(points, lows,
                                                            highs)
        conn.send((msg_id, True, (positions, starts, counts)))
    except Exception as exc:
        _send_error(conn, msg_id, exc)


async def _write_frame(server: IndexServer, conn, msg_id: int,
                       payload: "tuple") -> None:
    """Apply one write burst; reply ``(applied, live_cardinality)``."""
    keys, ops = payload
    try:
        applied = await server.apply_writes(keys, ops)
        conn.send((msg_id, True, (applied, len(server.index.keys))))
    except Exception as exc:
        _send_error(conn, msg_id, exc)


async def _swap_frame(server: IndexServer, conn, msg_id: int,
                      spec: WorkerSpec, keys: np.ndarray,
                      payload: Any) -> None:
    """Rebuild this shard's index and hot-swap it (zero-loss)."""
    loop = asyncio.get_running_loop()
    try:
        if isinstance(payload, str) and payload == "@rebuild":
            # Compact a writable shard's delta into its base and re-arm
            # the serving metrics through the normal swap protocol.
            windex = server.index
            rebuild = getattr(windex, "rebuild", None)
            if not callable(rebuild):
                raise TypeError(
                    f"shard index {type(windex).__name__} is not "
                    "writable; '@rebuild' needs a WritableIndex"
                )
            await loop.run_in_executor(None, rebuild)
            server.swap_index(windex)
            conn.send((msg_id, True, "@rebuild"))
            return
        if callable(payload):
            new_index = await loop.run_in_executor(None, payload, keys)
        else:
            new_index = await loop.run_in_executor(
                None, _build_index, spec, keys, str(payload)
            )
        server.swap_index(new_index)
        conn.send((msg_id, True, getattr(new_index, "name",
                                         type(new_index).__name__)))
    except Exception as exc:
        _send_error(conn, msg_id, exc)


def _send_error(conn, msg_id: int, exc: Exception) -> None:
    try:
        conn.send((msg_id, False, f"{type(exc).__name__}: {exc}"))
    except (OSError, BrokenPipeError):
        pass


# ---------------------------------------------------------------------------
# Parent-side cluster handle (the router's process backend)
# ---------------------------------------------------------------------------


class Cluster:
    """N shard workers behind pipes; the multi-process router backend.

    Build either from an explicit key array (tests) or a dataset spec
    (CLI/benchmarks, optionally through the artifact cache)::

        cluster = Cluster(keys=keys, num_shards=4, index_type="rmi")
        async with cluster:
            async with ShardRouter(cluster) as router:
                ...

    ``kill_shard`` SIGKILLs one worker -- the fault-injection hook the
    test suite and the CI smoke use.
    """

    def __init__(
        self,
        *,
        num_shards: int,
        index_type: str = "binary-search",
        keys: "np.ndarray | None" = None,
        dataset: "str | None" = None,
        n: int = 0,
        seed: int = 42,
        cache_dir: "str | None" = None,
        worker_opts: "WorkerOptions | None" = None,
        index_factory: "Callable[[np.ndarray], Any] | None" = None,
        mp_method: "str | None" = None,
        ship_keys: "bool | None" = None,
    ) -> None:
        if keys is None:
            if dataset is None:
                raise ValueError("Cluster needs keys or a dataset spec")
            from .. import cache as artifact_cache

            if cache_dir is not None:
                artifact_cache.activate(cache_dir)
            keys = artifact_cache.dataset(dataset, n, seed)
        self.keys = np.ascontiguousarray(keys, dtype=np.uint64)
        self.plan: ShardPlan = plan_shards(self.keys, num_shards)
        self.index_type = index_type
        self._dataset = dataset
        self._n = int(n)
        self._seed = int(seed)
        self._cache_dir = cache_dir
        self._opts = worker_opts if worker_opts is not None \
            else WorkerOptions()
        self._index_factory = index_factory
        # Fork shares the parent's key array copy-on-write and skips
        # re-importing numpy per worker; spawn stays available for
        # platforms (or tests) that need it.
        self._ctx = mp.get_context(
            mp_method if mp_method is not None
            else ("fork" if "fork" in mp.get_all_start_methods()
                  else "spawn")
        )
        # Ship key slices in the spec unless the workers can load the
        # dataset from the artifact cache themselves.
        self._ship_keys = ship_keys if ship_keys is not None \
            else not (cache_dir is not None and dataset is not None)
        self._procs: "list[mp.process.BaseProcess]" = []
        self._conns: "list[Any]" = []
        self._readers: "list[threading.Thread]" = []
        self._alive: "list[bool]" = []
        self._pending: "list[dict[int, asyncio.Future]]" = []
        #: Per shard: bulk parts ``(points, lows, highs, future)``
        #: queued for the next flush (see the module docstring).
        self._outbox: "list[list[tuple]]" = [
            [] for _ in range(self.plan.num_shards)
        ]
        self._ids = itertools.count(_READY_ID + 1)
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self.worker_info: "list[dict | None]" = []

    # -- lifecycle -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def alive(self, shard_id: int) -> bool:
        return bool(self._alive[shard_id])

    def alive_count(self) -> int:
        return sum(self._alive)

    async def start(self) -> "Cluster":
        if self._procs:
            raise RuntimeError("cluster is already running")
        self._loop = asyncio.get_running_loop()
        ready: "list[asyncio.Future]" = []
        # Spawn every worker before starting any reader thread: forking
        # a process that already carries extra threads is fragile.
        for shard_id in range(self.num_shards):
            lo = int(self.plan.offsets[shard_id])
            hi = int(self.plan.offsets[shard_id + 1])
            spec = WorkerSpec(
                shard_id=shard_id, lo=lo, hi=hi,
                index_type=self.index_type,
                keys=self.keys[lo:hi] if self._ship_keys else None,
                dataset=self._dataset, n=self._n, seed=self._seed,
                cache_dir=self._cache_dir,
                index_factory=self._index_factory,
            )
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main, args=(child_conn, spec, self._opts),
                name=f"repro-shard-{shard_id}", daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._alive.append(True)
            self._pending.append({})
            fut = self._loop.create_future()
            self._pending[shard_id][_READY_ID] = fut
            ready.append(fut)
        self.worker_info = [None] * self.num_shards
        for shard_id in range(self.num_shards):
            thread = threading.Thread(
                target=self._read_loop, args=(shard_id,),
                name=f"repro-shard-{shard_id}-reader", daemon=True,
            )
            thread.start()
            self._readers.append(thread)
        try:
            for shard_id, fut in enumerate(ready):
                self.worker_info[shard_id] = await asyncio.wait_for(
                    fut, timeout=60
                )
        except Exception:
            for proc in self._procs:
                proc.kill()
            raise
        log.info("cluster up: %d shards, sizes %s", self.num_shards,
                 [int(x) for x in self.plan.shard_sizes()])
        return self

    async def stop(self) -> "list[dict | None]":
        """Graceful drain of every live worker; final metric states."""
        states: "list[dict | None]" = [None] * self.num_shards
        waits = []
        for shard_id in range(self.num_shards):
            if self._alive[shard_id]:
                waits.append((shard_id,
                              self._rpc(shard_id, "stop", None)))
        for shard_id, fut in waits:
            try:
                states[shard_id] = await asyncio.wait_for(fut, timeout=30)
            except Exception:
                states[shard_id] = None
        loop = asyncio.get_running_loop()
        for proc in self._procs:
            await loop.run_in_executor(None, proc.join, 10)
            if proc.is_alive():
                proc.kill()
                await loop.run_in_executor(None, proc.join, 5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._readers:
            thread.join(timeout=5)
        self._procs, self._conns, self._readers = [], [], []
        self._alive = [False] * self.num_shards
        return states

    async def __aenter__(self) -> "Cluster":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- fault injection -------------------------------------------------

    def kill_shard(self, shard_id: int, hard: bool = True) -> None:
        """SIGKILL one worker (fault injection).  ``hard=False`` asks
        the worker to ``os._exit`` itself instead (in-process crash)."""
        if not self._alive[shard_id]:
            return
        if hard:
            self._procs[shard_id].kill()
        else:
            self._flush(shard_id)
            try:
                self._conns[shard_id].send(("die", next(self._ids), None))
            except (OSError, BrokenPipeError):
                pass

    # -- reader threads / RPC --------------------------------------------

    def _read_loop(self, shard_id: int) -> None:
        conn = self._conns[shard_id]
        loop = self._loop
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            loop.call_soon_threadsafe(self._on_message, shard_id, msg)
        loop.call_soon_threadsafe(self._on_death, shard_id)

    def _on_message(self, shard_id: int, msg: "tuple") -> None:
        msg_id, ok, payload = msg
        fut = self._pending[shard_id].pop(msg_id, None)
        if fut is None or fut.done():
            return
        if ok:
            fut.set_result(payload)
        else:
            fut.set_exception(ShardDeadError(
                f"shard {shard_id} worker error: {payload}"
            ) if msg_id == _READY_ID else _WorkerError(str(payload)))

    def _on_death(self, shard_id: int) -> None:
        if not self._alive[shard_id]:
            return
        self._alive[shard_id] = False
        pending = self._pending[shard_id]
        if pending:
            log.warning("shard %d worker died with %d pending replies",
                        shard_id, len(pending))
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(ShardDeadError(
                    f"shard {shard_id} worker died"
                ))
        pending.clear()

    def _rpc(self, shard_id: int, kind: str,
             payload: Any) -> "asyncio.Future":
        self._flush(shard_id)  # queued bulk parts go first: call order
        fut = self._loop.create_future()
        if not self._alive[shard_id]:
            fut.set_exception(ShardDeadError(
                f"shard {shard_id} worker is dead"
            ))
            return fut
        msg_id = next(self._ids)
        self._pending[shard_id][msg_id] = fut
        try:
            self._conns[shard_id].send((kind, msg_id, payload))
        except (OSError, BrokenPipeError):
            self._pending[shard_id].pop(msg_id, None)
            if not fut.done():
                fut.set_exception(ShardDeadError(
                    f"shard {shard_id} pipe is broken"
                ))
        return fut

    def _flush(self, shard_id: int) -> None:
        """Send a shard's queued bulk parts as one ``bulk`` frame."""
        parts = [p for p in self._outbox[shard_id] if not p[3].done()]
        self._outbox[shard_id] = []
        if not parts:
            return
        frame = tuple(np.concatenate([p[i] for p in parts])
                      for i in range(3))
        reply = self._rpc(shard_id, "bulk", frame)
        reply.add_done_callback(functools.partial(_split_reply, parts))

    # -- backend contract (consumed by ShardRouter) ----------------------

    async def execute_requests(self, shard_id: int, requests):
        items = [(r.op, r.key, r.low, r.high, r.deadline)
                 for r in requests]
        return await self._rpc(shard_id, "reqs", items)

    async def execute_bulk(self, shard_id: int, points, lows, highs):
        """Serve one ``(points, lows, highs)`` part on a shard; returns
        its ``(positions, starts, counts)``.  The part shares a frame
        with every other part queued for the shard in this loop pass."""
        fut = self._loop.create_future()
        outbox = self._outbox[shard_id]
        if not outbox:
            self._loop.call_soon(self._flush, shard_id)
        outbox.append((np.asarray(points, dtype=np.uint64),
                       np.asarray(lows, dtype=np.uint64),
                       np.asarray(highs, dtype=np.uint64), fut))
        return await fut

    async def execute_writes(self, shard_id: int, keys,
                             ops) -> "tuple[int, int]":
        """Apply a write burst on one shard; ``(applied, live)``."""
        return await self._rpc(shard_id, "write", (
            np.ascontiguousarray(keys, dtype=np.uint64),
            np.ascontiguousarray(ops, dtype=np.int8),
        ))

    async def swap_shard(self, shard_id: int, index_spec: Any) -> None:
        """Zero-loss hot-swap of one shard's index.

        ``index_spec`` is an index-type name (the worker rebuilds over
        its shard keys, through the artifact cache when active), a
        picklable ``factory(keys)`` callable, or the string
        ``"@rebuild"`` to compact a writable shard's delta in place.
        """
        await self._rpc(shard_id, "swap", index_spec)

    async def shard_metrics(self) -> "list[dict | None]":
        out: "list[dict | None]" = [None] * self.num_shards
        waits = []
        for shard_id in range(self.num_shards):
            if self._alive[shard_id]:
                waits.append((shard_id,
                              self._rpc(shard_id, "metrics", None)))
        for shard_id, fut in waits:
            try:
                out[shard_id] = await fut
            except Exception:
                out[shard_id] = None
        return out


class _WorkerError(RuntimeError):
    """The worker answered a frame with an application-level error."""


def _split_reply(parts: "list[tuple]", reply: "asyncio.Future") -> None:
    """Resolve each bulk part of a frame with its slice of the reply,
    or every part with the frame's exception."""
    exc = reply.exception()
    if exc is not None:
        for *_, fut in parts:
            if not fut.done():
                fut.set_exception(exc)
        return
    positions, starts, counts = reply.result()
    p = r = 0
    for points, lows, _, fut in parts:
        p_end, r_end = p + len(points), r + len(lows)
        if not fut.done():
            fut.set_result((positions[p:p_end], starts[r:r_end],
                            counts[r:r_end]))
        p, r = p_end, r_end


def cluster_for_dataset(
    dataset: str,
    n: int,
    seed: int,
    *,
    num_shards: int,
    index_type: str = "rmi",
    cache_dir: "str | None" = None,
    worker_opts: "WorkerOptions | None" = None,
) -> Cluster:
    """Convenience constructor matching the CLI's vocabulary."""
    return Cluster(
        num_shards=num_shards,
        index_type=index_type,
        dataset=dataset,
        n=n,
        seed=seed,
        cache_dir=cache_dir,
        worker_opts=worker_opts,
    )
