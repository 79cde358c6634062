"""Multi-process worker tier of the range-sharded serving cluster.

:class:`Cluster` spawns one OS process per shard.  Each worker runs an
:class:`~repro.serve.server.IndexServer` over its contiguous slice of
the keyspace and answers every read frame with
:meth:`~repro.serve.server.IndexServer.serve_bulk`, one fused
``serve_batch`` per frame; the router batched the requests already, so
the worker's micro-batcher sees no pipe traffic.  The dataset and the
built index resolve through the artifact cache when one is active
(workers activate it themselves via the spec's ``cache_dir``).  The
parent side implements the backend contract
:class:`~repro.serve.router.ShardRouter` routes through.

**Wire protocol**: pickled tuples over a socket pair, one frame each
in ``multiprocessing.Connection``'s wire format (a 4-byte big-endian
length, or ``-1`` and an 8-byte length above 2 GiB, then the
``ForkingPickler`` payload)::

    parent -> worker   (kind, msg_id, payload)
    worker -> parent   (msg_id, ok, payload)

Kinds: ``stop`` (graceful drain: every in-flight frame finishes, the
server drains, the final metrics state comes back), ``die`` (fault
injection: the worker ``os._exit``\\ s without cleanup, simulating a
crash), and the calls of :func:`~repro.serve.router.answer_shard`:
``bulk`` (a ``(points, lows, highs)`` array batch; one frame may carry
several callers' parts, see below), ``write``, ``swap``, ``metrics``
and ``describe``.  The worker answers each on its server with that
handler, the one :class:`~repro.serve.router.LocalBackend` runs
in-process; a call that raises is answered ``(msg_id, False, "Type:
message")``.

**Bulk outbox**: a pipe frame costs far more than the bytes it carries,
so :meth:`Cluster.execute_bulk` does not send at once.  It queues its
``(points, lows, highs)`` part on the shard's outbox, and the first
part queued in an event-loop pass schedules one flush (``call_soon``)
that sends every queued part as a single ``bulk`` frame of concatenated
arrays and slices the reply back to each caller.  The worker serves
that frame as one ``serve_bulk``.  Any other message to a shard flushes
its outbox first, so the pipe carries messages in call order; a failed
frame fails every part in it with the same exception.

**Failure model**: the event loop serves both ends of every pipe
through one small :class:`asyncio.Protocol` (``_Pipe``): no thread
reads or writes a pipe, and every send goes through
``transport.write``, so no loop blocks on a full socket and two ends
sending large frames at once cannot deadlock.  EOF on a pipe --
graceful exit *or* SIGKILL -- arrives as ``connection_lost``, which
marks the shard dead and fails every pending reply future with
:class:`~repro.serve.router.ShardDeadError`; the router turns that
into per-request ``error`` responses.  A dead shard never hangs the
router, and the remaining shards keep serving.  A failed
:meth:`Cluster.start` kills every worker and leaves a stopped cluster
that can start again.  A forked worker first closes the parent ends
of every pipe opened so far, its own included, so the death of the
router's process is an EOF on its pipe too, and it drains and exits.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import logging
import multiprocessing as mp
import os
import socket
import struct
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable

import numpy as np

from .router import ShardDeadError, ShardPlan, answer_shard, plan_shards
from .server import IndexServer

__all__ = ["WorkerSpec", "Cluster"]

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
    """Per-worker ``IndexServer`` batcher settings (picklable).

    No pipe traffic reaches the worker's micro-batcher: reads arrive as
    ``bulk`` frames and are served by ``serve_bulk``.
    """

    max_batch_size: int = 512
    max_wait_s: float = 0.001
    max_queue: int = 8192


# ---------------------------------------------------------------------------
# Pipe transport (both ends)
# ---------------------------------------------------------------------------

_LEN32 = struct.Struct("!i")
_LEN64 = struct.Struct("!Q")


def _frame(msg: Any) -> bytes:
    """One pickled message in ``multiprocessing.Connection``'s wire
    format: length header, then the ``ForkingPickler`` payload."""
    payload = ForkingPickler.dumps(msg)
    if len(payload) > 0x7FFFFFFF:
        return _LEN32.pack(-1) + _LEN64.pack(len(payload)) + payload
    return _LEN32.pack(len(payload)) + payload


class _Pipe(asyncio.Protocol):
    """One end of a shard pipe, served by the event loop.

    Every whole frame received is unpickled and handed to
    ``on_message``; EOF or a socket error ends in ``on_lost`` and
    resolves :attr:`lost`.  :meth:`send` never blocks: the transport
    buffers what the socket does not take at once.
    """

    def __init__(self, on_message: "Callable[[Any], None]",
                 on_lost: "Callable[[], None]") -> None:
        self._on_message = on_message
        self._on_lost = on_lost
        self._buf = bytearray()
        self.transport: "asyncio.Transport | None" = None
        self.lost: "asyncio.Future[None]" = \
            asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def data_received(self, data: bytes) -> None:
        buf = self._buf
        buf += data
        while len(buf) >= _LEN32.size:
            (size,) = _LEN32.unpack_from(buf)
            head = _LEN32.size
            if size == -1:
                if len(buf) < head + _LEN64.size:
                    return
                (size,) = _LEN64.unpack_from(buf, head)
                head += _LEN64.size
            if len(buf) < head + size:
                return
            msg = ForkingPickler.loads(buf[head:head + size])
            del buf[:head + size]
            self._on_message(msg)

    def connection_lost(self, exc: "Exception | None") -> None:
        self.lost.set_result(None)
        self._on_lost()

    def send(self, msg: Any) -> None:
        # A closing pipe drops the message; connection_lost follows.
        if not self.transport.is_closing():
            self.transport.write(_frame(msg))


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


def _build_index(spec: WorkerSpec, keys: np.ndarray) -> Any:
    """Build (or restore from the artifact cache) this shard's index."""
    from ..baselines import INDEX_TYPES

    if spec.index_factory is not None:
        return spec.index_factory(keys)
    cls = INDEX_TYPES[spec.index_type]
    if spec.cache_dir is not None and spec.dataset is not None:
        from .. import cache as artifact_cache

        artifact_cache.activate(spec.cache_dir)
        return artifact_cache.index_for(
            spec.dataset, spec.n, spec.seed, spec.index_type,
            {"shard_lo": spec.lo, "shard_hi": spec.hi},
            lambda _full: cls(keys), cls=cls,
        )
    return cls(keys)


def _worker_main(sock: socket.socket, spec: WorkerSpec,
                 opts: WorkerOptions, parent_fds: "tuple[int, ...]") -> None:
    """Worker process entry point: build the shard, serve the pipe.

    ``parent_fds`` are the parent's pipe ends a forked worker inherited
    (empty under spawn).  Closing them leaves the parent process the
    only holder of this pipe's other end, so its death is an EOF here.
    """
    for fd in parent_fds:
        os.close(fd)
    with sock:
        try:
            keys = _shard_keys(spec)
            index = _build_index(spec, keys)
        except Exception as exc:  # startup failure: report, don't hang
            sock.sendall(_frame(
                (_READY_ID, False, f"{type(exc).__name__}: {exc}")))
            return
        asyncio.run(_worker_serve(sock, spec, keys, index, opts))


async def _worker_serve(sock: socket.socket, spec: WorkerSpec,
                        keys: np.ndarray, index: Any,
                        opts: WorkerOptions) -> None:
    server = IndexServer(
        index,
        max_batch_size=opts.max_batch_size,
        max_wait_s=opts.max_wait_s,
        max_queue=opts.max_queue,
        shed_policy="block",  # backpressure into the pipe, never shed
    )
    loop = asyncio.get_running_loop()
    frames: "set[asyncio.Task]" = set()
    #: The ``stop`` message's id, or ``None`` when the parent went away.
    stopped: "asyncio.Future[int | None]" = loop.create_future()

    def on_message(msg: tuple) -> None:
        kind, msg_id, payload = msg
        if stopped.done():
            return  # draining: nothing new starts
        if kind == "stop":
            stopped.set_result(msg_id)
        elif kind == "die":
            os._exit(17)  # fault injection: crash, no cleanup
        else:
            task = loop.create_task(answer(msg_id, kind, payload))
            frames.add(task)
            task.add_done_callback(frames.discard)

    async def answer(msg_id: int, kind: str, payload: Any) -> None:
        try:
            reply = (msg_id, True, await answer_shard(server, kind, payload))
        except Exception as exc:
            reply = (msg_id, False, f"{type(exc).__name__}: {exc}")
        pipe.send(reply)

    def on_lost() -> None:
        if not stopped.done():
            stopped.set_result(None)  # parent went away: drain and exit

    pipe = _Pipe(on_message, on_lost)
    await loop.connect_accepted_socket(lambda: pipe, sock)
    async with server:
        pipe.send((_READY_ID, True,
                   {"shard": spec.shard_id, "n": len(keys),
                    "pid": os.getpid()}))
        stop_id = await stopped
        # Graceful drain: finish every in-flight frame (their requests
        # resolve through the still-running server), then the context
        # exit drains the server itself.
        if frames:
            await asyncio.gather(*frames, return_exceptions=True)
        final_state = await answer_shard(server, "metrics", None)
    if stop_id is not None:
        pipe.send((stop_id, True, final_state))
    # close() flushes what is still buffered (the stop reply) before
    # connection_lost fires.
    pipe.transport.close()
    await pipe.lost


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
        index_factory: "Callable[[np.ndarray], Any] | None" = None,
        mp_method: "str | None" = None,
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
        self._opts = WorkerOptions()
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
        self._ship_keys = cache_dir is None or dataset is None
        self._procs: "list[mp.process.BaseProcess]" = []
        self._pipes: "list[_Pipe]" = []
        self._alive: "list[bool]" = [False] * self.plan.num_shards
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
        """Start every worker and wait until each reports ready.

        If any worker fails to start, every worker is killed and joined
        and the error is raised (a worker's own start-up error as
        :class:`~repro.serve.router.ShardDeadError`); the cluster is
        then stopped and can start again.
        """
        if self._procs:
            raise RuntimeError("cluster is already running")
        loop = self._loop = asyncio.get_running_loop()
        self._alive = [True] * self.num_shards
        self._pending = [{_READY_ID: loop.create_future()}
                         for _ in range(self.num_shards)]
        ready = [pending[_READY_ID] for pending in self._pending]
        # A forked worker inherits every parent end opened before it.
        forked = self._ctx.get_start_method() == "fork"
        parent_fds: "list[int]" = []
        try:
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
                parent_sock, child_sock = socket.socketpair()
                if forked:
                    parent_fds.append(parent_sock.fileno())
                with child_sock:
                    pipe = _Pipe(
                        functools.partial(self._on_message, shard_id),
                        functools.partial(self._on_death, shard_id),
                    )
                    await loop.connect_accepted_socket(lambda: pipe,
                                                       parent_sock)
                    self._pipes.append(pipe)
                    proc = self._ctx.Process(
                        target=_worker_main,
                        args=(child_sock, spec, self._opts,
                              tuple(parent_fds)),
                        name=f"repro-shard-{shard_id}", daemon=True,
                    )
                    proc.start()
                self._procs.append(proc)
            self.worker_info = list(await asyncio.wait_for(
                asyncio.gather(*ready), timeout=60
            ))
        except BaseException:
            for fut in ready:  # leave no exception unretrieved
                if fut.done() and not fut.cancelled():
                    fut.exception()
                fut.cancel()
            for proc in self._procs:
                proc.kill()
            await self._close()
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
        await self._close()
        return states

    async def _close(self) -> None:
        """Join every worker (killing one that outlives the wait), close
        every pipe, and clear the per-shard state."""
        loop = asyncio.get_running_loop()
        for proc in self._procs:
            await loop.run_in_executor(None, proc.join, 10)
            if proc.is_alive():
                proc.kill()
                await loop.run_in_executor(None, proc.join, 5)
        for pipe in self._pipes:
            pipe.transport.abort()
        # connection_lost -> _on_death fails whatever is still pending.
        await asyncio.gather(*(pipe.lost for pipe in self._pipes))
        self._procs, self._pipes = [], []
        self._alive = [False] * self.num_shards

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
            self._pipes[shard_id].send(("die", next(self._ids), None))

    # -- pipe callbacks / RPC --------------------------------------------

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
        self._pipes[shard_id].send((kind, msg_id, payload))
        self._pending[shard_id][msg_id] = fut
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

    async def call(self, shard_id: int, kind: str, payload: Any) -> Any:
        """One :func:`~repro.serve.router.answer_shard` call, answered
        in the shard's worker (``swap``'s factory must pickle)."""
        return await self._rpc(shard_id, kind, payload)

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
