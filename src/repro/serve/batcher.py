"""Dynamic micro-batching of index requests.

The serving argument for batching is the same one PR 1 made offline:
every index answers ``lookup_batch`` far faster per key than a Python
round-trip per request, so a server that executes one request at a time
wastes almost its entire budget on dispatch overhead.  The
:class:`MicroBatcher` closes that gap with the continuous-batching
shape inference servers use -- requests accumulate in a bounded queue
and are released as one batch when either

* the batch reaches ``max_batch_size`` requests, or
* ``max_wait_s`` has elapsed since the *oldest* request in the batch
  arrived (so queueing time already spent counts against the budget and
  a backed-up queue drains at full batch width with no extra waiting).

The batcher owns admission: :meth:`try_put` is the load-shedding path
(full queue -> immediate ``False``), :meth:`put` the blocking
backpressure path.  :meth:`close` starts the drain protocol --
:meth:`collect` stops waiting, hands out whatever is queued, and
returns ``None`` once the queue is empty, which is the executor loop's
signal to exit.  Batch *execution* is deliberately not here: the
:class:`~repro.serve.server.IndexServer` decides deadlines, swaps, and
how to run the batch against an index.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple

__all__ = [
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "STATUS_REJECTED",
    "STATUS_ERROR",
    "OP_LOOKUP",
    "OP_RANGE",
    "Request",
    "Response",
    "MicroBatcher",
]

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"

OP_LOOKUP = "lookup"
OP_RANGE = "range"

#: Queue sentinel: wakes a collector blocked on an empty queue so it
#: can notice the batcher has been closed.
_WAKE = object()


@dataclass
class Request:
    """One in-flight request: operation, payload, deadline, future."""

    op: str
    key: int = 0
    low: int = 0
    high: int = 0
    #: ``time.monotonic()`` at submission (latency baseline).
    enqueued_at: float = 0.0
    #: Absolute ``time.monotonic()`` deadline, or ``None`` (no limit).
    deadline: "float | None" = None
    future: "asyncio.Future[Response] | None" = field(
        default=None, repr=False, compare=False
    )

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class Response(NamedTuple):
    """The answer to one request (immutable).

    ``status`` is one of ``ok`` / ``timeout`` / ``rejected`` /
    ``error``.  Only ``ok`` responses carry results: ``position`` is the
    lower-bound position (for both ops), ``count`` the number of keys
    in range (``None`` for point lookups).  A timed-out or rejected
    request never carries a value -- a late answer is withheld rather
    than presented as fresh.  A named tuple rather than a frozen
    dataclass: the server builds one per request, and a tuple is
    several times cheaper to construct.
    """

    op: str
    status: str
    position: "int | None" = None
    count: "int | None" = None
    latency_s: float = 0.0
    #: Number of requests in the batch that served this one (0 when the
    #: request never reached an index).
    batch_size: int = 0
    error: "str | None" = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class MicroBatcher:
    """Bounded request queue plus the batch-forming state machine."""

    def __init__(self, max_batch_size: int = 256,
                 max_wait_s: float = 0.002,
                 max_queue: int = 1024) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.max_queue = int(max_queue)
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue(maxsize=max_queue)
        self._closed = False
        #: Futures of ``put`` callers blocked on a full queue.  The
        #: batcher manages space waiting itself (instead of relying on
        #: ``asyncio.Queue.put``) so that :meth:`close` can flush every
        #: blocked putter: a put woken *after* close returns ``False``
        #: and never lands a request behind the collector's back.  With
        #: ``Queue.put``, a putter woken by the final drain could
        #: enqueue after the last ``drain_nowait`` sweep -- a dropped
        #: request whose future never resolves.
        self._space_waiters: "deque[asyncio.Future[None]]" = deque()

    # -- admission -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def depth(self) -> int:
        """Requests currently queued (sentinels excluded, best-effort)."""
        return self._queue.qsize()

    def try_put(self, request: Request) -> bool:
        """Non-blocking admission: ``False`` sheds the request."""
        if self._closed:
            return False
        try:
            self._queue.put_nowait(request)
            return True
        except asyncio.QueueFull:
            return False

    async def put(self, request: Request) -> bool:
        """Blocking admission: waits for queue space (backpressure).

        Returns ``False`` -- without enqueueing -- when the batcher is
        (or becomes) closed, so a putter blocked across :meth:`close`
        resolves instead of landing a request no collector will ever
        see.  The caller answers its request as rejected.
        """
        while not self._closed:
            try:
                self._queue.put_nowait(request)
                return True
            except asyncio.QueueFull:
                pass
            waiter: "asyncio.Future[None]" = (
                asyncio.get_running_loop().create_future()
            )
            self._space_waiters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                if waiter.done() and not waiter.cancelled():
                    # We consumed a wake-up we will not use: pass it on
                    # so another blocked putter gets the free slot.
                    self._notify_space()
                else:
                    try:
                        self._space_waiters.remove(waiter)
                    except ValueError:
                        pass
                raise
        return False

    def _notify_space(self) -> None:
        """Wake one blocked putter (a queue slot was freed)."""
        while self._space_waiters:
            waiter = self._space_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return

    # -- drain -----------------------------------------------------------

    def close(self) -> None:
        """Stop admitting; wake the collector so it can drain and exit.

        Every ``put`` blocked on a full queue is flushed too: it
        re-checks the closed flag and returns ``False``, so no request
        can slip into the queue after the collector's final drain.
        """
        self._closed = True
        while self._space_waiters:
            waiter = self._space_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
        try:
            self._queue.put_nowait(_WAKE)
        except asyncio.QueueFull:
            pass  # a full queue already keeps the collector awake

    # -- batch formation -------------------------------------------------

    async def collect(self) -> "list[Request] | None":
        """The next batch, or ``None`` when closed and fully drained.

        Waits for a first request, then fills the batch until
        ``max_batch_size`` or until ``max_wait_s`` after that request's
        *enqueue* time -- whichever comes first.  Whatever is already
        queued when the deadline passes still joins the batch (a
        backlog coalesces maximally); after :meth:`close` no new waiting
        happens at all.

        Filling takes everything already queued without suspending and
        waits only when the queue runs empty before the deadline: one
        wait per wake-up, not one per request, so a full queue forms a
        batch in a single step.
        """
        first = await self._next_request()
        if first is None:
            return None
        batch = [first]
        deadline = first.enqueued_at + self.max_wait_s
        while True:
            self._take_queued(batch, self.max_batch_size)
            if len(batch) >= self.max_batch_size or self._closed:
                return batch
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return batch
            try:
                item = await asyncio.wait_for(self._queue.get(), remaining)
            except asyncio.TimeoutError:
                continue  # deadline hit; take what is queued, then stop
            self._notify_space()
            if item is not _WAKE:
                batch.append(item)

    def drain_nowait(self) -> "list[Request]":
        """Whatever is still queued, without waiting (post-shutdown sweep)."""
        out: "list[Request]" = []
        self._take_queued(out, math.inf)
        return out

    def _take_queued(self, batch: "list[Request]", limit: float) -> None:
        """Move queued requests into ``batch`` until it holds ``limit``
        or the queue is empty, without waiting."""
        queue = self._queue
        while len(batch) < limit:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            self._notify_space()
            if item is not _WAKE:
                batch.append(item)

    async def _next_request(self) -> "Request | None":
        while True:
            if self._closed:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    return None
            else:
                item = await self._queue.get()
            self._notify_space()
            if item is not _WAKE:
                return item
