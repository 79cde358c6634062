"""The index server: admission, deadlines, hot-swap, graceful drain.

:class:`IndexServer` fronts any
:class:`~repro.baselines.interfaces.OrderedIndex` behind an async
request API.  The lifecycle::

    server = IndexServer(index, max_batch_size=256, max_wait_s=0.002)
    await server.start()
    response = await server.lookup(key, timeout_s=0.05)
    ...
    await server.stop()        # graceful drain: every future resolves

One executor task drives the loop: collect a batch from the
:class:`~repro.serve.batcher.MicroBatcher`, answer deadline-expired
requests with *timeout* responses (never a value computed after the
deadline at dispatch), run the survivors through the served index's
:meth:`~repro.baselines.interfaces.OrderedIndex.serve_batch` on the
event-loop thread, after one yield, then resolve every future.  No
worker thread: measured, its hop costs more than the overlap it could
buy, on one CPU and on two (``docs/architecture.md``).  Admission,
batch opening and resolution live in :class:`RequestFront`, which the
sharded tier's :class:`~repro.serve.router.ShardRouter` shares.

**Backpressure / load shedding**: the queue is bounded.  Policy
``"reject"`` answers a full queue with an immediate ``rejected``
response (open-loop overload sheds instead of building an unbounded
backlog); policy ``"block"`` makes ``submit`` wait for space, pushing
the pressure back into the caller.

**Hot swap**: :meth:`swap_index` atomically replaces the index used by
*subsequent* batches -- a plain reference assignment on the event-loop
thread, while the batch currently executing keeps the reference it
captured at dispatch.  No in-flight request is dropped or re-routed
mid-execution.  :meth:`rebuild` -- the rebuild daemon's, the
autotuner's and every shard swap's path -- builds over the live keys
and publishes through :meth:`swap_index`.  Its snapshot, a build with
a stepwise form and the publication run on the loop thread in bounded
steps, one after each write batch (:meth:`apply_writes`), so writes
pay for them and reads do not; a build without one runs in a worker
thread.

**Drain**: :meth:`stop` closes admission (late ``submit`` calls get
``rejected``), lets the executor task empty the queue without further
batching waits, and resolves everything.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any

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
from .metrics import ServeMetrics

__all__ = ["IndexServer", "RequestFront"]

log = logging.getLogger("repro.serve")

#: Admission-control policies for a full queue.
SHED_POLICIES = ("reject", "block")

#: The largest key a request may carry: keys are uint64.
_MAX_KEY = (1 << 64) - 1

#: A rebuild whose steps no write batch has run for this long runs the
#: rest itself, one step per loop pass: a server without writes (a
#: tuner swap) and the end of a write stream still finish.
IDLE_STEP_S = 0.005


class _Steps:
    """A rebuild's bounded steps, run one at a time on the loop thread
    by write batches and, once they stop, by the rebuild itself."""

    __slots__ = ("steps", "loop", "done", "idle", "_timer")

    def __init__(self, steps: Any, loop: asyncio.AbstractEventLoop) -> None:
        self.steps = steps
        self.loop = loop
        #: The steps' result, or the exception a step raised.
        self.done = loop.create_future()
        #: Resolves once the steps are finished, or once no write has
        #: run one for :data:`IDLE_STEP_S` (a timer each step re-arms).
        self.idle = loop.create_future()
        self._timer = loop.call_later(IDLE_STEP_S, self._wake)

    def _wake(self) -> None:
        if not self.idle.done():
            self.idle.set_result(None)

    def run_one(self) -> None:
        """Run the next step, unless the steps are finished."""
        if self.done.done():
            return
        self._timer.cancel()
        try:
            next(self.steps)
        except StopIteration as stop:
            self.done.set_result(stop.value)
        except Exception as exc:
            self.done.set_exception(exc)
        if self.done.done():
            self._wake()
        elif not self.idle.done():
            self._timer = self.loop.call_later(IDLE_STEP_S, self._wake)

    def close(self) -> None:
        self._timer.cancel()
        self.steps.close()


def _ready(value: Any):
    """A step generator with no step that returns ``value``."""
    yield from ()
    return value


class RequestFront:
    """Admission and batch resolution shared by :class:`IndexServer` and
    :class:`~repro.serve.router.ShardRouter`.

    Both queue every request on one
    :class:`~repro.serve.batcher.MicroBatcher`, open each collected
    batch with :meth:`_open_batch` and answer it through
    :meth:`_resolve_all`.  A subclass sets ``batcher``, ``metrics``,
    ``shed_policy``, ``default_timeout_s`` and ``_accepting``;
    ``_role`` names it in rejection reasons.  Keys are checked at the
    caller: one that does not fit a uint64 would otherwise fail building
    the arrays of the whole batch it joined.
    """

    _role = "server"

    async def lookup(self, key: int,
                     timeout_s: "float | None" = None) -> Response:
        """Lower-bound position of ``key`` (micro-batched)."""
        key = int(key)
        if not 0 <= key <= _MAX_KEY:
            raise OverflowError(f"key {key} is out of bounds for uint64")
        return await self._submit(Request(op=OP_LOOKUP, key=key), timeout_s)

    async def range_query(self, low: int, high: int,
                          timeout_s: "float | None" = None) -> Response:
        """``(start, count)`` of keys in ``[low, high)`` (micro-batched)."""
        low, high = int(low), int(high)
        if high < low:
            raise ValueError("range_query requires low <= high")
        if low < 0 or high > _MAX_KEY:
            raise OverflowError(
                f"range [{low}, {high}) is out of bounds for uint64")
        return await self._submit(
            Request(op=OP_RANGE, low=low, high=high), timeout_s
        )

    async def _submit(self, request: Request,
                      timeout_s: "float | None") -> Response:
        now = time.monotonic()
        request.enqueued_at = now
        timeout_s = timeout_s if timeout_s is not None \
            else self.default_timeout_s
        if timeout_s is not None:
            request.deadline = now + timeout_s
        request.future = asyncio.get_running_loop().create_future()
        self.metrics.submitted.inc()
        if not self._accepting:
            return self._immediate(request, STATUS_REJECTED,
                                   f"{self._role} is not accepting requests")
        if self.shed_policy == "reject":
            admitted = self.batcher.try_put(request)
        else:
            admitted = await self.batcher.put(request)
        if not admitted:
            return self._immediate(request, STATUS_REJECTED, "queue full")
        return await request.future

    def _immediate(self, request: Request, status: str,
                   reason: str) -> Response:
        response = Response(
            op=request.op,
            status=status,
            latency_s=time.monotonic() - request.enqueued_at,
            error=reason,
        )
        self.metrics.record_response(status, response.latency_s)
        return response

    def _open_batch(self, batch: "list[Request]") -> "tuple | None":
        """Record ``batch``, answer its expired requests ``timeout``
        (never a value computed after the deadline) and return the rest
        as ``(requests, point_keys, lows, highs)``, lookups first, or
        ``None`` when none is left."""
        size = len(batch)
        self.metrics.record_batch(size, self.batcher.depth())
        now = time.monotonic()
        expired: "list[Request]" = []
        lookups: "list[Request]" = []
        ranges: "list[Request]" = []
        for req in batch:
            if req.expired(now):
                expired.append(req)
            elif req.op == OP_LOOKUP:
                lookups.append(req)
            else:
                ranges.append(req)
        self._resolve_all(expired, STATUS_TIMEOUT, now, size,
                          error="deadline expired before service")
        if not lookups and not ranges:
            return None
        return (lookups + ranges,
                np.array([r.key for r in lookups], dtype=np.uint64),
                np.array([r.low for r in ranges], dtype=np.uint64),
                np.array([r.high for r in ranges], dtype=np.uint64))

    def _resolve_ok(self, requests: "list[Request]", done: float,
                    batch_size: int, positions: np.ndarray,
                    starts: np.ndarray, counts: np.ndarray) -> None:
        """Answer an opened batch ``ok`` from its result arrays."""
        self._resolve_all(
            requests, STATUS_OK, done, batch_size,
            positions=positions.tolist() + starts.tolist(),
            counts=[None] * len(positions) + counts.tolist(),
        )

    def _resolve_all(self, requests: "list[Request]", status: str,
                     done: float, batch_size: int, *,
                     positions: "list[int] | None" = None,
                     counts: "list[int | None] | None" = None,
                     error: "str | None" = None) -> None:
        """Answer ``requests`` with one ``status`` as of time ``done``.

        ``positions``/``counts`` carry an ``ok`` batch's results in
        request order.  Latency and the status counter are recorded for
        all of them in one update, then every pending future resolves.
        """
        if not requests:
            return
        latencies = [done - r.enqueued_at for r in requests]
        self.metrics.record_responses(status, latencies)
        if positions is None:
            positions = counts = [None] * len(requests)
        for req, latency, position, count in zip(requests, latencies,
                                                 positions, counts):
            future = req.future
            if future is not None and not future.done():
                future.set_result(Response(req.op, status, position, count,
                                           latency, batch_size, error))

    def _reject_queued(self) -> None:
        """Answer whatever is still queued ``rejected`` (the last step
        of ``stop``): a ``block``-policy putter can land a request
        between the collector's final empty check and its exit."""
        self._resolve_all(self.batcher.drain_nowait(), STATUS_REJECTED,
                          time.monotonic(), 0,
                          error=f"{self._role} shut down before service")


class IndexServer(RequestFront):
    """Serve one ``OrderedIndex`` behind a micro-batched async API."""

    def __init__(
        self,
        index: Any,
        *,
        max_batch_size: int = 256,
        max_wait_s: float = 0.002,
        max_queue: int = 1024,
        shed_policy: str = "reject",
        default_timeout_s: "float | None" = None,
        metrics: "ServeMetrics | None" = None,
        sampler: Any = None,
        log_interval_s: "float | None" = None,
        gil_switch_interval_s: "float | None" = None,
    ) -> None:
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {shed_policy!r}; use one of "
                f"{SHED_POLICIES}"
            )
        self._index = index
        self.batcher = MicroBatcher(
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            max_queue=max_queue,
        )
        self.shed_policy = shed_policy
        self.default_timeout_s = default_timeout_s
        #: Optional ``sys.setswitchinterval`` override while running.
        #: Index calls run on the loop thread, but off-thread work (a
        #: build without a stepwise form, in a worker thread) competes
        #: with it for the GIL, and CPython's default 5 ms slice bounds
        #: how long the loop waits for a thread holding it.  On one CPU
        #: that is not what slows reads that overlap such a build: the
        #: scheduler preempts them for the build thread (involuntary
        #: context switches), which the interval does not touch -- at
        #: 0.5 ms the ``mixed_writes`` read p95 did not move, when its
        #: rebuilds still ran in a thread.  Restored on stop.
        self.gil_switch_interval_s = gil_switch_interval_s
        self._saved_switch_interval: "float | None" = None
        self.metrics = metrics if metrics is not None else ServeMetrics()
        #: Optional workload sampler (:class:`~repro.autotune.sampler.
        #: WorkloadSampler`): fed each dispatched batch's key arrays on
        #: the event-loop thread, the autotuner's view of live traffic.
        self.sampler = sampler
        self.log_interval_s = log_interval_s
        #: What :meth:`rebuild` builds with when given none: the last
        #: factory it was given, or (``None``, also after a direct
        #: :meth:`swap_index`) one derived from the served index.
        self.factory: "Any | None" = None
        self._rebuilding = asyncio.Lock()
        #: The running rebuild's steps (:meth:`_on_loop`).
        self._steps: "_Steps | None" = None
        self._task: "asyncio.Task | None" = None
        self._logger_task: "asyncio.Task | None" = None
        self._accepting = False

    # -- lifecycle -------------------------------------------------------

    @property
    def index(self) -> Any:
        """The currently served index (next batch's target)."""
        return self._index

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    async def start(self) -> "IndexServer":
        if self.running:
            raise RuntimeError("server is already running")
        if self.gil_switch_interval_s is not None:
            import sys

            self._saved_switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(self.gil_switch_interval_s)
        # Warm the kernel backend before accepting traffic: the C
        # backend compiles its library on a cold build cache, and the
        # first probe packs the index; neither must land inside a live
        # request's deadline.  Warm-up failures are non-fatal -- the
        # batch path falls back to NumPy.
        self._warm_index(self._index)
        self._accepting = True
        self._task = asyncio.create_task(self._run(), name="repro-serve-loop")
        if self.log_interval_s:
            self._logger_task = asyncio.create_task(
                self._log_periodically(), name="repro-serve-metrics"
            )
        return self

    async def stop(self) -> None:
        """Graceful drain: stop admitting, answer everything, shut down."""
        self._accepting = False
        self.batcher.close()
        if self._task is not None:
            await self._task
            self._task = None
        self._reject_queued()
        if self._logger_task is not None:
            self._logger_task.cancel()
            try:
                await self._logger_task
            except asyncio.CancelledError:
                pass
            self._logger_task = None
        if self._saved_switch_interval is not None:
            import sys

            sys.setswitchinterval(self._saved_switch_interval)
            self._saved_switch_interval = None

    async def __aenter__(self) -> "IndexServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- hot swap --------------------------------------------------------

    def swap_index(self, new_index: Any) -> Any:
        """Atomically serve ``new_index`` from the next batch onward.

        Must be called on the event-loop thread (as all coroutines
        are).  The previous index is returned; any batch already
        dispatched keeps executing against it -- zero in-flight
        requests are dropped by a swap.  :attr:`factory` is cleared, so
        a later :meth:`rebuild` given no factory rebuilds ``new_index``
        as it is; :meth:`rebuild` sets its own factory after the swap.
        """
        # Warm the incoming index before it becomes visible.  The
        # backend's kernels were already compiled at start() (they are
        # per-function, not per-index), so this probe is microseconds
        # -- it only builds the new index's packed representation and
        # is safe on the event-loop thread.
        self._warm_index(new_index)
        old, self._index = self._index, new_index
        self.factory = None
        self.metrics.swaps.inc()
        # A rebuild swap drains the writable tier's delta; re-arm the
        # staleness gauge from the incoming index's current level (its
        # high-water mark is preserved for the staleness-bound gate).
        self.metrics.staleness_s.reset(self._staleness_of(new_index))
        log.info("index swapped: %s -> %s",
                 getattr(old, "name", type(old).__name__),
                 getattr(new_index, "name", type(new_index).__name__))
        return old

    async def rebuild(self, factory: Any = None) -> Any:
        """Rebuild the served index over its live keys and swap it in.

        The one path that changes what this server serves: the rebuild
        daemon, the tuner and shard swaps call it.  A writable index's
        live keys are snapshotted in bounded steps (a read-only index's
        keys are its own).  ``factory(keys)`` is built in bounded steps
        when it has a stepwise form
        (:func:`~repro.writable.rebuild.build_steps`: an RMI on a
        backend with build kernels), else in a worker thread.  The
        result is published through ``finish_rebuild`` into a writable
        index (the writes that raced the build survive) and hot-swapped
        by :meth:`swap_index`, as the last step.  Steps run on the loop
        thread, one after each write batch, so writes pay for them
        (:meth:`_on_loop`).  One rebuild runs at a time.  ``factory``
        becomes :attr:`factory`.  Returns the previous factory -- the
        token that undoes this rebuild -- or ``None`` when a writable
        index has no live key.  A factory that raises publishes nothing.
        """
        from ..writable.rebuild import IndexFactory, build_steps

        async with self._rebuilding:
            index = self._index
            snapshot = getattr(index, "snapshot_steps", None)
            ticket = None if snapshot is None \
                else await self._on_loop(snapshot())
            keys = index.keys if ticket is None else ticket.live_keys
            if not len(keys):
                return None
            previous = self.factory or IndexFactory.of(
                index if ticket is None else ticket.base)
            factory = factory or previous
            steps = build_steps(factory, keys)
            if steps is None:
                # No stepwise form (the Python PLA builds, ALEX, ART, a
                # tuner's probed factory, any build on NumPy): a worker
                # thread, which shares the CPU with serving.
                steps = _ready(await asyncio.to_thread(factory, keys))
            await self._on_loop(self._publish(steps, index, ticket, factory))
            return previous

    def _publish(self, steps: Any, index: Any, ticket: Any, factory: Any):
        """The build's steps, then its publication as one more step."""
        built = yield from steps
        if ticket is not None:
            index.finish_rebuild(built, ticket)
            built = index
        self.swap_index(built)
        self.factory = factory

    async def _on_loop(self, steps: Any) -> Any:
        """Run a step generator on the loop thread; returns its result.

        Each :meth:`apply_writes` call runs at most one step, after its
        batch, so a rebuild costs the writes that arrive while it runs,
        not the reads between them.  Once no write has run a step for
        :data:`IDLE_STEP_S`, this coroutine runs the rest, one step per
        loop pass.
        """
        runner = self._steps = _Steps(steps, asyncio.get_running_loop())
        try:
            await runner.idle
            while not runner.done.done():
                runner.run_one()
                await asyncio.sleep(0)
            return runner.done.result()
        finally:
            self._steps = None
            runner.close()

    @staticmethod
    def _staleness_of(index: Any) -> float:
        """Current staleness of ``index`` (0.0 for read-only indexes)."""
        stale = getattr(index, "staleness_s", None)
        if not callable(stale):
            return 0.0
        try:
            return float(stale())
        except Exception:  # pragma: no cover - defensive
            return 0.0

    def _sample_staleness(self) -> None:
        """Feed the staleness gauge from the currently served index."""
        stale = getattr(self._index, "staleness_s", None)
        if callable(stale):
            self.metrics.staleness_s.set(self._staleness_of(self._index))

    @staticmethod
    def _warm_index(index: Any) -> None:
        """Best-effort ``warm_kernels``; never fails the caller."""
        warm = getattr(index, "warm_kernels", None)
        if warm is None:
            return
        try:
            warm()
        except Exception:
            log.warning("kernel warm-up failed; serving will fall back",
                        exc_info=True)

    # -- bulk and write lanes --------------------------------------------

    async def serve_bulk(
        self,
        point_keys: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Execute one pre-formed batch directly (scatter/gather path).

        The sharded tier's bulk lane: a router that already coalesced a
        whole query chunk has no use for per-request micro-batching, so
        this runs the current index's ``serve_batch`` straight on the
        event-loop thread (:meth:`_execute`).  It shares that path --
        and therefore execution order -- with the micro-batched lane,
        and captures the index reference at call time, so
        :meth:`swap_index` has the same zero-loss semantics for bulk
        traffic.  Counters and the batch-size histogram are
        recorded; latency is recorded once per dispatch (one bulk call
        is one dispatch, not ``n`` queued requests), so windowed p99
        stays meaningful under bulk-only traffic -- the autotuner's
        post-swap watchdog relies on that.
        """
        if not self._accepting:
            raise RuntimeError("server is not running")
        index = self._index  # captured: swaps affect later calls
        point_keys = np.ascontiguousarray(point_keys, dtype=np.uint64)
        range_lows = np.ascontiguousarray(range_lows, dtype=np.uint64)
        range_highs = np.ascontiguousarray(range_highs, dtype=np.uint64)
        if self.sampler is not None:
            self.sampler.observe(point_keys, range_lows, range_highs)
        n = len(point_keys) + len(range_lows)
        self.metrics.submitted.inc(n)
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            positions, starts, counts = await self._execute(
                index.serve_batch, point_keys, range_lows, range_highs)
        except Exception:
            self.metrics.errors.inc(n)
            raise
        if n:
            self.metrics.latency_s.observe(loop.time() - start)
            self.metrics.record_batch(n, self.batcher.depth())
            self.metrics.completed.inc(n)
        return positions, starts, counts

    async def apply_writes(self, keys: np.ndarray,
                           ops: np.ndarray) -> int:
        """Apply one write batch to the served (writable) index.

        The write lane of the serving tier: runs the index's ``apply``
        on the event-loop thread like the read batches, so writes and
        reads execute in submission order -- a read submitted after
        this call resolves sees every write in the batch.  Then, inside
        the same call, it runs the next step of a running rebuild, if
        any (:meth:`_on_loop`).  Requires the served index to expose
        the writable contract
        (:class:`~repro.writable.index.WritableIndex`); read-only
        indexes raise ``TypeError``.
        """
        if not self._accepting:
            raise RuntimeError("server is not running")
        index = self._index  # captured: swaps affect later calls
        apply = getattr(index, "apply", None)
        if not callable(apply):
            raise TypeError(
                f"served index {type(index).__name__} does not accept "
                "writes; wrap it in WritableIndex"
            )
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        ops = np.ascontiguousarray(ops, dtype=np.int8)
        n = await self._execute(apply, keys, ops)
        if self._steps is not None:
            self._steps.run_one()
        self.metrics.writes.inc(int(n))
        self._sample_staleness()
        return int(n)

    # -- executor loop ---------------------------------------------------

    @staticmethod
    async def _execute(fn: Any, *args: Any) -> Any:
        """``fn(*args)`` on the loop thread, after one ``sleep(0)``.

        The yield lets tasks beside the caller (a swap, a rebuild's
        finish step) run between index calls; without it a closed loop
        of calls would never suspend.  Wake-ups are FIFO, so calls still
        run in the order they were made.
        """
        await asyncio.sleep(0)
        return fn(*args)

    async def _run(self) -> None:
        while True:
            batch = await self.batcher.collect()
            if batch is None:
                return
            self._sample_staleness()
            live = self._open_batch(batch)
            if live is None:
                continue
            requests, point_keys, lows, highs = live
            index = self._index  # captured: swaps affect later batches
            if self.sampler is not None:
                self.sampler.observe(point_keys, lows, highs)
            try:
                positions, starts, counts = await self._execute(
                    index.serve_batch, point_keys, lows, highs)
            except Exception as exc:  # index bug: fail the batch, not
                log.exception("batch execution failed")  # the server
                self._resolve_all(requests, STATUS_ERROR, time.monotonic(),
                                  len(batch),
                                  error=f"{type(exc).__name__}: {exc}")
                continue
            self._resolve_ok(requests, time.monotonic(), len(batch),
                             positions, starts, counts)

    async def _log_periodically(self) -> None:
        while True:
            await asyncio.sleep(self.log_interval_s)
            log.info("%s", self.metrics.log_line())
