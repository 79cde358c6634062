"""Spans around the serving stack's public entry points, from outside.

The traced run patches the serving stack's public entry points (see
``report.install_probes``) with wrappers that record a span per call: name, start, end, parent, kind, thread, and the
chunk/batch tag of the work it served.  Spans stay in memory until the
run ends; :func:`attribute` then turns them into self times.

**Parents.**  A synchronous call's parent is the innermost open
synchronous span on its thread; failing that, the task-local span of
the coroutine that caused it (``asyncio.to_thread`` carries it into the
rebuild thread); failing that, on the server's executor thread, the
span that last handed work to it (``serve_bulk``, ``apply_writes`` or a
batch dispatch).  An asynchronous call's parent is its task's span.

**Self time.**  A span's self time is its duration minus what its open
children cover.  Flows overlap -- 256 clients, two chunks in flight,
the background rebuild thread -- so the sweep in :func:`attribute`
splits each instant evenly among the spans that could be running then
(open spans with no open child), because the pinned CPU time-slices
them.  Kinds refine "could be running":

* ``SYNC``: a thread executing a wrapped function; it excludes the
  asynchronous spans of its own thread (one thread runs one thing);
* ``ACTIVE``: a coroutine whose own code runs on the event loop when
  it has no open child (``serve_bulk``, router calls, a dispatch);
* ``REMOTE``: an RPC whose work runs in a worker process;
* ``PASSIVE``: the batcher's ``collect``, which mostly waits on its
  queue; it takes no time itself (see below);
* ``WAIT``: never takes time (the point lane's harness root, whose 256
  clients are all parked on futures).

High-rate leaf work is folded into a span as ``(count, seconds)``
instead of being stored call by call: ``ServeMetrics.record_response``
into its parent, and, while a ``collect`` waits, each step of the
coroutines that run on the event loop meanwhile -- ``collect`` itself,
the server's ``lookup``/``range_query``, the point lane's clients --
into that ``collect`` (see :class:`Steps`).  The sweep hands a span's
self time to its folds first.

**Idle time.**  An instant in which no span could be running is idle
and goes to the ``PASSIVE`` spans open then, as idle time, not self
time.  While a ``collect`` waits, the event loop's time blocked in its
selector is folded into it too (``loop.select``).  A ``collect``'s idle
time is then split three ways: the steps folded into it; the time the
loop sat in its selector, which stays unexplained; and the rest, when
the loop thread ran but no timed step did -- task switches, callbacks,
the tasks ``asyncio.wait_for`` starts -- booked as ``loop.busy``.
Idle time outside any ``PASSIVE`` span stays unexplained.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

SYNC, ACTIVE, REMOTE, PASSIVE, WAIT = range(5)

#: Fold names of the event loop's time blocked in its selector, and of
#: the rest of a ``collect``'s idle time (see module docstring).
SELECT = "loop.select"
LOOP_BUSY = "loop.busy"

# Span record fields (a list per span, appended under the GIL).
NAME, START, END, PARENT, KIND, THREAD, TAG, COUNT, FOLD = range(9)

_now = time.perf_counter


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._local = threading.local()
        self._task_span: "contextvars.ContextVar[int | None]" = \
            contextvars.ContextVar("servebench_span", default=None)
        #: Chunk/batch tag the harness sets around a call.
        self.tag: "contextvars.ContextVar[Any]" = \
            contextvars.ContextVar("servebench_tag", default=None)
        self._handoff: "int | None" = None
        self._patches: "list[tuple]" = []
        #: Open ``server.dispatch`` span per batcher (see collect wrapper).
        self._dispatch: "dict[int, int]" = {}
        #: The ``collect`` span currently waiting, if any.
        self._collecting: "int | None" = None
        #: Per-request queue waits (s) of each batch ``collect`` returned.
        self.queue_waits: "list[np.ndarray]" = []

    # -- span store ------------------------------------------------------

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _sync_parent(self) -> "int | None":
        stack = self._stack()
        if stack:
            return stack[-1]
        parent = self._task_span.get()
        if parent is None and threading.current_thread().name.startswith(
                "repro-serve"):
            parent = self._handoff
        return parent

    def open(self, name: str, kind: int, parent: "int | None",
             tag: Any = None, count: int = 0) -> int:
        if tag is None:
            tag = self.tag.get()
            if tag is None and parent is not None:
                tag = self.spans[parent][TAG]
        rec = [name, _now(), None, parent, kind, threading.get_ident(),
               tag, count, None]
        self.spans.append(rec)
        return len(self.spans) - 1

    def close(self, sid: int, count: "int | None" = None) -> None:
        rec = self.spans[sid]
        rec[END] = _now()
        if count is not None:
            rec[COUNT] = count

    def fold(self, sid: "int | None", name: str, seconds: float) -> None:
        """Account a high-rate leaf call to span ``sid`` in aggregate."""
        if sid is None:
            return
        rec = self.spans[sid]
        if rec[FOLD] is None:
            rec[FOLD] = {}
        n, s = rec[FOLD].get(name, (0, 0.0))
        rec[FOLD][name] = (n + 1, s + seconds)

    def fold_collect(self, name: str, seconds: float) -> None:
        """Fold event-loop work done while ``collect`` waits into it.

        The point lane's clients run between batches, inside the
        server's ``collect`` window, so their per-request work is taken
        out of that span's idle time.
        """
        self.fold(self._collecting, name, seconds)

    def root(self, name: str, kind: int) -> int:
        """Open a flow root and make it the calling task's span."""
        sid = self.open(name, kind, None)
        self._task_span.set(sid)
        return sid

    def sync_span(self, name: str):
        """Context manager: a ``SYNC`` span around harness code."""
        return _SyncSpan(self, name)

    # -- patching --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched entry point (also in forked workers)."""
        while self._patches:
            owner, attr, orig, had = self._patches.pop()
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def wrap(self, owner: Any, attr: str, name: str, kind: int = ACTIVE,
             count: "Callable | None" = None,
             done: "Callable | None" = None,
             handoff: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        Coroutine functions get a span of ``kind``; plain functions a
        ``SYNC`` span.

        ``count(args)`` gives the work size stored with the span (keys,
        writes); ``done(args, result, sid)`` may amend the record.
        ``handoff`` marks coroutines that pass work to the server's
        executor thread.
        """
        orig = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(orig):
            @functools.wraps(orig)
            async def wrapper(*args, **kwargs):
                sid = tracer.open(name, kind, tracer._task_span.get(),
                                  count=count(args) if count else 0)
                token = tracer._task_span.set(sid)
                if handoff:
                    tracer._handoff = sid
                try:
                    result = await orig(*args, **kwargs)
                finally:
                    tracer._task_span.reset(token)
                    tracer.close(sid)
                if done is not None:
                    done(args, result, sid)
                return result
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                sid = tracer.open(name, SYNC, tracer._sync_parent(),
                                  count=count(args) if count else 0)
                stack = tracer._stack()
                stack.append(sid)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    stack.pop()
                    tracer.close(sid)
                if done is not None:
                    done(args, result, sid)
                return result

        self._patch(owner, attr, wrapper)

    def wrap_steps(self, owner: Any, attr: str, name: str) -> None:
        """Fold each step of every ``owner.attr`` coroutine into the
        ``collect`` span waiting while it runs (see :class:`Steps`)."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return Steps(orig(*args, **kwargs), tracer, name)

        self._patch(owner, attr, wrapper)

    def wrap_selector(self, selector_cls: Any) -> None:
        """Fold the event loop's time blocked in ``selector_cls.select``
        into the waiting ``collect`` span, as ``SELECT``."""
        orig = selector_cls.select
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            start = _now()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.fold(tracer._collecting, SELECT, _now() - start)

        self._patch(selector_cls, "select", wrapper)

    def wrap_folded(self, owner: Any, attr: str, name: str) -> None:
        """Fold every call of ``owner.attr`` into its parent span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            start = _now()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.fold(tracer._sync_parent(), name, _now() - start)

        self._patch(owner, attr, wrapper)

    def wrap_collect(self, batcher_cls: Any) -> None:
        """``MicroBatcher.collect`` plus the dispatch span that follows.

        A server loop alternates ``collect`` and dispatching the batch
        it returned; the dispatch (array building, ``serve_batch``,
        resolving every future) has no entry point of its own, so the
        span ``server.dispatch`` runs from ``collect``'s return to the
        loop's next ``collect`` call.
        """
        orig = batcher_cls.collect
        tracer = self

        @functools.wraps(orig)
        async def wrapper(batcher, *args, **kwargs):
            prev = tracer._dispatch.pop(id(batcher), None)
            if prev is not None:
                tracer.close(prev)
            sid = tracer.open("batcher.collect", PASSIVE, None,
                              tag=len(tracer.queue_waits))
            tracer._collecting = sid
            try:
                batch = await Steps(orig(batcher, *args, **kwargs), tracer,
                                    "batcher.collect", sid)
            finally:
                if tracer._collecting == sid:
                    tracer._collecting = None
                tracer.close(sid)
            tracer.spans[sid][COUNT] = len(batch) if batch else 0
            if batch:
                now = time.monotonic()
                tracer.queue_waits.append(np.fromiter(
                    (now - r.enqueued_at for r in batch), dtype=np.float64,
                    count=len(batch)))
                d = tracer.open("server.dispatch", ACTIVE, None,
                                tag=tracer.spans[sid][TAG])
                tracer._dispatch[id(batcher)] = d
                tracer._handoff = d
                # Set in the server loop task's context: its resolve
                # calls (record_response) fold into this dispatch.
                tracer._task_span.set(d)
            return batch

        self._patch(batcher_cls, "collect", wrapper)

    def finish(self, end: float) -> None:
        """Close spans still open at ``end`` (e.g. a parked ``collect``)."""
        for rec in self.spans:
            if rec[END] is None:
                rec[END] = end


class Steps:
    """Awaitable that runs a coroutine and times each of its steps.

    A step is the stretch between two suspensions: the coroutine's own
    code, with the event loop's scheduling left out.  Each step is
    folded as ``name`` into span ``sid``, or, without one, into the
    ``collect`` span waiting at that moment (none: not recorded).
    """

    __slots__ = ("coro", "tracer", "name", "sid")

    def __init__(self, coro: Any, tracer: Tracer, name: str,
                 sid: "int | None" = None) -> None:
        self.coro = coro
        self.tracer = tracer
        self.name = name
        self.sid = sid

    def __await__(self):
        coro = self.coro
        value: Any = None
        error: "BaseException | None" = None
        while True:
            start = _now()
            try:
                if error is None:
                    awaited = coro.send(value)
                else:
                    awaited = coro.throw(error)
            except StopIteration as stop:
                self._fold(_now() - start)
                return stop.value
            except BaseException:
                self._fold(_now() - start)
                raise
            self._fold(_now() - start)
            try:
                value, error = (yield awaited), None
            except BaseException as exc:  # handed on to the coroutine
                value, error = None, exc

    def _fold(self, seconds: float) -> None:
        tracer = self.tracer
        sid = self.sid if self.sid is not None else tracer._collecting
        tracer.fold(sid, self.name, seconds)


class _SyncSpan:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        t = self.tracer
        self.sid = t.open(self.name, SYNC, t._sync_parent())
        t._stack().append(self.sid)
        return self.sid

    def __exit__(self, *exc) -> None:
        self.tracer._stack().pop()
        self.tracer.close(self.sid)


def layer_of(name: str) -> str:
    """A span's layer: its name up to the first dot."""
    return name.split(".", 1)[0]


def attribute(spans: "list[list]", t0: float,
              t1: float) -> "tuple[np.ndarray, dict[str, float]]":
    """Self time of every span inside ``[t0, t1]`` (see module docstring).

    Returns the per-span self seconds and the folded seconds per folded
    call name (already taken out of their parents' self or idle time).
    """
    n = len(spans)
    self_s = np.zeros(n)
    idle_s = np.zeros(n)
    events: "list[tuple[float, int, int]]" = []
    for sid, rec in enumerate(spans):
        start, end = max(rec[START], t0), min(rec[END], t1)
        if end > start:
            events.append((start, 1, sid))
            events.append((end, 0, sid))
    events.sort()
    open_children = defaultdict(int)
    is_open: "set[int]" = set()
    leaves: "set[int]" = set()
    prev = t0
    for when, opening, sid in events:
        if when > prev and leaves:
            _share(spans, leaves, when - prev, self_s, idle_s)
        prev = max(prev, when)
        parent = spans[sid][PARENT]
        if parent is not None and parent not in is_open:
            parent = None  # parent lies outside the window
        if opening:
            is_open.add(sid)
            leaves.add(sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if not open_children[parent]:
                    leaves.add(parent)
    folded: "dict[str, float]" = defaultdict(float)
    for sid, rec in enumerate(spans):
        passive = rec[KIND] == PASSIVE
        pool = idle_s[sid] if passive else self_s[sid]
        if pool <= 0:
            continue
        start, end = max(rec[START], t0), min(rec[END], t1)
        inside = (end - start) / (rec[END] - rec[START]) \
            if rec[END] > rec[START] else 0.0
        folds = rec[FOLD] or {}
        work = {name: s for name, (_, s) in folds.items() if name != SELECT}
        total = sum(work.values())
        if total:
            give = min(total * inside, pool)
            for name, s in work.items():
                folded[name] += give * s / total
            pool -= give
        if passive:
            if SELECT in folds:
                pool -= min(folds[SELECT][1] * inside, pool)
                folded[LOOP_BUSY] += pool
        else:
            self_s[sid] = pool
    return self_s, dict(folded)


def _share(spans, leaves, dt, self_s, idle_s) -> None:
    """Split ``dt`` among the spans that could be running; an idle
    instant goes to the idle time of the ``PASSIVE`` spans open then."""
    busy_threads = {spans[s][THREAD] for s in leaves
                    if spans[s][KIND] == SYNC}
    runnable = [s for s in leaves
                if spans[s][KIND] in (SYNC, REMOTE)
                or (spans[s][KIND] == ACTIVE
                    and spans[s][THREAD] not in busy_threads)]
    into = self_s
    if not runnable:
        runnable = [s for s in leaves if spans[s][KIND] == PASSIVE
                    and spans[s][THREAD] not in busy_threads]
        into = idle_s
    if runnable:
        share = dt / len(runnable)
        for s in runnable:
            into[s] += share
