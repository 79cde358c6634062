"""A stateful test of the served writable tier.

One ``IndexServer`` over a ``WritableIndex`` with an RMI base, on an
event loop that the rules step, once per loadable kernel backend.  The
rules interleave write bursts (``apply_writes``), bulk reads
(``serve_bulk``), rebuilds started as tasks (``RebuildDaemon.rebuild_now``),
loop passes with no write (long enough for a rebuild to run its own
steps), factory swaps to another leaf count, and rebuilds whose factory
raises.  On ``cext`` a step is a few keys, so a rebuild's snapshot,
build and publication interleave with the other rules.

Invariants: every read equals ``np.searchsorted`` over the oracle's
live multiset; the served view's bucket table equals one counted from
scratch against its base; every rebuild publishes once or not at all;
at teardown the live keys equal the oracle's.  A failure shrinks to an
op trace.
"""

from __future__ import annotations

import asyncio
import functools

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import kernels
from repro.baselines.rmi_adapter import RMIAsIndex
from repro.kernels.base import BUCKET_SHIFT, table_size
from repro.serve.server import IDLE_STEP_S, IndexServer
from repro.writable import OP_INSERT, OP_TOMBSTONE, RebuildDaemon, \
    WritableIndex

from .test_writable import _LiveOracle

MAX = 2**64 - 1

#: Few distinct values, so writes hit base duplicates and each other.
_POOL = [0, 1, 2, 3, 5, 8, 13, 2**32, 2**63, MAX - 1, MAX]
_key = st.one_of(st.sampled_from(_POOL), st.integers(0, 2**40))
_writes = st.lists(st.tuples(_key, st.booleans()), min_size=1, max_size=24)

#: A step of a few keys on ``cext``: the build pass routes a quarter.
_STEP_VISITS = 32


class _Failing:
    """A stepwise factory whose second step raises."""

    @classmethod
    def build_steps(cls, keys):
        return cls._steps()

    @staticmethod
    def _steps():
        yield 1
        raise RuntimeError("build failed")


class ServedWritableMachine(RuleBasedStateMachine):
    backend_name = "numpy"

    def __init__(self) -> None:
        super().__init__()
        self._use = kernels.use_backend(self.backend_name)
        self.backend = self._use.__enter__()
        self._step_keys = self.backend.step_keys
        self.backend.step_keys = _STEP_VISITS
        self.loop = asyncio.new_event_loop()
        self.tasks: "list[tuple[asyncio.Task, str]]" = []
        self.published = 0

    @initialize(base=st.lists(_key, min_size=1, max_size=60))
    def start(self, base) -> None:
        keys = np.sort(np.array(base, dtype=np.uint64))
        self.oracle = _LiveOracle(keys)
        self.windex = WritableIndex(RMIAsIndex(keys, layer2_size=8))
        self.server = IndexServer(self.windex)
        self.daemon = RebuildDaemon(self.windex, server=self.server)
        self.run(self.server.start())

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    # -- rules -------------------------------------------------------------

    @rule(writes=_writes)
    def write(self, writes) -> None:
        keys = np.array([k for k, _ in writes], dtype=np.uint64)
        ops = np.array([OP_INSERT if ins else OP_TOMBSTONE
                        for _, ins in writes], dtype=np.int8)
        assert self.run(self.server.apply_writes(keys, ops)) == len(keys)
        self.oracle.apply(keys, ops)

    @rule(points=st.lists(_key, max_size=16),
          ranges=st.lists(st.tuples(_key, _key), max_size=8))
    def read(self, points, ranges) -> None:
        points = np.array(points, dtype=np.uint64)
        lows = np.array([min(r) for r in ranges], dtype=np.uint64)
        highs = np.array([max(r) for r in ranges], dtype=np.uint64)
        positions, starts, counts = self.run(
            self.server.serve_bulk(points, lows, highs))
        live = self.oracle.live
        np.testing.assert_array_equal(
            positions, np.searchsorted(live, points, side="left"))
        np.testing.assert_array_equal(
            starts, np.searchsorted(live, lows, side="left"))
        np.testing.assert_array_equal(
            starts + counts, np.searchsorted(live, highs, side="left"))

    @rule()
    def start_rebuild(self) -> None:
        self.spawn(self.daemon.rebuild_now(force=True), "daemon")

    @rule(leaves=st.sampled_from([4, 16]))
    def swap_factory(self, leaves) -> None:
        factory = functools.partial(RMIAsIndex, layer2_size=leaves)
        self.spawn(self.server.rebuild(factory), "swap")

    @rule()
    def failing_rebuild(self) -> None:
        self.spawn(self.server.rebuild(_Failing), "failing")

    @rule(long=st.booleans())
    def idle(self, long) -> None:
        """A loop pass with no write; a long one lets a rebuild start
        running its own steps."""
        self.run(asyncio.sleep(2 * IDLE_STEP_S if long else 0))

    def spawn(self, coro, kind: str) -> None:
        self.tasks.append((self.loop.create_task(coro), kind))

    # -- invariants --------------------------------------------------------

    @invariant()
    def the_served_table_counts_the_delta(self) -> None:
        """The served view's bucket table, kept by every write and
        publication, equals one counted from scratch against its base."""
        if not hasattr(self, "windex"):
            return
        view = self.windex._view
        base_keys = np.asarray(view.base.keys)
        buckets = np.arange(table_size(len(base_keys)), dtype=np.int64)
        np.testing.assert_array_equal(view.table(), np.searchsorted(
            np.searchsorted(base_keys, view.delta.keys),
            buckets << BUCKET_SHIFT))

    @invariant()
    def each_rebuild_publishes_once_or_not_at_all(self) -> None:
        if not hasattr(self, "server"):
            return
        for task, kind in [t for t in self.tasks if t[0].done()]:
            self.tasks.remove((task, kind))
            if kind == "failing":  # raises, or finds no live key
                error = task.exception()
                assert isinstance(error, RuntimeError) or (
                    error is None and task.result() is None)
                continue
            result = task.result()
            # The daemon says whether it swapped; a direct rebuild
            # returns None only when no key is live.
            self.published += bool(result) if kind == "daemon" \
                else result is not None
        # A write may have run the publication of the rebuild still
        # running (rebuilds run one at a time).
        swaps = self.server.metrics.swaps.value
        assert self.published <= swaps <= self.published + bool(self.tasks)

    async def _drain(self) -> None:
        """Let every rebuild finish: with no writes, each runs its own
        steps."""
        await asyncio.gather(*(t for t, _ in self.tasks),
                             return_exceptions=True)

    def teardown(self) -> None:
        try:
            if hasattr(self, "server"):
                self.run(self._drain())
                self.each_rebuild_publishes_once_or_not_at_all()
                assert self.server._steps is None
                np.testing.assert_array_equal(self.windex.keys,
                                              self.oracle.live)
                self.run(self.server.stop())
        finally:
            self.loop.close()
            self.backend.step_keys = self._step_keys
            self._use.__exit__(None, None, None)


_SETTINGS = settings(max_examples=40, stateful_step_count=30,
                     deadline=None)


def _machine_for(name: str):
    machine = type(f"ServedWritable_{name}", (ServedWritableMachine,),
                   {"backend_name": name})
    machine.TestCase.settings = _SETTINGS
    return machine


TestServedWritableNumpy = _machine_for("numpy").TestCase
if kernels.backend_available("cext"):
    TestServedWritableCext = _machine_for("cext").TestCase
