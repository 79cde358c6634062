"""Where ``IndexServer`` runs its index calls: inline, after one yield.

``serve_batch``, ``apply`` and the start-up warm-up run on the event
loop thread; ``serve_batch`` and ``apply`` each after one
``asyncio.sleep(0)``.  There is no worker thread.  The tests check

* that every index call runs on the loop thread;
* that a closed loop of such calls still lets a task beside it (a
  rebuild) run and finish mid-loop -- the yield's job.

pytest-asyncio is not a dependency, so every test drives its own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np

from repro.baselines import BinarySearchIndex
from repro.serve import IndexServer
from repro.writable import RebuildDaemon, WritableIndex

from . import test_writable_serve as writable_serve_tests
from .conftest import lower_bound_oracle


class SpyIndex(WritableIndex):
    """Records the thread of every index call the server makes."""

    def __init__(self, base) -> None:
        super().__init__(base)
        self.calls: "list[tuple[str, int]]" = []

    def _saw(self, what: str) -> None:
        self.calls.append((what, threading.get_ident()))

    def warm_kernels(self) -> None:
        self._saw("warm")
        super().warm_kernels()

    def serve_batch(self, *args):
        self._saw("serve_batch")
        return super().serve_batch(*args)

    def apply(self, keys, ops) -> int:
        self._saw("apply")
        return super().apply(keys, ops)


def test_index_calls_run_on_the_loop_thread():
    keys = writable_serve_tests._keys(n=4_000)
    index = SpyIndex(BinarySearchIndex(keys))

    async def run():
        async with IndexServer(index) as server:
            await server.lookup(int(keys[5]))
            await server.serve_bulk(keys[:8], keys[:2], keys[2:4])
            await server.apply_writes(keys[:3] + np.uint64(1),
                                      np.ones(3, dtype=np.int8))
        return threading.get_ident()

    loop_thread = asyncio.run(run())
    assert [what for what, _ in index.calls] == [
        "warm", "serve_batch", "serve_batch", "apply"]
    assert {ident for _, ident in index.calls} == {loop_thread}


def test_closed_loop_lets_a_rebuild_finish_mid_loop():
    """Index calls that never had to wait would starve every other
    task for as long as the caller keeps calling; the yield in each
    call is what lets a rebuild beside the loop run to its swap."""
    keys = writable_serve_tests._keys()
    pool = np.setdiff1d(keys[::97] + np.uint64(1), keys)[:64]
    probes = keys[::53]
    empty = np.empty(0, dtype=np.uint64)
    windex = WritableIndex(BinarySearchIndex(keys))

    async def run():
        async with IndexServer(windex) as server:
            daemon = RebuildDaemon(windex, server=server)
            await server.apply_writes(pool[:1], np.ones(1, dtype=np.int8))
            rebuild = asyncio.create_task(daemon.rebuild_now())
            calls = 0
            deadline = time.monotonic() + 10.0
            while not rebuild.done() and time.monotonic() < deadline:
                calls += 1
                await server.serve_bulk(probes, empty, empty)
                await server.apply_writes(pool[calls % len(pool):][:1],
                                          np.ones(1, dtype=np.int8))
            done_mid_loop = rebuild.done()
            swapped = await rebuild
            positions, _, _ = await server.serve_bulk(probes, empty, empty)
        return done_mid_loop, swapped, calls, server.metrics, positions

    done_mid_loop, swapped, calls, metrics, positions = asyncio.run(run())
    assert done_mid_loop, "rebuild never ran while the closed loop did"
    assert swapped and int(metrics.swaps.value) == 1
    inserted = pool[[0] + [i % len(pool) for i in range(1, calls + 1)]]
    live = np.union1d(keys, inserted)
    np.testing.assert_array_equal(np.asarray(windex.keys), live)
    np.testing.assert_array_equal(positions, lower_bound_oracle(live, probes))

