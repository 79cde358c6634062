"""Rebuilds in bounded steps on the serving loop.

* ``RMI.build_steps`` runs the ``cext`` build as steps of at most the
  backend's ``step_keys`` key visits, each routing a range of keys and
  fitting the leaves completed on the way -- a leaf larger than a step,
  as on skewed keys, is fitted over several -- and its result equals
  ``RMIAsIndex(keys)`` and the staged NumPy build bit for bit; builds
  without bounded steps have no stepwise form.
* The snapshot (``WritableIndex.snapshot_steps``, the backend's
  ``merge_live_steps``) is bounded the same way and equals
  ``begin_rebuild``.
* ``IndexServer.rebuild`` runs those steps on the loop thread: one after
  each write batch and none inside a read; with no writes, the rebuild
  runs the rest itself; a factory without a stepwise form builds in a
  worker thread; a step that raises publishes nothing.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools

import numpy as np
import pytest

from repro import data, kernels
from repro.baselines import INDEX_TYPES
from repro.baselines.rmi_adapter import RMIAsIndex
from repro.core.rmi import RMI
from repro.kernels.base import run_steps
from repro.serve import server as server_module
from repro.serve.server import IndexServer
from repro.writable import RebuildDaemon, WritableIndex
from repro.writable.rebuild import IndexFactory, build_steps

#: A small step, so a test-sized build takes many: the build pass
#: routes ``STEP // 4`` keys per step (four visits per key), the
#: snapshot merges ``STEP``.
STEP = 4000

#: The smallest step the build supports exactly: a step fits at least
#: one block (128 terms) of a leaf's pairwise sums.
MIN_STEP = 4 * 128 // 3 + 1

needs_cext = pytest.mark.skipif(not kernels.backend_available("cext"),
                                reason="cext backend not available")


@pytest.fixture
def cext_steps(monkeypatch):
    """The ``cext`` backend as the default, with ``STEP``-key steps."""
    backend = kernels.get_backend("cext")
    monkeypatch.setattr(backend, "step_keys", STEP)
    with kernels.use_backend(backend):
        yield backend


def _keys(n: int = 40_000, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.integers(0, 2**50, n, dtype=np.uint64))


def _drive(steps):
    """Run a step generator; returns its result and each step's work."""
    work = []
    while True:
        try:
            work.append(next(steps))
        except StopIteration as stop:
            return stop.value, work


def _same_rmi(got: RMI, want: RMI) -> None:
    """Every array the kernels read, and the build's accounting."""
    packed, reference = kernels.pack_rmi(got), kernels.pack_rmi(want)
    for field in dataclasses.fields(reference):
        a, b = getattr(packed, field.name), getattr(reference, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b
    np.testing.assert_array_equal(got._leaf_counts, want._leaf_counts)
    assert type(got.bounds) is type(want.bounds)
    assert got.build_stats.fit_path == want.build_stats.fit_path
    assert got.build_stats.keys_touched == want.build_stats.keys_touched


# ---------------------------------------------------------------------------
# The build's steps
# ---------------------------------------------------------------------------


@needs_cext
@pytest.mark.parametrize("bound_type", ["labs", "lind", "gabs"])
def test_stepwise_build_is_bounded_and_bit_identical(cext_steps, bound_type):
    keys = _keys()
    config = dataclasses.replace(
        RMIAsIndex(keys[:100], layer2_size=64).config, bound_type=bound_type)
    index, work = _drive(RMIAsIndex.build_steps(keys, config=config))
    # Besides the O(1) root fit, each step routes STEP // 4 keys (and
    # checks their order), then fits the leaves whose keys are all
    # routed within the rest of STEP.  Every key is visited four times.
    assert max(work) <= STEP
    assert sum(work) == 4 * len(keys)
    assert len(work) <= -(-4 * len(keys) // STEP) + 1
    want = RMIAsIndex(keys, config=config)
    assert isinstance(index, RMIAsIndex) and index.config == config
    _same_rmi(index.rmi, want.rmi)
    q = np.concatenate([keys[::7], keys[::11] + np.uint64(1)])
    np.testing.assert_array_equal(index.lookup_batch(q),
                                  np.searchsorted(keys, q))


@needs_cext
@pytest.mark.parametrize("step", [MIN_STEP, 1000, STEP])
@pytest.mark.parametrize("dataset", ["fb", "osmc", "wiki"])
def test_a_skewed_build_stays_bounded(monkeypatch, dataset, step):
    # fb's outliers near 2^64 send all but a few keys to one leaf of the
    # LS root: a leaf many steps long, fitted over several.
    monkeypatch.setattr(kernels.get_backend("cext"), "step_keys", step)
    keys = data.generate(dataset, n=20_000)
    with kernels.use_backend("cext"):
        rmi, work = _drive(RMI.build_steps(keys, layer_sizes=(64,)))
    assert max(work) <= step
    assert sum(work) == 4 * len(keys)
    if dataset == "fb":
        assert rmi._leaf_counts.max() > 4 * step
    # Bit for bit the staged NumPy build, wherever the steps cut a fit.
    with kernels.use_backend("numpy"):
        staged = RMI(keys, layer_sizes=(64,))
    np.testing.assert_array_equal(rmi.leaf_model_ids, staged.leaf_model_ids)
    packed, reference = kernels.pack_rmi(rmi), kernels.pack_rmi(staged)
    for field in dataclasses.fields(reference):
        a, b = getattr(packed, field.name), getattr(reference, field.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))
        else:
            assert a == b


@needs_cext
def test_the_stepwise_build_checks_the_key_order(cext_steps):
    keys = _keys(5000)
    keys[3000], keys[3001] = keys[3001], keys[3000]
    steps = RMI.build_steps(keys, layer_sizes=(16,))
    with pytest.raises(ValueError, match="sorted"):
        run_steps(steps)


def test_builds_without_bounded_steps_have_no_stepwise_form():
    keys = _keys(5000)
    with kernels.use_backend("numpy"):
        assert RMI.build_steps(keys, layer_sizes=(16,)) is None
        assert build_steps(IndexFactory.of(RMIAsIndex(keys)), keys) is None
    if not kernels.backend_available("cext"):
        return
    with kernels.use_backend("cext"):
        # The LR root fit reads every key; NB has no bounds kernel.
        assert RMI.build_steps(keys, model_types=("lr", "lr")) is None
        assert RMI.build_steps(keys, bound_type="nb") is None
        assert build_steps(INDEX_TYPES["pgm-index"], keys) is None
        assert build_steps(lambda k: RMIAsIndex(k), keys) is None
        for factory in (IndexFactory.of(RMIAsIndex(keys)), RMIAsIndex,
                        functools.partial(RMIAsIndex, layer2_size=64)):
            assert build_steps(factory, keys) is not None


@needs_cext
def test_an_active_cache_builds_in_one_call(tmp_path):
    from repro import cache as artifact_cache

    keys = _keys(5000)
    factory = IndexFactory.of(RMIAsIndex(keys))
    artifact_cache.activate(tmp_path)
    try:
        with kernels.use_backend("cext"):
            assert factory.steps(keys) is None
    finally:
        artifact_cache.deactivate()


# ---------------------------------------------------------------------------
# The snapshot's steps
# ---------------------------------------------------------------------------


@needs_cext
def test_the_snapshot_steps_are_bounded(cext_steps):
    keys = _keys()
    windex = WritableIndex(RMIAsIndex(keys, layer2_size=64))
    rng = np.random.default_rng(4)
    windex.apply(rng.integers(0, 2**50, 3000, dtype=np.uint64),
                 rng.integers(0, 2, 3000).astype(np.int8))
    ticket, work = _drive(windex.snapshot_steps())
    assert max(work) <= STEP
    assert sum(work) == len(keys) + windex.delta_len
    want = windex.begin_rebuild()
    np.testing.assert_array_equal(ticket.live_keys, want.live_keys)
    assert ticket.watermark == want.watermark
    assert ticket.base is want.base


# ---------------------------------------------------------------------------
# The served rebuild
# ---------------------------------------------------------------------------


def _serve(keys):
    windex = WritableIndex(RMIAsIndex(keys, layer2_size=64))
    return windex, IndexServer(windex)


@needs_cext
def test_writes_pay_for_the_steps_and_reads_do_not(cext_steps, monkeypatch):
    # Writes keep arriving: however slow the host, the rebuild must not
    # start running its own steps.
    monkeypatch.setattr(server_module, "IDLE_STEP_S", 60.0)
    keys = _keys()
    windex, server = _serve(keys)
    reading = [False]
    ran = []
    run_one = server_module._Steps.run_one

    def recording(self):
        ran.append(reading[0])
        run_one(self)

    monkeypatch.setattr(server_module._Steps, "run_one", recording)
    rng = np.random.default_rng(5)

    async def go():
        await server.start()
        await server.apply_writes(np.array([3], dtype=np.uint64),
                                  np.array([1], dtype=np.int8))
        daemon = RebuildDaemon(windex, server=server, min_delta=1)
        rebuild = asyncio.create_task(daemon.rebuild_now())
        segments = 0
        while not rebuild.done():
            await server.apply_writes(
                rng.integers(0, 2**50, 64, dtype=np.uint64),
                np.ones(64, dtype=np.int8))
            reading[0] = True
            q = rng.integers(0, 2**50, 256, dtype=np.uint64)
            await server.serve_bulk(q, q[:0], q[:0])
            reading[0] = False
            segments += 1
        assert await rebuild
        await server.stop()
        return segments

    segments = asyncio.run(go())
    assert not any(ran)  # no step ran inside a read
    assert len(ran) >= 4 * len(keys) // STEP  # the rebuild took many steps
    assert segments >= len(ran) - 1  # one step per write batch at most
    assert server.metrics.swaps.value == 1


@needs_cext
def test_without_writes_the_rebuild_runs_its_own_steps(cext_steps):
    keys = _keys()
    windex, server = _serve(keys)
    windex.apply(np.array([5, 7], dtype=np.uint64),
                 np.array([1, 1], dtype=np.int8))

    async def go():
        await server.start()
        previous = await server.rebuild()
        await server.stop()
        return previous

    assert isinstance(asyncio.run(go()), IndexFactory)
    assert windex.delta_len == 0
    assert windex.base.n == len(keys) + 2


def test_a_factory_without_steps_builds_in_a_thread(monkeypatch):
    keys = _keys(5000)
    windex, server = _serve(keys)
    threads = []
    to_thread = asyncio.to_thread

    async def counting(fn, *args):
        threads.append(fn)
        return await to_thread(fn, *args)

    monkeypatch.setattr(server_module.asyncio, "to_thread", counting)

    async def go():
        await server.start()
        await server.rebuild(INDEX_TYPES["pgm-index"])
        await server.stop()

    asyncio.run(go())
    assert threads == [INDEX_TYPES["pgm-index"]]
    assert type(windex.base).__name__ == "PGMIndex"


class _Failing:
    """A stepwise factory whose second step raises."""

    @classmethod
    def build_steps(cls, keys):
        return cls._steps()

    @staticmethod
    def _steps():
        yield 1
        raise RuntimeError("build failed")


@pytest.mark.parametrize("with_writes", [False, True])
def test_a_step_that_raises_publishes_nothing(with_writes):
    keys = _keys(5000)
    windex, server = _serve(keys)
    base = windex.base

    async def go():
        await server.start()
        rebuild = asyncio.create_task(server.rebuild(_Failing))
        while with_writes and not rebuild.done():
            await server.apply_writes(np.array([9], dtype=np.uint64),
                                      np.array([1], dtype=np.int8))
        with pytest.raises(RuntimeError, match="build failed"):
            await rebuild
        await server.stop()

    asyncio.run(go())
    assert windex.base is base
    assert server.factory is None
    assert server.metrics.swaps.value == 0
    assert server._steps is None
