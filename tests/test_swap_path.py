"""One swap path: every change of a served index is one rebuild.

:meth:`~repro.serve.server.IndexServer.rebuild` is the only code that
changes what a server (or a shard, in a cluster worker or in
:class:`~repro.serve.router.LocalBackend`) serves.  The rebuild daemon,
the autotuner's swap and rollback, and ``ShardRouter.swap_shard`` all
call it.  This file pins what that buys where those features meet:

* a tuner swap on a writable server keeps it writable, and the daemon's
  later cycles keep the tuner's configuration;
* a rebuild given no factory keeps the base's configuration, and the
  artifact cache keys a rebuild by that configuration;
* a factory swap of a writable shard keeps the writes it holds, and the
  tuner's rollback on a cluster shard rebuilds the previous factory;
* the tuner scores a cluster shard's incumbent and plans over its live
  keys, both learned from the shard's ``describe`` call;
* overlapping rebuild requests run one at a time and lose no write;
* one seeded run composes writes, both read lanes, daemon cycles, a
  tuner swap and a forced rollback, on a server and on a router, with
  every read checked against the live multiset.

No pytest-asyncio in the container, so every test drives its own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import cache, data
from repro.autotune import (
    AutoTuner,
    CandidateConfig,
    Planner,
    TunerConfig,
    TunerTarget,
    WorkloadSampler,
    infer_config,
)
from repro.baselines import RMIAsIndex
from repro.serve import (
    STATUS_OK,
    Cluster,
    IndexServer,
    LocalBackend,
    ShardRouter,
    plan_shards,
)
from repro.workload import make_mixed_workload
from repro.writable import (
    IndexFactory,
    RebuildDaemon,
    WritableFactory,
    WritableIndex,
)

from .conftest import lower_bound_oracle

EMPTY = np.empty(0, dtype=np.uint64)


def _keys(n: int = 20_000, seed: int = 7) -> np.ndarray:
    return np.ascontiguousarray(data.generate("books", n=n, seed=seed),
                                dtype=np.uint64)


def _leaves(index) -> int:
    """Layer-2 size of an RMI, or of a writable index's RMI base."""
    if isinstance(index, WritableIndex):
        index = index.base
    return int(index.config.layer_sizes[-1])


def _shard_indexes(backend: LocalBackend) -> list:
    """The index each ``LocalBackend`` shard serves now."""
    return [server.index for server in backend._servers]


def _fresh(keys: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` keys absent from ``keys``, inside its span."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(int(keys[0]), int(keys[-1]), 4 * count,
                        dtype=np.uint64)
    return np.setdiff1d(pool, keys)[:count]


def _tuner(target, **cfg_kw) -> AutoTuner:
    planner = Planner(families=("rmi",), rmi_layer2_sizes=(4_096,),
                      calibrate=False, sample_keys=2_048, probe_queries=128)
    config = dict(improvement_threshold=0.05, hysteresis_windows=1,
                  rollback_threshold=0.25, min_window_requests=32)
    config.update(cfg_kw)
    return AutoTuner(target, planner, TunerConfig(**config))


@pytest.fixture(autouse=True)
def _no_active_cache():
    """Start and end every test with no active artifact cache."""
    cache.deactivate()
    yield
    cache.deactivate()


# ----------------------------------------------------------------------
# Writable server: the tuner, the daemon and the configuration
# ----------------------------------------------------------------------


def test_tuner_swap_keeps_a_writable_server_writable():
    """The tuner swaps the base of a writable server, not the server's
    index: writes keep landing, and the daemon's next forced cycle keeps
    the tuner's leaf count."""
    keys = _keys()
    windex = WritableIndex(RMIAsIndex(keys, layer2_size=16))
    fresh = _fresh(keys, 64, seed=3)

    async def run():
        sampler = WorkloadSampler(capacity=1_024, seed=8)
        async with IndexServer(windex, sampler=sampler) as server:
            daemon = RebuildDaemon(windex, server=server)
            tuner = _tuner(TunerTarget(server))
            await tuner.step()  # baseline
            rng = np.random.default_rng(12)
            record = None
            for _ in range(3):
                qs = keys[rng.integers(0, len(keys), 400)]
                await server.serve_bulk(qs, EMPTY, EMPTY)
                record = await tuner.step()
                if record is not None and record["kind"] == "swap":
                    break
            assert record is not None and record["kind"] == "swap"
            assert server.index is windex
            applied = await server.apply_writes(
                fresh, np.ones(len(fresh), dtype=np.int8))
            assert await daemon.rebuild_now(force=True)
            positions, _, _ = await server.serve_bulk(fresh, EMPTY, EMPTY)
        return applied, positions

    applied, positions = asyncio.run(run())
    assert applied == len(fresh)
    assert windex.delta_len == 0
    assert _leaves(windex) == 4_096
    live = np.union1d(keys, fresh)
    np.testing.assert_array_equal(positions, lower_bound_oracle(live, fresh))


def test_rebuild_without_factory_keeps_the_configuration():
    """The inline rebuild, the server's rebuild and the daemon's cycle
    all rebuild the base's own configuration when given no factory."""
    keys = _keys(n=8_000)
    fresh = _fresh(keys, 30, seed=5)
    windex = WritableIndex(RMIAsIndex(keys, layer2_size=16))
    windex.insert(int(fresh[0]))
    windex.rebuild()
    assert _leaves(windex) == 16

    async def run():
        async with IndexServer(windex) as server:
            daemon = RebuildDaemon(windex, server=server)
            await server.apply_writes(fresh[1:10],
                                      np.ones(9, dtype=np.int8))
            assert await daemon.rebuild_now(force=True)
            after_daemon = _leaves(windex)
            await server.apply_writes(fresh[10:],
                                      np.ones(len(fresh) - 10, np.int8))
            await server.rebuild()
        return after_daemon

    assert asyncio.run(run()) == 16
    assert _leaves(windex) == 16
    np.testing.assert_array_equal(np.asarray(windex.keys),
                                  np.union1d(keys, fresh))


def test_direct_swap_is_what_a_later_rebuild_rebuilds():
    """``swap_index`` clears the server's factory: a rebuild given none
    after a direct swap rebuilds the swapped-in index, not the factory
    an earlier rebuild was given, and returns that index's factory."""
    keys = _keys(n=8_000)

    async def run():
        async with IndexServer(RMIAsIndex(keys, layer2_size=16)) as server:
            await server.rebuild(IndexFactory(RMIAsIndex, RMIAsIndex(
                keys, layer2_size=64).config))
            server.swap_index(RMIAsIndex(keys, layer2_size=256))
            token = await server.rebuild()
            return token, server.index

    token, served = asyncio.run(run())
    assert (token.cls, _leaves(served)) == (RMIAsIndex, 256)
    assert token.config.layer_sizes[-1] == 256


def test_infer_config_reads_a_writable_index_by_its_base():
    """The tuner knows a writable incumbent, so its first winner must
    clear both the improvement threshold and hysteresis."""
    keys = _keys(n=8_000)
    base = RMIAsIndex(keys, layer2_size=16)
    windex = WritableIndex(base)
    assert infer_config(windex, "numpy") == infer_config(base, "numpy")

    async def run():
        sampler = WorkloadSampler(capacity=1_024, seed=2)
        async with IndexServer(windex, sampler=sampler) as server:
            tuner = _tuner(TunerTarget(server), hysteresis_windows=2)
            await tuner.step()  # baseline
            assert tuner.current is not None
            rng = np.random.default_rng(4)
            records = []
            for _ in range(2):
                qs = keys[rng.integers(0, len(keys), 400)]
                await server.serve_bulk(qs, EMPTY, EMPTY)
                records.append(await tuner.step())
        return records

    first, second = asyncio.run(run())
    assert first["kind"] == "hold" and "hysteresis" in first["reason"]
    assert first["incumbent"]["config"].startswith("rmi[l2=16,")
    assert second["kind"] == "swap"
    assert second["predicted_ratio"] <= 1 - 0.05


# ----------------------------------------------------------------------
# The artifact cache keys a rebuild by its configuration
# ----------------------------------------------------------------------


def test_rebuild_cache_keys_on_the_configuration(tmp_path):
    keys = _keys(n=6_000)
    live = np.union1d(keys, _fresh(keys, 50, seed=9))
    store = cache.activate(tmp_path)
    factories = [IndexFactory.of(RMIAsIndex(keys, layer2_size=size))
                 for size in (16, 64)]
    built = [factory(live) for factory in factories]
    assert store.stats()["kinds"]["indexes"]["entries"] == 2
    restored = [factory(live) for factory in factories]
    assert store.hits["indexes"] == 2
    assert [_leaves(ix) for ix in built] == [16, 64]
    assert [_leaves(ix) for ix in restored] == [16, 64]
    queries = live[::37]
    for index in restored:
        np.testing.assert_array_equal(index.lookup_batch(queries),
                                      lower_bound_oracle(live, queries))


# ----------------------------------------------------------------------
# Overlapping rebuilds run one at a time
# ----------------------------------------------------------------------


def test_overlapping_rebuilds_lose_no_write():
    """Two rebuild requests, the first held inside its build by an
    event, with writes landing before and after the second snapshot
    would be taken: every write survives, in the index and its keys."""
    keys = _keys(n=6_000)
    fresh = _fresh(keys, 10, seed=11)
    windex = WritableIndex(RMIAsIndex(keys, layer2_size=64))
    release = threading.Event()

    def held(live_keys):
        release.wait(10)
        return RMIAsIndex(live_keys, layer2_size=64)

    async def run():
        async with IndexServer(windex) as server:
            first = asyncio.create_task(server.rebuild(held))
            await asyncio.sleep(0.01)  # the first snapshot is taken
            await server.apply_writes(fresh[:5], np.ones(5, np.int8))
            second = asyncio.create_task(server.rebuild())
            await asyncio.sleep(0.01)
            await server.apply_writes(fresh[5:], np.ones(5, np.int8))
            release.set()
            await asyncio.gather(first, second)
            positions, _, _ = await server.serve_bulk(fresh, EMPTY, EMPTY)
        return positions

    positions = asyncio.run(run())
    live = np.union1d(keys, fresh)
    np.testing.assert_array_equal(np.asarray(windex.keys), live)
    np.testing.assert_array_equal(positions, lower_bound_oracle(live, fresh))


# ----------------------------------------------------------------------
# Shards: factory swaps keep the writes; the tuner rolls back a shard
# ----------------------------------------------------------------------


def test_local_shard_factory_swap_keeps_its_writes():
    keys = _keys(n=8_000, seed=13)
    plan = plan_shards(keys, 2)
    backend = LocalBackend(
        [WritableIndex(RMIAsIndex(plan.slice_keys(keys, i), layer2_size=16))
         for i in range(2)], plan)
    router = ShardRouter(backend)
    fresh = _fresh(keys, 100, seed=17)
    later = _fresh(np.union1d(keys, fresh), 10, seed=19)

    async def run():
        await router.apply_writes(fresh, np.ones(len(fresh), np.int8))
        for shard_id in range(2):
            await router.swap_shard(
                shard_id, CandidateConfig("rmi", layer2_size=64).factory())
        got = await router.lookup_batch(fresh)
        applied = await router.apply_writes(later,
                                            np.ones(len(later), np.int8))
        return got, applied

    got, applied = asyncio.run(run())
    np.testing.assert_array_equal(
        got, lower_bound_oracle(np.union1d(keys, fresh), fresh))
    assert applied == len(later)
    assert [_leaves(ix) for ix in _shard_indexes(backend)] == [64, 64]
    assert all(isinstance(ix, WritableIndex)
               for ix in _shard_indexes(backend))


def test_cluster_shard_factory_swap_keeps_its_writes():
    """A real 2-process cluster of writable RMI shards: reads of keys
    written before a factory swap stay oracle-exact, and the shard
    still takes writes after it."""
    keys = _keys(n=8_000, seed=23)
    fresh = _fresh(keys, 100, seed=29)
    later = _fresh(np.union1d(keys, fresh), 10, seed=31)

    async def run():
        async with Cluster(keys=keys, num_shards=2,
                           index_factory=WritableFactory("rmi")) as cluster:
            async with ShardRouter(cluster) as router:
                await router.apply_writes(fresh,
                                          np.ones(len(fresh), np.int8))
                for shard_id in range(2):
                    await router.swap_shard(shard_id, "pgm-index")
                got = await router.lookup_batch(fresh)
                applied = await router.apply_writes(
                    later, np.ones(len(later), np.int8))
                after = await router.lookup_batch(later)
        return got, applied, after

    got, applied, after = asyncio.run(run())
    live = np.union1d(keys, fresh)
    np.testing.assert_array_equal(got, lower_bound_oracle(live, fresh))
    assert applied == len(later)
    np.testing.assert_array_equal(
        after, lower_bound_oracle(np.union1d(live, later), later))


def test_tuner_rolls_back_a_cluster_shard_to_its_previous_factory():
    """The merged target on a mis-tuned cluster shard: the tuner scores
    the 16-leaf incumbent the worker describes, the swap builds once, in
    the worker, and the forced rollback rebuilds the factory the worker
    returned for what it served before."""
    keys = _keys(n=12_000, seed=37)

    async def run():
        plan = plan_shards(keys, 2)
        samplers = [WorkloadSampler(capacity=512, seed=i) for i in range(2)]
        start = CandidateConfig("rmi", layer2_size=16).factory()
        async with Cluster(keys=keys, num_shards=2,
                           index_factory=start) as cluster:
            async with ShardRouter(cluster, samplers=samplers) as router:
                # rollback_threshold -1: any measured window rolls back.
                tuner = _tuner(TunerTarget(router, 0), min_window_requests=1,
                               rollback_threshold=-1.0)
                shard0 = plan.slice_keys(keys, 0)
                rng = np.random.default_rng(41)
                records = [await tuner.step()]
                for _ in range(2):
                    qs = shard0[rng.integers(0, len(shard0), 500)]
                    got = await router.lookup_batch(qs)
                    np.testing.assert_array_equal(
                        got, lower_bound_oracle(keys, qs))
                    records.append(await tuner.step())
                serving = await router.swap_shard(0, "@rebuild")
        return records, serving

    records, serving = asyncio.run(run())
    assert [r["kind"] for r in records] == ["idle", "swap", "rollback"]
    swap = records[1]
    assert swap["incumbent"]["config"].startswith("rmi[l2=16,")
    assert swap["frm"].startswith("rmi[l2=16,")
    assert swap["predicted_ratio"] < 1 - 0.05
    assert isinstance(serving, IndexFactory)
    assert serving.config.layer_sizes[-1] == 16


def test_tuner_plans_a_cluster_shard_over_its_live_keys():
    """Writes land on a writable cluster shard: the tuner plans over the
    keys the shard holds now, not the slice it was built from."""
    keys = _keys(n=12_000, seed=59)
    plan = plan_shards(keys, 2)
    shard0 = plan.slice_keys(keys, 0)
    fresh = _fresh(shard0, 300, seed=61)

    async def run():
        samplers = [WorkloadSampler(capacity=512, seed=i) for i in range(2)]
        async with Cluster(keys=keys, num_shards=2,
                           index_factory=WritableFactory("rmi")) as cluster:
            async with ShardRouter(cluster, samplers=samplers) as router:
                tuner = _tuner(TunerTarget(router, 0), min_window_requests=1,
                               dry_run=True)
                await tuner.step()  # baseline
                await router.apply_writes(fresh,
                                          np.ones(len(fresh), np.int8))
                await router.lookup_batch(fresh)
                record = await tuner.step()
                live = (await router.cluster_metrics())["shard_sizes"][0]
        return tuner, record, live

    tuner, record, live = asyncio.run(run())
    assert record["kind"] in ("hold", "plan")
    assert live == len(shard0) + len(fresh)
    assert tuner.last_plan.n == live


# ----------------------------------------------------------------------
# Composition: writes, both read lanes, daemon cycles, a tuner swap and
# a forced rollback in one seeded run
# ----------------------------------------------------------------------


async def _check_reads(front, seg, lane: str) -> int:
    """Serve one segment's reads on ``lane``; returns wrong answers."""
    wrong = 0
    if lane == "bulk":
        if hasattr(front, "serve_bulk"):
            pos, starts, counts = await front.serve_bulk(
                seg.queries, seg.range_lows, seg.range_highs)
        else:
            pos = await front.lookup_batch(seg.queries)
            starts, counts = await front.range_query_batch(
                seg.range_lows, seg.range_highs)
        wrong += int(np.count_nonzero(pos != seg.expected))
        wrong += int(np.count_nonzero(starts != seg.expected_starts))
        wrong += int(np.count_nonzero(counts != seg.expected_counts))
        return wrong
    responses = await asyncio.gather(
        *(front.lookup(int(q)) for q in seg.queries),
        *(front.range_query(int(lo), int(hi))
          for lo, hi in zip(seg.range_lows, seg.range_highs)))
    n = len(seg.queries)
    for i, resp in enumerate(responses):
        assert resp.status == STATUS_OK, resp
        if i < n:
            wrong += resp.position != int(seg.expected[i])
        else:
            wrong += (resp.position, resp.count) != (
                int(seg.expected_starts[i - n]),
                int(seg.expected_counts[i - n]))
    return wrong


async def _compose(front, rebuild, tuner, workload) -> "list[str]":
    """Replay ``workload`` on ``front``: a rebuild cycle every fourth
    segment and a tuner step every third, alternating read lanes."""
    await tuner.step()  # the tuner's metrics baseline
    decisions = []
    for i, seg in enumerate(workload.segments):
        if seg.num_writes:
            await front.apply_writes(seg.write_keys, seg.write_ops)
        assert await _check_reads(
            front, seg, "bulk" if i % 2 else "request") == 0, i
        if i % 4 == 3:
            await rebuild()
        if i % 3 == 2 and len(decisions) < 2:
            record = await tuner.step()
            if record is not None and record["kind"] in ("swap",
                                                         "rollback"):
                decisions.append(record["kind"])
    return decisions


def _workload(keys: np.ndarray):
    return make_mixed_workload(keys, num_ops=6_000, seed=43,
                               write_fraction=0.2, delete_fraction=0.4,
                               segment_size=200, range_fraction=0.2)


def test_composition_on_a_server():
    keys = _keys(n=12_000, seed=47)
    workload = _workload(keys)
    windex = WritableIndex(RMIAsIndex(keys, layer2_size=16))

    async def run():
        sampler = WorkloadSampler(capacity=1_024, seed=5)
        async with IndexServer(windex, sampler=sampler,
                               max_wait_s=0.0005) as server:
            daemon = RebuildDaemon(windex, server=server)
            tuner = _tuner(TunerTarget(server), min_window_requests=64,
                           rollback_threshold=-1.0)
            decisions = await _compose(
                server, lambda: daemon.rebuild_now(force=True), tuner,
                workload)
        return decisions, server.metrics, daemon.rebuilds

    decisions, metrics, rebuilds = asyncio.run(run())
    assert decisions == ["swap", "rollback"]
    assert rebuilds >= 5
    np.testing.assert_array_equal(np.asarray(windex.keys),
                                  workload.final_live_keys)
    assert _leaves(windex) == 16  # rolled back, and the daemon kept it
    # Every request resolved exactly once: each response is counted
    # once, and every one of them completed.
    assert int(metrics.submitted.value) == int(metrics.completed.value) \
        == workload.num_reads


def test_composition_on_a_sharded_router():
    keys = _keys(n=12_000, seed=53)
    workload = _workload(keys)
    plan = plan_shards(keys, 2)
    backend = LocalBackend(
        [WritableIndex(RMIAsIndex(plan.slice_keys(keys, i), layer2_size=16))
         for i in range(2)], plan)
    samplers = [WorkloadSampler(capacity=1_024, seed=i) for i in range(2)]

    async def run():
        async with ShardRouter(backend, samplers=samplers,
                               max_wait_s=0.0005) as router:

            async def rebuild_shards():
                for shard_id in range(2):
                    await router.swap_shard(shard_id, "@rebuild")

            tuner = _tuner(TunerTarget(router, 0), min_window_requests=16,
                           rollback_threshold=-1.0)
            decisions = await _compose(router, rebuild_shards, tuner,
                                       workload)
        return decisions, router.metrics

    decisions, metrics = asyncio.run(run())
    assert decisions == ["swap", "rollback"]
    live = np.concatenate([np.asarray(ix.keys)
                           for ix in _shard_indexes(backend)])
    np.testing.assert_array_equal(live, workload.final_live_keys)
    assert [_leaves(ix) for ix in _shard_indexes(backend)] == [16, 16]
    # The router counts its request lane (the even segments) only.
    requests = sum(seg.num_reads for seg in workload.segments[::2])
    assert int(metrics.submitted.value) == int(metrics.completed.value) \
        == requests
