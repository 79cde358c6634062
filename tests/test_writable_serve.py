"""Serve-layer tests for the writable tier: zero-loss rebuild + swap.

``tests/test_writable.py`` pins the in-process semantics of
``WritableIndex``; this file pins what the *serving stack* adds on top:

* an :class:`~repro.serve.server.IndexServer` over a writable index
  under live mixed traffic, with a background
  :class:`~repro.writable.RebuildDaemon` hot-swapping compacted bases
  mid-stream -- every answer oracle-exact, every future resolved,
  counters monotone, and the staleness gauge re-armed by each swap
  while its high-water mark survives for the staleness-bound gate;
* the sharded router's write lane
  (:meth:`~repro.serve.router.ShardRouter.apply_writes`): bursts
  scattered to their owning shards and global positions re-stitched as
  shard cardinalities drift apart;
* a real multi-process :class:`~repro.serve.cluster.Cluster` of
  writable shards accepting ``write`` messages and the ``"@rebuild"``
  in-place compaction swap, with bulk reads and writes reaching each
  shard in call order.

No pytest-asyncio in the container, so every test drives its own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import data
from repro.baselines import INDEX_TYPES, BinarySearchIndex
from repro.serve import (
    Cluster,
    IndexServer,
    LocalBackend,
    ShardRouter,
    plan_shards,
)
from repro.serve.loadgen import run_mixed_closed_loop
from repro.workload import make_mixed_workload
from repro.writable import RebuildDaemon, WritableFactory, WritableIndex

from .conftest import lower_bound_oracle


def _keys(n: int = 20_000, seed: int = 7) -> np.ndarray:
    return np.ascontiguousarray(data.generate("books", n=n, seed=seed),
                                dtype=np.uint64)


# ----------------------------------------------------------------------
# IndexServer + RebuildDaemon under live mixed traffic
# ----------------------------------------------------------------------


def test_server_rebuild_hot_swap_is_zero_loss_bulk():
    """Background rebuilds land mid-stream without losing a write or
    mis-answering a read, and the metrics tell the story."""
    keys = _keys()
    workload = make_mixed_workload(
        keys, num_ops=6_000, seed=11, write_fraction=0.3,
        delete_fraction=0.4, segment_size=256, range_fraction=0.1,
    )
    windex = WritableIndex(INDEX_TYPES["rmi"](keys))

    async def run():
        async with IndexServer(windex) as server:
            daemon = RebuildDaemon(windex, server=server,
                                   interval_s=0.002, min_delta=128)
            async with daemon:
                report = await run_mixed_closed_loop(server, workload,
                                                     bulk=True)
            # Drain whatever the last segments buffered (force: the
            # leftover may sit under min_delta), then read the re-armed
            # gauge: value falls back to ~0 (clean delta), the
            # high-water mark keeps the worst staleness ever served.
            if windex.delta_len:
                await daemon.rebuild_now(force=True)
            return report, daemon.rebuilds, server.metrics

    report, rebuilds, metrics = asyncio.run(run())
    assert report["wrong"] == 0
    assert report["writes"] == workload.num_writes
    assert rebuilds >= 1, "stream never triggered a background rebuild"
    assert int(metrics.swaps.value) == rebuilds
    assert windex.delta_len == 0
    np.testing.assert_array_equal(np.asarray(windex.keys),
                                  workload.final_live_keys)
    assert int(metrics.writes.value) == workload.num_writes
    assert metrics.staleness_s.max > 0.0
    assert metrics.staleness_s.value == 0.0


def test_server_futures_all_resolve_across_swaps():
    """The per-request coalescing lane: every future resolves OK while
    rebuild swaps land between micro-batches."""
    keys = _keys(n=8_000)
    workload = make_mixed_workload(
        keys, num_ops=900, seed=5, write_fraction=0.3,
        delete_fraction=0.4, segment_size=128, range_fraction=0.2,
    )
    windex = WritableIndex(INDEX_TYPES["b-tree"](keys))

    async def run():
        async with IndexServer(windex) as server:
            async with RebuildDaemon(windex, server=server,
                                     interval_s=0.001, min_delta=32):
                report = await run_mixed_closed_loop(server, workload,
                                                     bulk=False)
            return report, server.metrics

    report, metrics = asyncio.run(run())
    assert report["wrong"] == 0
    assert report["statuses"] == {"ok": workload.num_reads}
    assert int(metrics.completed.value) == workload.num_reads
    assert int(metrics.submitted.value) == workload.num_reads


def test_server_rejects_writes_to_readonly_index():
    keys = _keys(n=2_000)

    async def run():
        async with IndexServer(BinarySearchIndex(keys)) as server:
            try:
                await server.apply_writes(
                    np.array([1], dtype=np.uint64),
                    np.array([1], dtype=np.int8),
                )
            except TypeError as exc:
                return str(exc)
            return None

    message = asyncio.run(run())
    assert message is not None and "WritableIndex" in message


# ----------------------------------------------------------------------
# Sharded write lane (single-process LocalBackend)
# ----------------------------------------------------------------------


def test_router_write_lane_restitches_global_positions():
    """Writes shift shard cardinalities; reads after ``apply_writes``
    must still see globally stitched positions and range counts."""
    keys = _keys(n=12_000, seed=3)
    workload = make_mixed_workload(
        keys, num_ops=3_000, seed=17, write_fraction=0.4,
        delete_fraction=0.5, segment_size=256, range_fraction=0.15,
    )
    plan = plan_shards(keys, 3)
    backend = LocalBackend(
        [WritableIndex(BinarySearchIndex(plan.slice_keys(keys, i)))
         for i in range(plan.num_shards)],
        plan,
    )
    router = ShardRouter(backend)

    report = asyncio.run(run_mixed_closed_loop(router, workload, bulk=True))
    assert report["wrong"] == 0
    assert report["writes"] == workload.num_writes
    assert int(router.metrics.writes.value) == workload.num_writes
    live = np.concatenate([
        np.asarray(backend._servers[i].index.keys)
        for i in range(plan.num_shards)
    ])
    np.testing.assert_array_equal(live, workload.final_live_keys)


def test_router_shard_rebuild_compacts_in_place():
    """The single-process ``"@rebuild"`` swap drains one shard's delta
    and re-arms its staleness gauge without changing any answer."""
    keys = _keys(n=6_000, seed=9)
    plan = plan_shards(keys, 2)
    backend = LocalBackend(
        [WritableIndex(BinarySearchIndex(plan.slice_keys(keys, i)))
         for i in range(plan.num_shards)],
        plan,
    )
    router = ShardRouter(backend)
    fresh = keys[: len(keys) // 2 : 7] + np.uint64(1)
    fresh = np.unique(fresh)

    async def run():
        await router.apply_writes(
            fresh, np.ones(len(fresh), dtype=np.int8)
        )
        before = await router.lookup_batch(keys[::11])
        assert backend._servers[0].index.delta_len > 0
        await router.swap_shard(0, "@rebuild")
        after = await router.lookup_batch(keys[::11])
        return before, after

    before, after = asyncio.run(run())
    np.testing.assert_array_equal(before, after)
    assert backend._servers[0].index.delta_len == 0
    assert int(backend.shard_metric_objs[0].swaps.value) == 1
    assert backend.shard_metric_objs[0].staleness_s.value == 0.0


# ----------------------------------------------------------------------
# Multi-process cluster of writable shards
# ----------------------------------------------------------------------


def test_cluster_writable_shards_and_rebuild_swap():
    """A real 2-process cluster accepts scattered write bursts and the
    ``"@rebuild"`` payload, answering oracle-exactly throughout."""
    keys = _keys(n=4_000, seed=21)
    workload = make_mixed_workload(
        keys, num_ops=800, seed=23, write_fraction=0.4,
        delete_fraction=0.5, segment_size=128, range_fraction=0.1,
    )

    async def run():
        async with Cluster(
            keys=keys, num_shards=2,
            index_factory=WritableFactory("binary-search"),
        ) as cluster:
            async with ShardRouter(cluster) as router:
                report = await run_mixed_closed_loop(router, workload,
                                                     bulk=True)
                for shard_id in range(cluster.num_shards):
                    await router.swap_shard(shard_id, "@rebuild")
                live = workload.final_live_keys
                probes = np.concatenate([
                    live[:: max(len(live) // 64, 1)],
                    np.array([0, 2**64 - 1], dtype=np.uint64),
                ])
                got = await router.lookup_batch(probes)
                shard_metrics = await router.cluster_metrics()
        return report, got, probes, shard_metrics

    report, got, probes, shard_metrics = asyncio.run(run())
    assert report["wrong"] == 0
    assert report["writes"] == workload.num_writes
    np.testing.assert_array_equal(
        got, lower_bound_oracle(workload.final_live_keys, probes)
    )
    per_shard = [s["metrics"] for s in shard_metrics["shards"] if s["alive"]]
    assert sum(int(m["swaps"]) for m in per_shard) == 2
    assert sum(int(m["writes"]) for m in per_shard) == workload.num_writes


def test_cluster_bulk_reads_and_writes_keep_call_order():
    """A bulk read, a write and a bulk read created in one loop pass
    reach the shard in call order: the first read misses the write,
    the second sees it."""
    keys = _keys(n=4_000, seed=31)

    async def run():
        async with Cluster(
            keys=keys, num_shards=2,
            index_factory=WritableFactory("binary-search"),
        ) as cluster:
            # Write to the last shard only and read there, so that the
            # router's stitch offsets stay put.
            lo = int(cluster.plan.offsets[1])
            queries = keys[lo + 500:lo + 1500:50]
            fresh = np.setdiff1d(keys[lo + 10:lo + 400:13] + np.uint64(1),
                                 keys)
            async with ShardRouter(cluster) as router:
                tasks = [
                    asyncio.create_task(router.lookup_batch(queries)),
                    asyncio.create_task(router.apply_writes(
                        fresh, np.ones(len(fresh), dtype=np.int8))),
                    asyncio.create_task(router.lookup_batch(queries)),
                ]
                got = await asyncio.wait_for(asyncio.gather(*tasks), 30)
        return queries, fresh, got

    queries, fresh, (before, applied, after) = asyncio.run(run())
    assert applied == len(fresh) > 0
    np.testing.assert_array_equal(before, lower_bound_oracle(keys, queries))
    np.testing.assert_array_equal(
        after, lower_bound_oracle(np.sort(np.concatenate([keys, fresh])),
                                  queries))
