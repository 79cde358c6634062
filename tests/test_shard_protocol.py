"""One shard protocol: a shard answers every call through one handler.

:func:`~repro.serve.router.answer_shard` answers a shard call on the
shard's :class:`~repro.serve.server.IndexServer`, in a cluster worker
and in :class:`~repro.serve.router.LocalBackend` alike, and the router
sends each touched shard one part per batch.  This file pins what that
buys:

* a shard whose index raises counts the same ``errors`` wherever it
  lives;
* a router batch of points and ranges makes one backend call per
  touched shard;
* ``describe`` reports the served base's factory and the live keys, and
  an unknown call is refused, in a worker and in-process;
* ``LocalBackend`` starts a shard's server on its first call and stops
  it in ``stop()``.

No pytest-asyncio in the container, so every test drives its own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.baselines import BinarySearchIndex, RMIAsIndex
from repro.serve import (
    STATUS_OK,
    Cluster,
    LocalBackend,
    ShardRouter,
    plan_shards,
)
from repro.writable import IndexFactory, WritableFactory, WritableIndex

from .conftest import lower_bound_oracle

#: Global ceiling on any single await in this file: a hang is a bug.
WAIT = 20

KEYS = np.arange(0, 4_000, dtype=np.uint64) * np.uint64(3)


class _RaisingIndex(BinarySearchIndex):
    """A shard index that raises on every batch when it holds key 0
    (shard 0 of ``KEYS``); its warm-up is skipped, so a server starts."""

    def warm_kernels(self) -> None:
        pass

    def serve_batch(self, point_queries, range_lows, range_highs):
        if int(self.keys[0]) == 0:
            raise RuntimeError("index fault")
        return super().serve_batch(point_queries, range_lows, range_highs)


class _CountingBackend(LocalBackend):
    """A ``LocalBackend`` that records every bulk part it is sent."""

    def __init__(self, indexes, plan) -> None:
        super().__init__(indexes, plan)
        self.parts: "list[tuple[int, int, int]]" = []

    async def execute_bulk(self, shard_id, points, lows, highs):
        self.parts.append((shard_id, len(points), len(lows)))
        return await super().execute_bulk(shard_id, points, lows, highs)


@pytest.mark.parametrize("where", ["local", "cluster"])
def test_a_raising_shard_counts_its_errors_wherever_it_lives(where):
    plan = plan_shards(KEYS, 2)
    queries = plan.slice_keys(KEYS, 0)[:50]

    async def fail(backend) -> "list[dict | None]":
        async with ShardRouter(backend) as router:
            with pytest.raises(Exception, match="index fault"):
                await asyncio.wait_for(router.lookup_batch(queries), WAIT)
            ok = await asyncio.wait_for(
                router.lookup_batch(plan.slice_keys(KEYS, 1)[:5]), WAIT)
            np.testing.assert_array_equal(
                ok, lower_bound_oracle(KEYS, plan.slice_keys(KEYS, 1)[:5]))
        return await backend.shard_metrics()

    async def run():
        if where == "local":
            backend = LocalBackend(
                [_RaisingIndex(plan.slice_keys(KEYS, i)) for i in range(2)],
                plan)
            states = await fail(backend)
            await backend.stop()
            return states
        async with Cluster(keys=KEYS, num_shards=2,
                           index_factory=_RaisingIndex) as cluster:
            return await fail(cluster)

    states = asyncio.run(run())
    assert [s["counters"]["errors"] for s in states] == [50, 0]
    assert [s["counters"]["completed"] for s in states] == [0, 5]


def test_a_router_batch_sends_one_part_per_touched_shard():
    """Lookups on both shards, a range spanning both and a range inside
    shard 1 form one router batch: each shard gets one part, holding
    the points it owns and the ranges that span it."""
    plan = plan_shards(KEYS, 2)
    lo1 = int(plan.offsets[1])
    points = [int(KEYS[10]), int(KEYS[20]), int(KEYS[lo1 + 10])]
    ranges = [(int(KEYS[5]), int(KEYS[-5])),
              (int(KEYS[lo1 + 100]), int(KEYS[lo1 + 200]))]
    backend = _CountingBackend(
        [BinarySearchIndex(plan.slice_keys(KEYS, i)) for i in range(2)],
        plan)

    async def run():
        # A long max wait: every request below joins one batch.
        async with ShardRouter(backend, max_wait_s=0.05) as router:
            return await asyncio.wait_for(asyncio.gather(
                *(router.lookup(k) for k in points),
                *(router.range_query(lo, hi) for lo, hi in ranges),
            ), WAIT), router

    responses, router = asyncio.run(run())
    assert router.metrics.batch_size.count == 1
    assert sorted(backend.parts) == [(0, 2, 1), (1, 1, 2)]
    want = lower_bound_oracle(KEYS, np.array(points, dtype=np.uint64))
    assert [r.position for r in responses[:3]] == list(want)
    for resp, (lo, hi) in zip(responses[3:], ranges):
        start, end = lower_bound_oracle(KEYS, np.array([lo, hi],
                                                       dtype=np.uint64))
        assert resp.status == STATUS_OK
        assert (resp.position, resp.count) == (start, end - start)


@pytest.mark.parametrize("where", ["local", "cluster"])
def test_describe_reports_the_base_and_the_live_keys(where):
    """A writable RMI shard with unmerged writes describes its base's
    factory and its live keys; an unknown call is refused."""
    plan = plan_shards(KEYS, 2)
    fresh = plan.slice_keys(KEYS, 0)[:40] + np.uint64(1)

    async def describe(router) -> tuple:
        await router.apply_writes(fresh, np.ones(len(fresh), np.int8))
        factory, live = await router.call_shard(0, "describe")
        with pytest.raises(Exception, match="unknown shard call"):
            await router.call_shard(0, "rewind")
        return factory, live

    async def run():
        if where == "local":
            backend = LocalBackend(
                [WritableIndex(RMIAsIndex(plan.slice_keys(KEYS, i)))
                 for i in range(2)], plan)
            return await describe(ShardRouter(backend))
        async with Cluster(keys=KEYS, num_shards=2,
                           index_factory=WritableFactory("rmi")) as cluster:
            return await describe(ShardRouter(cluster))

    factory, live = asyncio.run(run())
    assert isinstance(factory, IndexFactory) and factory.cls is RMIAsIndex
    np.testing.assert_array_equal(
        live, np.union1d(plan.slice_keys(KEYS, 0), fresh))


def test_local_backend_starts_each_server_on_first_use():
    plan = plan_shards(KEYS, 3)
    backend = LocalBackend(
        [BinarySearchIndex(plan.slice_keys(KEYS, i)) for i in range(3)],
        plan)

    async def run():
        router = ShardRouter(backend)
        await router.lookup_batch(plan.slice_keys(KEYS, 1)[:3])
        running = [server.running for server in backend._servers]
        states = await backend.stop()
        return running, states, [s.running for s in backend._servers]

    running, states, after = asyncio.run(run())
    assert running == [False, True, False]
    assert [s["counters"]["completed"] for s in states] == [0, 3, 0]
    assert after == [False, False, False]
