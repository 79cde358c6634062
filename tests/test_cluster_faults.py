"""Fault injection for the sharded serving tier.

The failure contract under test: a killed worker's shard answers
**per-request errors, never hangs** -- pending replies fail when the
pipe EOFs, later requests fail at dispatch -- while every other shard
keeps serving oracle-correct answers; graceful drain resolves every
in-flight future no matter what.  Every await that could hang is
wrapped in ``asyncio.wait_for`` so a regression fails the test instead
of wedging the suite.

No pytest-asyncio in the container, so every test drives its own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import gc
import logging

import numpy as np
import pytest

from repro import data
from repro.baselines import BinarySearchIndex
from repro.serve import (
    STATUS_ERROR,
    STATUS_OK,
    Cluster,
    LocalBackend,
    ShardDeadError,
    ShardRouter,
    plan_shards,
)

#: Global ceiling on any single await in this file: a hang is a bug.
WAIT = 20


@pytest.fixture(scope="module")
def fault_keys():
    return data.generate("books", n=12_000)


def _refuse_to_build(keys: np.ndarray):
    raise ValueError("this shard refuses to build")


async def _wait_dead(cluster: Cluster, shard_id: int) -> None:
    """Block until the pipe EOF marks the shard dead (bounded)."""
    deadline = asyncio.get_running_loop().time() + WAIT
    while cluster.alive(shard_id):
        assert asyncio.get_running_loop().time() < deadline, \
            "worker death never observed"
        await asyncio.sleep(0.01)


def test_killed_worker_errors_while_others_serve(fault_keys):
    """SIGKILL one worker mid-load: its requests resolve as errors
    (not hangs), the other shard's answers stay oracle-correct."""

    async def run():
        async with Cluster(keys=fault_keys, num_shards=2,
                           index_type="binary-search") as cluster:
            async with ShardRouter(cluster) as router:
                boundary = int(cluster.plan.offsets[1])
                dead_keys = fault_keys[:boundary:50]
                live_keys = fault_keys[boundary::50]

                # Warm traffic across both shards, then kill shard 0
                # while a second wave is in flight.
                warm = await asyncio.wait_for(asyncio.gather(*(
                    router.lookup(int(k))
                    for k in fault_keys[::97]
                )), WAIT)
                wave = [asyncio.create_task(router.lookup(int(k)))
                        for k in fault_keys[::13]]
                cluster.kill_shard(0, hard=True)
                in_flight = await asyncio.wait_for(
                    asyncio.gather(*wave), WAIT
                )
                await _wait_dead(cluster, 0)

                dead = await asyncio.wait_for(asyncio.gather(*(
                    router.lookup(int(k)) for k in dead_keys
                )), WAIT)
                live = await asyncio.wait_for(asyncio.gather(*(
                    router.lookup(int(k)) for k in live_keys
                )), WAIT)
                view = await router.cluster_metrics()
        return boundary, warm, in_flight, dead, live, view

    boundary, warm, in_flight, dead, live, view = asyncio.run(run())
    assert all(r.status == STATUS_OK for r in warm)
    # Every in-flight request resolved -- to ok or error, never a hang
    # and never a wrong answer.
    for resp in in_flight:
        assert resp.status in (STATUS_OK, STATUS_ERROR)
    assert all(r.status == STATUS_ERROR for r in dead), \
        "requests to the dead shard must fail fast with errors"
    assert all(r.status == STATUS_OK for r in live), \
        "surviving shards must keep serving"
    want = np.searchsorted(fault_keys, fault_keys[boundary::50],
                           side="left")
    got = [r.position for r in live]
    np.testing.assert_array_equal(got, want)
    assert view["shards"][0]["alive"] is False
    assert view["shards"][1]["alive"] is True
    # The roll-up still works with a dead shard: it reports the
    # survivors' counters.
    assert view["cluster"]["requests"]["completed"] > 0


def test_range_spanning_dead_shard_resolves_as_error(fault_keys):
    """A scattered range touching a dead shard resolves (worst-status
    error), it does not hang the aggregate."""

    async def run():
        async with Cluster(keys=fault_keys, num_shards=3,
                           index_type="binary-search") as cluster:
            async with ShardRouter(cluster) as router:
                cluster.kill_shard(1, hard=True)
                await _wait_dead(cluster, 1)
                full = await asyncio.wait_for(router.range_query(
                    int(fault_keys[0]), int(fault_keys[-1])
                ), WAIT)
                # A range inside a surviving shard still answers.
                lo = int(cluster.plan.offsets[2])
                ok = await asyncio.wait_for(router.range_query(
                    int(fault_keys[lo + 10]), int(fault_keys[lo + 500])
                ), WAIT)
        return full, ok

    full, ok = asyncio.run(run())
    assert full.status == STATUS_ERROR
    assert ok.status == STATUS_OK


def test_graceful_drain_resolves_every_inflight_future(fault_keys):
    """Stopping the router mid-burst resolves every submitted future
    with a final status; nothing is dropped or left pending."""

    async def run():
        async with Cluster(keys=fault_keys, num_shards=2,
                           index_type="binary-search") as cluster:
            router = ShardRouter(cluster)
            await router.start()
            burst = [asyncio.create_task(router.lookup(int(k)))
                     for k in fault_keys[::11]]
            # Stop immediately: some requests are queued, some in
            # flight, none may hang or vanish.
            await asyncio.wait_for(router.stop(), WAIT)
            responses = await asyncio.wait_for(
                asyncio.gather(*burst), WAIT
            )
        return responses

    responses = asyncio.run(run())
    assert len(responses) == len(range(0, len(fault_keys), 11))
    want = np.searchsorted(fault_keys, fault_keys[::11], side="left")
    for resp, w in zip(responses, want):
        assert resp.status in (STATUS_OK, "rejected"), resp.status
        if resp.status == STATUS_OK:
            assert resp.position == int(w)


def test_bulk_lane_raises_on_dead_shard(fault_keys):
    """The scatter/gather bulk lane surfaces a dead shard as an
    exception (the scaling bench must fail loudly, not skew), and the
    failure stays with the calls that touched it."""

    async def run():
        async with Cluster(keys=fault_keys, num_shards=2,
                           index_type="binary-search") as cluster:
            async with ShardRouter(cluster) as router:
                cluster.kill_shard(0, hard=True)
                await _wait_dead(cluster, 0)
                with pytest.raises(Exception):
                    await asyncio.wait_for(
                        router.lookup_batch(fault_keys[::7]), WAIT
                    )
                # Bulk traffic confined to the live shard still works.
                lo = int(cluster.plan.offsets[1])
                got = await asyncio.wait_for(
                    router.lookup_batch(fault_keys[lo::7]), WAIT
                )
                # Gathered: the lookups' shard-1 parts share shard 1's
                # frame with a range part confined to shard 1, and their
                # shard-0 parts share shard 0's failed frame.
                lows = fault_keys[lo + 10:-100:37]
                gathered = await asyncio.wait_for(asyncio.gather(
                    router.lookup_batch(fault_keys[::7]),
                    router.lookup_batch(fault_keys[3::7]),
                    router.range_query_batch(lows, lows + np.uint64(99)),
                    return_exceptions=True,
                ), WAIT)
        return lo, got, lows, gathered

    lo, got, lows, (*failed, ranged) = asyncio.run(run())
    want = np.searchsorted(fault_keys, fault_keys[lo::7], side="left")
    np.testing.assert_array_equal(got, want)
    assert all(isinstance(f, ShardDeadError) for f in failed), failed
    assert not isinstance(ranged, BaseException), ranged
    starts = np.searchsorted(fault_keys, lows, side="left")
    ends = np.searchsorted(fault_keys, lows + np.uint64(99), side="left")
    np.testing.assert_array_equal(ranged[0], starts)
    np.testing.assert_array_equal(ranged[1], ends - starts)


def test_local_backend_kill_simulation():
    """The in-process backend mirrors the cluster's failure contract,
    so the fault logic is testable without processes.  The bulk range
    split calls only the shards some range touches, so a dead shard
    between them does not fail the batch."""
    keys = np.arange(0, 6000, dtype=np.uint64) * np.uint64(3)
    plan = plan_shards(keys, 3)
    backend = LocalBackend(
        [BinarySearchIndex(plan.slice_keys(keys, i)) for i in range(3)],
        plan,
    )
    # Ranges inside shards 0 and 2 only.
    lows = np.concatenate([keys[10:1900:50], keys[4100:5900:50]])
    highs = lows + np.uint64(40)
    assert set(plan.route_points(np.concatenate([lows, highs]))) == {0, 2}

    async def run():
        async with ShardRouter(backend) as router:
            backend.kill(1)
            ranged = await asyncio.wait_for(
                router.range_query_batch(lows, highs), WAIT
            )
            backend.kill(0)
            dead = await asyncio.wait_for(
                router.lookup(int(keys[5])), WAIT
            )
            live = await asyncio.wait_for(
                router.lookup(int(keys[-5])), WAIT
            )
            span = await asyncio.wait_for(router.range_query(
                int(keys[0]), int(keys[-1])
            ), WAIT)
        return ranged, dead, live, span

    (starts, counts), dead, live, span = asyncio.run(run())
    want = np.searchsorted(keys, lows, side="left")
    np.testing.assert_array_equal(starts, want)
    np.testing.assert_array_equal(
        counts, np.searchsorted(keys, highs, side="left") - want)
    assert dead.status == STATUS_ERROR
    assert live.status == STATUS_OK
    assert live.position == len(keys) - 5
    assert span.status == STATUS_ERROR


def test_stop_after_kill_returns_partial_states(fault_keys):
    """Cluster.stop with a dead worker: survivors drain gracefully and
    report final metric states; the dead slot is None."""

    async def run():
        cluster = Cluster(keys=fault_keys, num_shards=2,
                          index_type="binary-search")
        await cluster.start()
        async with ShardRouter(cluster) as router:
            await asyncio.wait_for(asyncio.gather(*(
                router.lookup(int(k)) for k in fault_keys[::200]
            )), WAIT)
            cluster.kill_shard(1, hard=True)
            await _wait_dead(cluster, 1)
        states = await asyncio.wait_for(cluster.stop(), WAIT * 2)
        return states

    states = asyncio.run(run())
    assert states[1] is None
    assert states[0] is not None
    assert states[0]["counters"]["completed"] > 0


def test_failed_start_leaves_a_stopped_cluster(fault_keys, caplog):
    """Every worker's index factory raises: start() fails with an error
    naming the factory's exception, no worker's ready future is left
    unretrieved, and the stopped cluster can start (and fail) again."""

    async def run():
        cluster = Cluster(keys=fault_keys, num_shards=2,
                          index_factory=_refuse_to_build)
        errors = []
        for _ in range(2):
            with pytest.raises(ShardDeadError) as failed:
                await asyncio.wait_for(cluster.start(), WAIT * 2)
            errors.append(str(failed.value))
        return cluster, errors

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        cluster, errors = asyncio.run(run())
        gc.collect()
    for error in errors:
        assert "ValueError: this shard refuses to build" in error
    assert cluster.alive_count() == 0
    assert not [r for r in caplog.records
                if "never retrieved" in r.getMessage()]
