"""Fault injection for the sharded serving tier.

The failure contract under test: a killed worker's shard answers
**per-request errors, never hangs** -- pending replies fail when the
pipe EOFs, later requests fail at dispatch -- while every other shard
keeps serving oracle-correct answers; graceful drain resolves every
in-flight future no matter what; and workers exit when the process
holding the cluster is killed.  Every await that could hang is
wrapped in ``asyncio.wait_for`` so a regression fails the test instead
of wedging the suite.

No pytest-asyncio in the container, so every test drives its own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import logging
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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

SRC = Path(__file__).resolve().parent.parent / "src"

#: Started by ``test_workers_exit_when_the_router_process_is_killed``:
#: holds a started 2-shard cluster, prints its worker pids, and sleeps.
_HOLDER = """
import asyncio, sys
import numpy as np
from repro.serve import Cluster

async def main():
    keys = np.arange(0, 20_000, dtype=np.uint64) * np.uint64(3)
    cluster = Cluster(keys=keys, num_shards=2, index_type="binary-search",
                      mp_method=sys.argv[1])
    await cluster.start()
    print(*(info["pid"] for info in cluster.worker_info), flush=True)
    await asyncio.sleep(3600)

asyncio.run(main())
"""


@pytest.fixture(scope="module")
def fault_keys():
    return data.generate("books", n=12_000)


def _refuse_to_build(keys: np.ndarray):
    raise ValueError("this shard refuses to build")


def _exited(pid: int) -> bool:
    """The process is gone, or a zombie no one reaped (an orphan's new
    parent, such as a container's PID 1, may never reap it)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat[stat.rindex(")") + 2] == "Z"


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


@pytest.mark.parametrize("backend", ["local", "cluster"])
def test_one_batch_with_a_dead_shard_fails_only_its_requests(fault_keys,
                                                             backend):
    """Shard 1 is dead.  One batch holds lookups on shards 0, 1 and 2, a
    range spanning all three and a range inside shard 2: only the
    lookup and the range routed to shard 1 answer ``error``, and the
    rest are oracle-exact."""
    keys = fault_keys
    plan = plan_shards(keys, 3)
    lo2 = int(plan.offsets[2])
    points = [int(keys[int(plan.offsets[s]) + 10]) for s in range(3)]
    inside = (int(keys[lo2 + 10]), int(keys[lo2 + 500]))
    assert list(plan.route_points(np.array(points, dtype=np.uint64))) \
        == [0, 1, 2]
    assert set(plan.route_points(np.array(inside, dtype=np.uint64))) \
        == {2}

    async def batch(router: ShardRouter) -> list:
        return await asyncio.wait_for(asyncio.gather(
            *(router.lookup(k) for k in points),
            router.range_query(int(keys[0]), int(keys[-1])),
            router.range_query(*inside),
        ), WAIT)

    async def run():
        if backend == "local":
            local = LocalBackend([BinarySearchIndex(plan.slice_keys(keys, i))
                                  for i in range(3)], plan)
            local.kill(1)
            async with ShardRouter(local) as router:
                return router, await batch(router)
        async with Cluster(keys=keys, num_shards=3,
                           index_type="binary-search") as cluster:
            cluster.kill_shard(1, hard=True)
            await _wait_dead(cluster, 1)
            async with ShardRouter(cluster) as router:
                return router, await batch(router)

    router, responses = asyncio.run(run())
    assert [r.status for r in responses] == [
        STATUS_OK, STATUS_ERROR, STATUS_OK, STATUS_ERROR, STATUS_OK]
    want = np.searchsorted(keys, np.array(points + list(inside),
                                          dtype=np.uint64), side="left")
    assert responses[0].position == want[0]
    assert responses[2].position == want[2]
    assert (responses[4].position, responses[4].count) \
        == (want[3], want[4] - want[3])
    assert all("shard 1" in r.error for r in responses[1::2])
    assert router.metrics.completed.value == 3
    assert router.metrics.errors.value == 2


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


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process states from /proc")
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_workers_exit_when_the_router_process_is_killed(method):
    """SIGKILL a process holding a started 2-shard cluster: with no
    parent end of a pipe left open elsewhere, each worker sees EOF and
    exits within seconds, forked or spawned."""
    if method not in mp.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    holder = subprocess.Popen([sys.executable, "-c", _HOLDER, method],
                              stdout=subprocess.PIPE, text=True, env=env)
    try:
        pids = [int(pid) for pid in holder.stdout.readline().split()]
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
    assert len(pids) == 2, "the cluster holder did not start"
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline \
            and not all(_exited(pid) for pid in pids):
        time.sleep(0.05)
    alive = [pid for pid in pids if not _exited(pid)]
    for pid in alive:  # leave no orphan behind a failure
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    assert not alive, f"workers {alive} outlived their router's process"
