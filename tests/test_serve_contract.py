"""One serve contract, whichever index is served.

``serve_batch(points, lows, highs)`` answers ``(positions, starts,
counts)`` for every index of the registry and for a ``WritableIndex``
clean or dirty, on every kernel backend; ``range_query_batch`` is its
serve with no points.  Both refuse, with ``ValueError``, a range whose
high is below its low and range arrays of unequal lengths -- never a
negative count, never a broadcast bound -- and so does
``IndexServer.serve_bulk``, which counts the refused batch as errors.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.baselines import INDEX_TYPES, RMIAsIndex
from repro.serve import IndexServer
from repro.writable import OP_INSERT, WritableIndex

#: Ten thousand even keys.
KEYS = np.arange(0, 20_000, 2, dtype=np.uint64)
NONE = np.empty(0, dtype=np.uint64)

#: Refused range arrays: ``(lows, highs)``.
BAD_RANGES = {
    "reversed": (np.array([500], dtype=np.uint64),
                 np.array([100], dtype=np.uint64)),
    "unequal": (np.array([100, 300], dtype=np.uint64),
                np.array([900], dtype=np.uint64)),
}


def _writable(dirty: bool) -> WritableIndex:
    index = WritableIndex(RMIAsIndex(KEYS, layer2_size=64))
    if dirty:
        odd = np.arange(1, 2_000, 2, dtype=np.uint64)
        index.apply(odd, np.full(len(odd), OP_INSERT, dtype=np.int8))
    return index


FACTORIES = {name: (lambda cls=cls: cls(KEYS))
             for name, cls in INDEX_TYPES.items()}
FACTORIES["writable-clean"] = lambda: _writable(False)
FACTORIES["writable-dirty"] = lambda: _writable(True)


@pytest.fixture(scope="module")
def indexes():
    return {}


def _index(indexes, name):
    if name not in indexes:
        indexes[name] = FACTORIES[name]()
    return indexes[name]


@pytest.mark.parametrize("case", sorted(BAD_RANGES))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_serve_batch_refuses_bad_ranges(kernel_backend, indexes, name,
                                        case):
    index = _index(indexes, name)
    lows, highs = BAD_RANGES[case]
    with pytest.raises(ValueError):
        index.serve_batch(NONE, lows, highs)
    with pytest.raises(ValueError):
        index.serve_batch(KEYS[:3], lows, highs)
    with pytest.raises(ValueError):
        index.range_query_batch(lows, highs)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_serve_batch_answers_the_live_keys(kernel_backend, indexes, name):
    """The same calls with valid ranges, empty ones included, answer
    ``np.searchsorted`` over the live keys."""
    index = _index(indexes, name)
    live = np.asarray(index.keys)
    points = np.array([0, 1, 501, 19_998, 30_000], dtype=np.uint64)
    lows = np.array([100, 500, 501, 0], dtype=np.uint64)
    highs = np.array([500, 500, 1_999, 2**64 - 1], dtype=np.uint64)
    positions, starts, counts = index.serve_batch(points, lows, highs)
    np.testing.assert_array_equal(positions, np.searchsorted(live, points))
    np.testing.assert_array_equal(starts, np.searchsorted(live, lows))
    np.testing.assert_array_equal(
        counts, np.searchsorted(live, highs) - np.searchsorted(live, lows))
    range_starts, range_counts = index.range_query_batch(lows, highs)
    np.testing.assert_array_equal(range_starts, starts)
    np.testing.assert_array_equal(range_counts, counts)


@pytest.mark.parametrize("case", sorted(BAD_RANGES))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_serve_bulk_refuses_and_counts_bad_ranges(kernel_backend, indexes,
                                                  name, case):
    lows, highs = BAD_RANGES[case]

    async def run():
        server = IndexServer(_index(indexes, name))
        async with server:
            with pytest.raises(ValueError):
                await server.serve_bulk(NONE, lows, highs)
            return server.metrics.errors.value

    assert asyncio.run(run()) == len(lows)
