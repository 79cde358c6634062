"""Cross-index conformance suite for the batch lookup engine.

Every :class:`~repro.baselines.interfaces.OrderedIndex` implementation
(plus the bare :class:`~repro.core.rmi.RMI`) must satisfy one contract:
``lookup_batch`` returns exactly what ``np.searchsorted(keys, q,
side="left")`` would, and agrees element-wise with the scalar
``lower_bound`` path.  This file locks that contract down across

* the four SOSD-like datasets,
* absent keys (gap midpoints and +-1 neighbours),
* duplicate runs (first-position semantics; the tries reject them),
* queries beyond both ends of the key space,
* property-style randomized adversarial key sets (seeded
  ``numpy.random`` -- no extra dependencies), and
* the writable tier: a ``WritableIndex`` wrapped over every family
  must answer the same contract against the *live* key set after a
  mixed write burst, honour the ``pack()`` soft-fallback while dirty,
  and drop its packed-kernel cache on every mutation and rebuild.

A pytest-marked smoke benchmark at the bottom asserts the point of the
batch engine: vectorized lookups are at least 5x faster than an
equivalent scalar loop for several baselines at 100k keys.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines import (
    INDEX_TYPES,
    CompressedPGMIndex,
    UnsupportedDataError,
)
from repro.core.rmi import RMI

from .conftest import lower_bound_oracle

#: Every OrderedIndex implementation under conformance (the registry
#: plus the compressed PGM variant, which subclasses PGMIndex).
FACTORIES = dict(INDEX_TYPES, **{"compressed-pgm": CompressedPGMIndex})

ALL_INDEXES = list(FACTORIES)

#: Indexes that reject duplicate keys by contract (the paper observes
#: "Hist-Tree and ART did not work on wiki", the dataset with
#: duplicates).
REJECTS_DUPLICATES = {"hist-tree", "art"}

DATASETS = ["books", "osmc", "fb", "wiki"]


@pytest.fixture(autouse=True)
def _every_backend(request, kernel_backend):
    """Every conformance assertion runs once per kernel backend.

    The batch engine runs every lookup on the active kernel backend
    (packable baselines hand it their packed form, the others finish
    through ``core/search.batch_lower_bound_window``, and the RMI
    adapter fuses routing and prediction on compiled backends), so the
    whole contract -- oracle parity, scalar agreement, duplicates,
    out-of-range, adversarial families -- re-runs with each available
    backend installed as the process default.  The speed smoke at the
    bottom is backend-independent and only runs its numpy leg.
    """
    if "smoke" in request.keywords and kernel_backend.name != "numpy":
        pytest.skip("speed smoke runs on one backend leg only")


@pytest.fixture(scope="module")
def built(small_datasets):
    """Cache of built indexes keyed by (index name, dataset name)."""
    cache: dict[tuple[str, str], object] = {}

    def get(name: str, dataset: str):
        key = (name, dataset)
        if key not in cache:
            try:
                cache[key] = FACTORIES[name](small_datasets[dataset])
            except UnsupportedDataError:
                assert name in REJECTS_DUPLICATES, (
                    f"{name} unexpectedly rejected {dataset}"
                )
                cache[key] = None
        return cache[key]

    return get


def scalar_answers(index, queries: np.ndarray) -> np.ndarray:
    lookup = index.lookup if isinstance(index, RMI) else index.lower_bound
    return np.array([lookup(int(q)) for q in queries], dtype=np.int64)


# ----------------------------------------------------------------------
# Contract on the real datasets
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("name", ALL_INDEXES)
class TestDatasetConformance:
    def test_batch_matches_oracle(self, built, small_datasets, mixed_queries,
                                  name, dataset):
        index = built(name, dataset)
        if index is None:
            pytest.skip(f"{name} rejects {dataset} (documented behaviour)")
        keys = small_datasets[dataset]
        queries = mixed_queries(keys, 600)
        np.testing.assert_array_equal(
            index.lookup_batch(queries),
            lower_bound_oracle(keys, queries),
            err_msg=f"{name}/{dataset}",
        )

    def test_batch_agrees_with_scalar(self, built, small_datasets,
                                      mixed_queries, name, dataset):
        index = built(name, dataset)
        if index is None:
            pytest.skip(f"{name} rejects {dataset} (documented behaviour)")
        keys = small_datasets[dataset]
        queries = mixed_queries(keys, 200)[:96]
        np.testing.assert_array_equal(
            index.lookup_batch(queries),
            scalar_answers(index, queries),
            err_msg=f"{name}/{dataset}",
        )


# ----------------------------------------------------------------------
# Semantics on crafted query sets
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_INDEXES)
class TestQuerySemantics:
    def test_absent_keys_lower_bound(self, built, small_datasets, name):
        """Gap midpoints and +-1 neighbours resolve to the next key."""
        index = built(name, "books")
        keys = small_datasets["books"]
        gaps = np.flatnonzero(np.diff(keys) > 1)[:200]
        mid = keys[gaps] + (keys[gaps + 1] - keys[gaps]) // np.uint64(2)
        after = keys[gaps] + np.uint64(1)
        before = keys[gaps + 1] - np.uint64(1)
        queries = np.concatenate([mid, after, before])
        np.testing.assert_array_equal(
            index.lookup_batch(queries),
            lower_bound_oracle(keys, queries),
            err_msg=name,
        )

    def test_duplicates_first_position(self, name):
        """Queries on duplicated keys land on the first occurrence."""
        values = np.array([5, 10, 999, 2**40, 2**63 - 1], dtype=np.uint64)
        keys = np.sort(np.repeat(values, 40))
        if name in REJECTS_DUPLICATES:
            with pytest.raises(UnsupportedDataError):
                FACTORIES[name](keys)
            return
        index = FACTORIES[name](keys)
        got = index.lookup_batch(values)
        np.testing.assert_array_equal(
            got, np.arange(len(values)) * 40, err_msg=name
        )
        np.testing.assert_array_equal(
            got, scalar_answers(index, values), err_msg=name
        )

    def test_out_of_range_both_ends(self, built, small_datasets, name):
        """Below the minimum -> 0; above the maximum -> n."""
        index = built(name, "books")
        keys = small_datasets["books"]
        lo, hi = int(keys[0]), int(keys[-1])
        queries = np.array(
            [0, max(lo - 1, 0), lo, hi, hi + 1, 2**64 - 1], dtype=np.uint64
        )
        got = index.lookup_batch(queries)
        np.testing.assert_array_equal(
            got, lower_bound_oracle(keys, queries), err_msg=name
        )
        assert got[0] == 0
        assert got[-1] == len(keys)
        np.testing.assert_array_equal(
            got, scalar_answers(index, queries), err_msg=name
        )


# ----------------------------------------------------------------------
# Degenerate batch shapes: empty and single-key batches
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_INDEXES)
class TestBatchEdgeCases:
    """The serving layer dispatches whatever a micro-batch contains --
    including a batch that is all ranges (empty point array) or a
    single straggler request -- so every index must accept degenerate
    shapes without special-casing by the caller."""

    def test_empty_batch(self, built, small_datasets, name):
        index = built(name, "books")
        empty = np.empty(0, dtype=np.uint64)
        result = index.lookup_batch(empty)
        assert result.dtype == np.int64
        assert len(result) == 0

    def test_single_key_batches(self, built, small_datasets, name):
        """Present, absent, below-min, and above-max singletons."""
        index = built(name, "books")
        keys = small_datasets["books"]
        singles = [
            keys[len(keys) // 2],                 # present
            keys[0] + np.uint64(1),               # likely absent, in range
            np.uint64(0),                         # below the minimum
            np.uint64(2**64 - 1),                 # above the maximum
        ]
        for q in singles:
            batch = np.array([q], dtype=np.uint64)
            got = index.lookup_batch(batch)
            assert got.shape == (1,)
            np.testing.assert_array_equal(
                got, lower_bound_oracle(keys, batch),
                err_msg=f"{name}/q={int(q)}",
            )

    def test_empty_range_batch(self, built, small_datasets, name):
        index = built(name, "books")
        empty = np.empty(0, dtype=np.uint64)
        starts, counts = index.range_query_batch(empty, empty)
        assert len(starts) == 0 and len(counts) == 0

    def test_single_range_batch(self, built, small_datasets, name):
        index = built(name, "books")
        keys = small_datasets["books"]
        lo, hi = keys[10], keys[50]
        starts, counts = index.range_query_batch(
            np.array([lo], dtype=np.uint64), np.array([hi], dtype=np.uint64)
        )
        want_start = lower_bound_oracle(keys, np.array([lo]))[0]
        want_end = lower_bound_oracle(keys, np.array([hi]))[0]
        assert starts[0] == want_start
        assert counts[0] == want_end - want_start

    def test_serve_batch_degenerate_shapes(self, built, small_datasets,
                                           name):
        """The serving hook composes both paths; either side may be
        empty and the all-empty call must return three empty arrays."""
        index = built(name, "books")
        keys = small_datasets["books"]
        empty = np.empty(0, dtype=np.uint64)
        points = np.array([keys[7], np.uint64(0)], dtype=np.uint64)
        positions, starts, counts = index.serve_batch(points, empty, empty)
        np.testing.assert_array_equal(
            positions, lower_bound_oracle(keys, points), err_msg=name
        )
        assert len(starts) == 0 and len(counts) == 0
        positions, starts, counts = index.serve_batch(
            empty, np.array([keys[3]]), np.array([keys[9]])
        )
        assert len(positions) == 0
        assert starts[0] == lower_bound_oracle(keys, keys[3:4])[0]
        positions, starts, counts = index.serve_batch(empty, empty, empty)
        assert len(positions) == len(starts) == len(counts) == 0


# ----------------------------------------------------------------------
# Property-style randomized adversarial key sets
# ----------------------------------------------------------------------


def _adversarial_keys(family: str, rng: np.random.Generator) -> np.ndarray:
    """One random key set from an adversarial family."""
    if family == "all-equal":
        value = int(rng.integers(0, 2**63, dtype=np.uint64))
        return np.full(int(rng.integers(16, 200)), value, dtype=np.uint64)
    if family == "two-key":
        a = rng.integers(0, 2**62, dtype=np.uint64)
        b = a + np.uint64(1) + rng.integers(1, 2**62, dtype=np.uint64)
        reps = rng.integers(1, 100, size=2)
        return np.sort(np.repeat(
            np.array([a, b], dtype=np.uint64), reps
        ))
    if family == "dense-runs":
        # Several consecutive integer runs separated by huge gaps
        # (spacing >= 2**50 keeps the runs disjoint and sorted).
        starts = (np.arange(1, 5, dtype=np.uint64) * np.uint64(2**50)
                  + rng.integers(0, 2**32, size=4, dtype=np.uint64))
        runs = [
            np.arange(s, s + np.uint64(rng.integers(32, 256)),
                      dtype=np.uint64)
            for s in starts
        ]
        return np.concatenate(runs)
    if family == "uint64-outliers":
        # fb-like: a dense bulk plus a handful of extreme outliers.
        bulk = np.sort(rng.choice(10**9, size=500, replace=False)).astype(
            np.uint64
        )
        outliers = (np.uint64(2**64 - 1)
                    - rng.choice(64, size=8, replace=False).astype(np.uint64))
        return np.sort(np.concatenate([bulk, outliers]))
    raise AssertionError(family)


def _adversarial_queries(keys: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    present = rng.choice(keys, size=64)
    near = np.concatenate([
        np.maximum(present, np.uint64(1)) - np.uint64(1),
        np.minimum(present, np.uint64(2**64 - 2)) + np.uint64(1),
    ])
    uniform = rng.integers(0, 2**64, size=64, dtype=np.uint64)
    edges = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    return np.concatenate([present, near, uniform, edges])


@pytest.mark.parametrize("seed", [7, 77, 777])
@pytest.mark.parametrize(
    "family", ["all-equal", "two-key", "dense-runs", "uint64-outliers"]
)
@pytest.mark.parametrize("name", ALL_INDEXES)
def test_property_adversarial(name, family, seed):
    rng = np.random.default_rng((hash((family, seed)) & 0xFFFF) + seed)
    keys = _adversarial_keys(family, rng)
    try:
        index = FACTORIES[name](keys)
    except UnsupportedDataError:
        assert name in REJECTS_DUPLICATES
        assert len(np.unique(keys)) < len(keys)
        return
    queries = _adversarial_queries(keys, rng)
    got = index.lookup_batch(queries)
    np.testing.assert_array_equal(
        got,
        lower_bound_oracle(keys, queries),
        err_msg=f"{name}/{family}/seed={seed}",
    )
    sample = queries[:: max(len(queries) // 32, 1)]
    np.testing.assert_array_equal(
        index.lookup_batch(sample),
        scalar_answers(index, sample),
        err_msg=f"{name}/{family}/seed={seed}",
    )


def test_rmi_conformance_on_adversarial_sets():
    """The bare RMI honours the same contract as the OrderedIndexes."""
    rng = np.random.default_rng(4242)
    for family in ("all-equal", "two-key", "dense-runs", "uint64-outliers"):
        keys = _adversarial_keys(family, rng)
        rmi = RMI(keys, layer_sizes=[16])
        queries = _adversarial_queries(keys, rng)
        np.testing.assert_array_equal(
            rmi.lookup_batch(queries),
            lower_bound_oracle(keys, queries),
            err_msg=family,
        )


# ----------------------------------------------------------------------
# Writable tier over every family
# ----------------------------------------------------------------------


def _write_burst(keys: np.ndarray, rng: np.random.Generator):
    """A mixed batch: fresh inserts, upserts, deletes, one rewrite.

    Returns ``(wkeys, ops, live)`` where ``live`` is the oracle key
    array after the burst (base multiset with every written key's
    multiplicity overridden: 1 for insert, 0 for tombstone).
    """
    from repro.writable.delta import OP_INSERT, OP_TOMBSTONE

    present = keys[rng.choice(len(keys), 48, replace=False)]
    present = present[np.sort(np.unique(present, return_index=True)[1])]
    deletes, upserts = present[:16], present[16:32]
    gaps = np.flatnonzero(np.diff(keys) > 2)
    fresh = keys[gaps[rng.choice(len(gaps), 16, replace=False)]] \
        + np.uint64(1)
    fresh = np.unique(fresh)
    wkeys = np.concatenate([deletes, upserts, fresh,
                            deletes[:1]])           # rewrite: del then ins
    ops = np.concatenate([
        np.full(len(deletes), OP_TOMBSTONE, dtype=np.int8),
        np.full(len(upserts) + len(fresh), OP_INSERT, dtype=np.int8),
        np.array([OP_INSERT], dtype=np.int8),       # last op wins
    ]).astype(np.int8)

    final: dict[int, int] = {}
    for k, op in zip(wkeys.tolist(), ops.tolist()):
        final[k] = op
    written = np.array(sorted(final), dtype=np.uint64)
    live = np.sort(np.concatenate([
        keys[~np.isin(keys, written)],
        np.array([k for k, op in final.items() if op == int(OP_INSERT)],
                 dtype=np.uint64),
    ]))
    return wkeys, ops, live


@pytest.mark.parametrize("name", ALL_INDEXES)
class TestWritableTier:
    """Every family keeps the lookup contract behind ``WritableIndex``."""

    def test_contract_after_write_burst(self, built, small_datasets, name):
        from repro.writable import WritableIndex

        base = built(name, "books")
        keys = small_datasets["books"]
        rng = np.random.default_rng(hash(name) & 0xFFFF)
        wkeys, ops, live = _write_burst(keys, rng)

        windex = WritableIndex(base)
        windex.apply(wkeys, ops)
        np.testing.assert_array_equal(np.asarray(windex.keys), live,
                                      err_msg=name)
        queries = np.concatenate([
            wkeys, wkeys - np.uint64(1), wkeys + np.uint64(1),
            keys[:: len(keys) // 64],
            np.array([0, 2**64 - 1], dtype=np.uint64),
        ])
        np.testing.assert_array_equal(
            windex.lookup_batch(queries),
            lower_bound_oracle(live, queries),
            err_msg=f"{name} dirty",
        )
        # half-open [low, high) ranges over the live set
        lows, highs = queries[:32], np.maximum(queries[:32], queries[32:64])
        starts, counts = windex.range_query_batch(lows, highs)
        estarts = lower_bound_oracle(live, lows)
        np.testing.assert_array_equal(starts, estarts, err_msg=name)
        np.testing.assert_array_equal(
            counts, lower_bound_oracle(live, highs) - estarts, err_msg=name
        )
        # rebuild drains the delta into a same-family base; answers and
        # live keys are unchanged (rebuild-timing independence)
        new_base = windex.rebuild()
        assert type(new_base) is type(base), name
        assert windex.delta_len == 0
        np.testing.assert_array_equal(np.asarray(windex.keys), live,
                                      err_msg=name)
        np.testing.assert_array_equal(
            windex.lookup_batch(queries),
            lower_bound_oracle(live, queries),
            err_msg=f"{name} rebuilt",
        )


# ----------------------------------------------------------------------
# Batch throughput smoke benchmark
# ----------------------------------------------------------------------


SPEEDUP_CANDIDATES = ["binary-search", "pgm-index", "radix-spline", "b-tree"]


@pytest.mark.smoke
def test_batch_is_faster_than_scalar_loop():
    """``lookup_batch`` beats an equivalent scalar loop by >= 5x.

    The acceptance bar of the batch engine: at 100k keys, at least
    three baselines must answer a workload at 5x the throughput of
    calling ``lower_bound`` in a Python loop.  The margin in practice
    is orders of magnitude; 5x keeps the assertion robust on loaded CI
    machines.
    """
    from repro import data

    keys = data.generate("books", n=100_000)
    rng = np.random.default_rng(99)
    queries = keys[rng.integers(0, len(keys), 20_000)]
    want = lower_bound_oracle(keys, queries)

    fast_enough = []
    for name in SPEEDUP_CANDIDATES:
        index = FACTORIES[name](keys)

        t0 = time.perf_counter()
        batch = index.lookup_batch(queries)
        batch_s = time.perf_counter() - t0
        np.testing.assert_array_equal(batch, want, err_msg=name)

        t0 = time.perf_counter()
        scalar = [index.lower_bound(int(q)) for q in queries]
        scalar_s = time.perf_counter() - t0
        assert np.array_equal(np.array(scalar), want), name

        if scalar_s >= 5.0 * batch_s:
            fast_enough.append((name, scalar_s / max(batch_s, 1e-9)))

    assert len(fast_enough) >= 3, (
        f"expected >=3 baselines with a 5x batch speedup, got {fast_enough}"
    )
