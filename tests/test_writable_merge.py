"""The writable tier's write path: the delta splice and the live snapshot.

* ``merge_live`` (the snapshot a rebuild builds over) on every kernel
  backend equals ``np.sort`` over the live multiset, on adversarial
  bases: duplicate runs around delta keys, keys at 0 and 2^64-1, a
  single repeated key, tombstones of absent keys, re-inserts of base
  keys, an empty delta and a delta deleting every key.
* ``DeltaState.merged_with`` splices a batch into the buffer; it equals
  the sort-based merge kept below as the reference, and the shadow sums
  that ``_View.inherit_shadow`` carries across the splice equal a fresh
  ``shadow_cum()``.
* ``WritableIndex.n`` counts the live keys without building them.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.baselines import INDEX_TYPES
from repro.writable import OP_INSERT, OP_TOMBSTONE, WritableIndex, empty_delta
from repro.writable.index import _View

from .conftest import kernel_backend_params
from .test_writable import BASE_FAMILIES, _LiveOracle, _random_batch

MAX = 2**64 - 1

#: Few distinct values, so bases get duplicate runs and deltas hit them.
_POOL = [0, 1, 2, 5, 6, 7, 2**32, 2**63, MAX - 1, MAX]
_key = st.one_of(st.sampled_from(_POOL), st.integers(0, MAX))
_bases = st.lists(_key, min_size=1, max_size=80).map(
    lambda ks: np.sort(np.array(ks, dtype=np.uint64)))
_deltas = st.dictionaries(_key, st.booleans(), max_size=40)


def _live_oracle(base: np.ndarray, delta: "dict[int, bool]") -> np.ndarray:
    live = [k for k in base.tolist() if k not in delta]
    live += [k for k, insert in delta.items() if insert]
    return np.sort(np.array(live, dtype=np.uint64))


def _delta_arrays(delta: "dict[int, bool]"):
    keys = np.array(sorted(delta), dtype=np.uint64)
    ops = np.array([OP_INSERT if delta[k] else OP_TOMBSTONE
                    for k in keys.tolist()], dtype=np.int8)
    return keys, ops


# ---------------------------------------------------------------------------
# merge_live: every backend against the live-multiset oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", kernel_backend_params())
@settings(max_examples=300, deadline=None)
@given(base=_bases, delta=_deltas)
@example(base=np.full(7, 42, dtype=np.uint64), delta={42: False})
@example(base=np.full(7, 42, dtype=np.uint64), delta={42: True})
@example(base=np.array([0, 0, MAX, MAX], dtype=np.uint64),
         delta={0: True, 1: False, MAX: False})
@example(base=np.array([1, 5, 5, 5, 9], dtype=np.uint64), delta={})
@example(base=np.array([1, 5, 5, 5, 9], dtype=np.uint64),
         delta={1: False, 5: False, 9: False})
def test_merge_live_matches_live_multiset(backend, base, delta):
    dk, ops = _delta_arrays(delta)
    want = _live_oracle(base, delta)
    got = kernels.get_backend(backend).merge_live(base, dk, ops, len(want))
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("backend", kernel_backend_params())
def test_merge_live_rejects_a_wrong_count(backend):
    """A count that disagrees with the merge is an error, not a buffer
    overrun (the C kernel writes into a buffer of that size)."""
    if backend == "numpy":
        pytest.skip("the reference sizes its own result")
    base = np.array([1, 2, 3], dtype=np.uint64)
    dk, ops = _delta_arrays({4: True})
    merge = kernels.get_backend(backend).merge_live
    for size in (3, 5):
        with pytest.raises(ValueError):
            merge(base, dk, ops, size)


# ---------------------------------------------------------------------------
# The splice against a sort-based merge
# ---------------------------------------------------------------------------


def _sort_merge(state, keys, ops, seq_start, now):
    """The delta merge by sorting: dedup the batch last-wins, drop the
    entries it replaces (keeping their oldest born), re-sort all."""
    keys = np.asarray(keys, dtype=np.uint64)
    order = np.argsort(keys, kind="stable")
    last = np.append(keys[order][1:] != keys[order][:-1], True)
    sel = order[last]
    b_keys, b_ops = keys[sel], np.asarray(ops, dtype=np.int8)[sel]
    b_seqs = np.int64(seq_start) + sel.astype(np.int64)
    replaced = np.isin(state.keys, b_keys)
    old_born = dict(zip(state.keys[replaced].tolist(),
                        state.born[replaced].tolist()))
    b_born = np.array([min(now, old_born.get(k, now))
                       for k in b_keys.tolist()], dtype=np.float64)
    merged = [np.concatenate([a[~replaced], b]) for a, b in (
        (state.keys, b_keys), (state.ops, b_ops),
        (state.seqs, b_seqs), (state.born, b_born))]
    order = np.argsort(merged[0], kind="stable")
    return [a[order] for a in merged]


_batches = st.lists(
    st.lists(st.tuples(_key, st.booleans()), min_size=1, max_size=30),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(base=_bases, batches=_batches)
@example(base=np.array([5, 5, 9], dtype=np.uint64),
         batches=[[(5, True), (5, False), (7, True)],
                  [(5, True), (9, False), (9, True), (0, False)]])
def test_splice_matches_sort_merge_and_fresh_shadow(base, batches):
    owner = SimpleNamespace(keys=base)
    state, view, seq = empty_delta(), _View(owner, empty_delta()), 0
    for step, batch in enumerate(batches):
        keys = np.array([k for k, _ in batch], dtype=np.uint64)
        ops = np.array([OP_INSERT if ins else OP_TOMBSTONE
                        for _, ins in batch], dtype=np.int8)
        now = float(step * 7 % 5)  # a clock that also steps back
        want = _sort_merge(state, keys, ops, seq, now)
        merged = state.merged_with(keys, ops, seq, now)
        for got, ref in zip((merged.keys, merged.ops, merged.seqs,
                             merged.born), want):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)
        # ``added`` marks exactly the keys the buffer did not hold.
        np.testing.assert_array_equal(
            merged.keys[merged.added],
            np.setdiff1d(merged.keys, state.keys))
        new_view = _View(owner, merged)
        new_view.inherit_shadow(view)
        assert new_view._shadow_cum is not None
        np.testing.assert_array_equal(new_view.shadow_cum(),
                                      _View(owner, merged).shadow_cum())
        state, view, seq = merged, new_view, seq + len(keys)


def test_splice_keeps_in_batch_last_wins_oldest_born_newest_seq():
    d = empty_delta().merged_with(np.array([4, 8], dtype=np.uint64),
                                  np.array([1, 1], dtype=np.int8), 0, 1.0)
    d = d.merged_with(np.array([8, 6, 8, 2], dtype=np.uint64),
                      np.array([1, 1, 0, 0], dtype=np.int8), 2, 5.0)
    assert d.keys.tolist() == [2, 4, 6, 8]
    assert d.ops.tolist() == [0, 1, 1, 0]  # 8: the last write wins
    assert d.seqs.tolist() == [5, 0, 3, 4]  # 8: the newest seq
    assert d.born.tolist() == [5.0, 1.0, 5.0, 1.0]  # 8: the oldest born
    assert d.added.tolist() == [0, 2]


# ---------------------------------------------------------------------------
# WritableIndex.n
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(BASE_FAMILIES))
def test_live_count_equals_live_keys(family):
    rng = np.random.default_rng(11)
    base_keys = BASE_FAMILIES[family](rng)
    windex = WritableIndex(INDEX_TYPES["b-tree"](base_keys))
    oracle = _LiveOracle(base_keys)
    for step in range(8):
        keys, ops = _random_batch(rng, oracle, int(rng.integers(1, 40)))
        windex.apply(keys, ops)
        oracle.apply(keys, ops)
        if step == 4:
            windex.rebuild()
        assert windex.n == len(oracle.live) == len(windex.keys)
        assert windex.stats()["n"] == windex.n


def test_live_count_leaves_the_live_array_unbuilt():
    windex = WritableIndex(INDEX_TYPES["b-tree"](
        np.arange(0, 1000, 10, dtype=np.uint64)))
    windex.apply(np.array([5, 10, 20], dtype=np.uint64),
                 np.array([1, 0, 1], dtype=np.int8))
    assert windex.n == 100
    assert windex.search_bounds(15).hi == 99
    assert windex._view._live is None
