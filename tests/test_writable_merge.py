"""The writable tier's write path: the delta merge and the live snapshot.

* ``merge_live_steps`` (the snapshot a rebuild builds over) on every kernel
  backend equals ``np.sort`` over the live multiset, on adversarial
  bases: duplicate runs around delta keys, keys at 0 and 2^64-1, a
  single repeated key, tombstones of absent keys, re-inserts of base
  keys, an empty delta and a delta deleting every key.
* ``_View.merged_with`` ranks a raw write batch in the base once and
  hands it to the backend's ``merge_delta``, which keeps each key's
  last write, counts its base multiplicity and merges it into the
  buffer in one call; on every backend it equals the sort-based merge
  kept below as the reference, the base multiplicities and correction
  it writes equal a fresh view's, and its arrays equal the staged path
  it replaced (a last-write-wins sort of the batch, two base lookups
  per key, then the splice).  The C kernel's arrays are bit-identical
  to the NumPy reference's on the conformance suite's adversarial
  families and on batches that repeat keys, and both refuse mismatched
  lengths and ops other than 0 and 1 without publishing anything.
* ``finish_rebuild`` derives the compacted delta's correction from the
  snapshot's delta (the backend's ``compact_delta``), equal to one
  counted against the new base, bit-identically on every backend.
* The delta's bucket table, kept by ``merge_delta`` and built by
  ``compact_delta``, equals the table counted from scratch against the
  view's base after every write and publication, on every backend
  alike, and dirty reads through it answer the live-multiset oracle:
  appends past the base's last key (one bucket holds the delta), keys
  0 and 2^64-1, duplicate runs with tombstones, a base shorter than one
  bucket, writes on bucket edges, and a bucket whose base keys are all
  deleted.
* ``WritableIndex.n`` counts the live keys without building them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.baselines import INDEX_TYPES
from repro.kernels.base import BUCKET_SHIFT, run_steps, table_size
from repro.kernels.numpy_backend import NumpyBackend
from repro.writable import OP_INSERT, OP_TOMBSTONE, WritableIndex, empty_delta
from repro.writable.index import _View

from .conftest import kernel_backend_params
from .test_writable import BASE_FAMILIES, _LiveOracle, _random_batch

MAX = 2**64 - 1

#: The backends that load here: the merge's arrays must agree on all.
LOADABLE = [name for name in kernels.KNOWN_BACKENDS
            if kernels.backend_available(name)]

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
    got = run_steps(kernels.get_backend(backend).merge_live_steps(
        base, dk, ops, len(want)))
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
    merge = kernels.get_backend(backend).merge_live_steps
    for size in (3, 5):
        with pytest.raises(ValueError):
            run_steps(merge(base, dk, ops, size))


# ---------------------------------------------------------------------------
# The merge against a sort-based merge
# ---------------------------------------------------------------------------


def _last_writes(keys, ops, seq_start):
    """The batch's last write per key, in key order: ``(keys, ops,
    seqs)``, the ``i``-th write carrying ``seq_start + i``."""
    keys = np.asarray(keys, dtype=np.uint64)
    order = np.argsort(keys, kind="stable")
    last = np.append(keys[order][1:] != keys[order][:-1], True)
    sel = order[last]
    return (keys[sel], np.asarray(ops, dtype=np.int8)[sel],
            np.int64(seq_start) + sel.astype(np.int64))


def _sort_merge(state, keys, ops, seq_start, now):
    """The delta merge by sorting: dedup the batch last-wins, drop the
    entries it replaces (keeping their oldest born), re-sort all."""
    b_keys, b_ops, b_seqs = _last_writes(keys, ops, seq_start)
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


def _staged_merge(view, keys, ops, seq_start, now):
    """The write path one-pass ``merge_delta`` replaced, on ``view``:
    the batch deduplicated last-write-wins in key order, each kept
    key's lower bound and multiplicity from two base lookups
    (``_View.base_ranks``), then the splice of the sorted batch into
    the buffer."""
    b_keys, b_ops, b_seqs = _last_writes(keys, ops, seq_start)
    lower, mult = view.base_ranks(b_keys)
    d = view.delta
    return NumpyBackend._splice(
        (d.keys, d.ops, d.seqs, d.born, view.correction(), view.table()),
        (b_keys, b_ops, b_seqs, np.full(len(b_keys), float(now)), mult,
         lower))


def _view_arrays(view):
    d = view.delta
    return (d.keys, d.ops, d.seqs, d.born, view._corr, view._table)


def _assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


_batches = st.lists(
    st.lists(st.tuples(_key, st.booleans()), min_size=1, max_size=30),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(base=_bases, batches=_batches)
@example(base=np.array([5, 5, 9], dtype=np.uint64),
         batches=[[(5, True), (5, False), (7, True)],
                  [(5, True), (9, False), (9, True), (0, False)]])
def test_splice_matches_sort_merge_and_fresh_shadow(base, batches):
    """On every loadable backend, over a base that answers
    ``lookup_batch``: the merged buffer equals the sort-based merge,
    its multiplicities and correction equal a fresh view's, and every
    backend's arrays are bit-identical, and equal the staged path's."""
    owner = INDEX_TYPES["binary-search"](base)
    views = {name: _View(owner, empty_delta()) for name in LOADABLE}
    state, seq = empty_delta(), 0
    for step, batch in enumerate(batches):
        keys = np.array([k for k, _ in batch], dtype=np.uint64)
        ops = np.array([OP_INSERT if ins else OP_TOMBSTONE
                        for _, ins in batch], dtype=np.int8)
        now = float(step * 7 % 5)  # a clock that also steps back
        want = _sort_merge(state, keys, ops, seq, now)
        staged = _staged_merge(views[LOADABLE[0]], keys, ops, seq, now)
        for name in LOADABLE:
            with kernels.use_backend(name):
                views[name] = views[name].merged_with(keys, ops, seq, now)
        reference = _view_arrays(views[LOADABLE[0]])
        _assert_same_arrays(reference, staged)
        _assert_same_arrays(reference[:4], want)
        fresh = _View(owner, views[LOADABLE[0]].delta)
        _assert_same_arrays(reference[4:], (fresh.correction(),
                                            fresh.table()))
        for name in LOADABLE[1:]:
            _assert_same_arrays(_view_arrays(views[name]), reference)
        state, seq = views[LOADABLE[0]].delta, seq + len(keys)


def test_splice_keeps_in_batch_last_wins_oldest_born_newest_seq():
    view = _View(INDEX_TYPES["binary-search"](
        np.array([6, 6, 9], dtype=np.uint64)), empty_delta())
    view = view.merged_with(np.array([4, 8], dtype=np.uint64),
                            np.array([1, 1], dtype=np.int8), 0, 1.0)
    view = view.merged_with(np.array([8, 6, 8, 2], dtype=np.uint64),
                            np.array([1, 1, 0, 0], dtype=np.int8), 2, 5.0)
    d = view.delta
    assert d.keys.tolist() == [2, 4, 6, 8]
    assert d.ops.tolist() == [0, 1, 1, 0]  # 8: the last write wins
    assert d.seqs.tolist() == [5, 0, 3, 4]  # 8: the newest seq
    assert d.born.tolist() == [5.0, 1.0, 5.0, 1.0]  # 8: the oldest born
    # 2 and 8 are tombstones of absent keys, 6 an insert shadowing two
    # base copies.
    assert view._corr.tolist() == [0, 0, 1, 0, 0]


def _write(windex, batch) -> None:
    windex.apply(np.array([k for k, _ in batch], dtype=np.uint64),
                 np.array([OP_INSERT if ins else OP_TOMBSTONE
                           for _, ins in batch], dtype=np.int8))


@settings(max_examples=200, deadline=None)
@given(base=_bases, before=_batches, after=_batches)
def test_publication_derives_the_fresh_correction(base, before, after):
    """``finish_rebuild`` given the snapshot's delta derives the
    compacted delta's correction from it; it equals the correction
    counted by searching the new base, whatever the writes that raced
    the rebuild did to the snapshot's keys."""
    published = {}
    for name in LOADABLE:
        windex = WritableIndex(INDEX_TYPES["binary-search"](base),
                               clock=lambda: 1.0)
        with kernels.use_backend(name):
            for batch in before:
                _write(windex, batch)
            ticket = windex.begin_rebuild()
            if not len(ticket.live_keys):
                return  # nothing to build over
            for batch in after:
                _write(windex, batch)
            new_base = INDEX_TYPES["binary-search"](ticket.live_keys)
            windex.finish_rebuild(new_base, ticket)
        published[name] = windex._view
    view = published[LOADABLE[0]]
    fresh = _View(new_base, view.delta)
    np.testing.assert_array_equal(view._corr, fresh.correction())
    np.testing.assert_array_equal(view._table, fresh.table())
    for other in published.values():
        _assert_same_arrays(_view_arrays(other), _view_arrays(view))


# ---------------------------------------------------------------------------
# merge_delta: the C kernel against the NumPy reference
# ---------------------------------------------------------------------------

_COLLIDED = 2**63 + 8  # 2^63 + 1 ... 2^63 + 16 share one float64

#: ``(base keys, first batch, second batch)``: the conformance suite's
#: adversarial families, written as batches of ``(key, insert)``.
MERGE_FAMILIES = {
    "duplicate-base-keys": (
        [3, 5, 5, 5, 5, 9, 9, 12],
        [(5, False), (9, True), (4, True)],
        [(5, True), (9, False), (12, True), (3, False), (5, False)]),
    "edge-keys": (
        [0, 0, 1, MAX - 1, MAX, MAX],
        [(0, True), (MAX, False)],
        [(MAX, True), (0, False), (MAX - 1, False), (2, True)]),
    "float64-collided": (
        [_COLLIDED + i for i in (-7, -3, 0, 0, 2, 5)],
        [(_COLLIDED - 3, False), (_COLLIDED + 1, True)],
        [(_COLLIDED + i, i % 2 == 0) for i in range(-7, 8)]),
    "tombstones-of-absent-keys": (
        [10, 20, 30],
        [(15, False), (25, False)],
        [(5, False), (35, False), (15, False), (40, False)]),
    "inserts-of-present-keys": (
        [10, 20, 20, 30],
        [(10, True)],
        [(20, True), (30, True), (10, True), (20, True)]),
    "rewrites-only": (
        [10, 20, 30],
        [(10, True), (20, False), (25, True)],
        [(25, False), (10, False), (20, True), (25, True)]),
    "empty-delta": (
        [10, 20, 30],
        [],
        [(20, False), (21, True), (0, True)]),
    # One-pass writes: a batch that repeats keys (the last op wins and
    # carries its own seq), a one-write batch, one key written many
    # times, keys already in the delta (their older born stays), a long
    # run of base copies, and deletes of absent keys.
    "repeated-keys-in-a-batch": (
        [2, 4, 4, 8],
        [(6, True), (4, False), (6, False), (1, True), (4, True),
         (6, True), (1, False)],
        [(4, False), (9, True), (4, True), (9, False), (2, False)]),
    "one-write-batch": (
        [2, 4, 4, 8],
        [(4, False)],
        [(3, True)]),
    "one-key-many-times": (
        [7, 7, 7],
        [(7, i % 3 == 0) for i in range(40)],
        [(7, i % 2 == 0) for i in range(41)]),
    "keys-already-in-the-delta": (
        [10, 20, 30, 40],
        [(10, False), (25, True), (40, True), (45, False)],
        [(25, False), (45, True), (10, True), (40, False), (26, True)]),
    "long-multiplicity-run": (
        [1] + [5] * 700 + [6] * 3 + [9],
        [(5, True), (6, False), (4, True)],
        [(5, False), (5, True), (6, True), (1, False), (9, False)]),
    "deletes-of-absent-keys": (
        [0, 100, MAX],
        [(50, False), (MAX - 1, False), (1, False)],
        [(50, False), (99, False), (101, False), (2, False)]),
}


def _batch(writes):
    return (np.array([k for k, _ in writes], dtype=np.uint64),
            np.array([OP_INSERT if ins else OP_TOMBSTONE
                      for _, ins in writes], dtype=np.int8))


@pytest.mark.parametrize("backend", kernel_backend_params())
@pytest.mark.parametrize("family", sorted(MERGE_FAMILIES))
def test_merge_delta_matches_the_reference(backend, family):
    """Each batch, merged into the same view on ``backend`` and on
    NumPy, gives arrays bit-identical to each other, to the staged path
    and, for the buffer, to the sort-based merge; reads through the
    result answer the live-multiset oracle."""
    base_keys, first, second = MERGE_FAMILIES[family]
    base = np.array(base_keys, dtype=np.uint64)
    owner = INDEX_TYPES["binary-search"](base)
    oracle = _LiveOracle(base)
    view, seq = _View(owner, empty_delta()), 0
    for writes in (first, second):
        if not writes:
            continue
        keys, ops = _batch(writes)
        now = 5.0 - seq  # a clock that steps back: older born stays
        got = {}
        for name in ("numpy", backend):
            with kernels.use_backend(name):
                got[name] = _view_arrays(view.merged_with(keys, ops, seq,
                                                          now))
        _assert_same_arrays(got[backend], got["numpy"])
        _assert_same_arrays(got[backend],
                            _staged_merge(view, keys, ops, seq, now))
        _assert_same_arrays(got[backend][:4],
                            _sort_merge(view.delta, keys, ops, seq, now))
        with kernels.use_backend(backend):
            view = view.merged_with(keys, ops, seq, now)
        oracle.apply(keys, ops)
        seq += len(writes)
    queries = np.unique(np.concatenate([
        base, np.array([0, 1, 2, MAX - 1, MAX], dtype=np.uint64),
        view.delta.keys]))
    with kernels.use_backend(backend):
        np.testing.assert_array_equal(
            view.lookup(queries),
            np.searchsorted(oracle.live, queries, side="left"))
        assert view.live_count() == len(oracle.live)


@pytest.mark.parametrize("backend", kernel_backend_params())
def test_compact_delta_refuses_mismatched_lengths(backend):
    compact = kernels.get_backend(backend).compact_delta
    keys, ops = np.array([1, 2], dtype=np.uint64), np.array([1, 0], np.int8)
    delta = (keys, ops, np.array([0, 1], dtype=np.int64), np.zeros(2),
             np.zeros(3, dtype=np.int64))
    base = np.arange(100, dtype=np.uint64)
    for slot in range(1, 5):
        short = tuple(a[:-1] if i == slot else a
                      for i, a in enumerate(delta))
        with pytest.raises(ValueError):
            compact(short, (keys, ops), 0, base)
    with pytest.raises(ValueError):
        compact(delta, (keys, ops[:1]), 0, base)
    kept = compact(delta, (keys, ops), 0, base)
    assert kept[0].tolist() == [2]
    assert kept[5].tolist() == [0, 1, 1]


@pytest.mark.parametrize("backend", kernel_backend_params())
def test_merge_delta_refuses_mismatched_lengths(backend):
    merge = kernels.get_backend(backend).merge_delta
    keys, ops = np.array([1, 2], dtype=np.uint64), np.array([1, 0], np.int8)
    seqs, born = np.array([0, 1], dtype=np.int64), np.zeros(2)
    base = np.arange(100, dtype=np.uint64)
    delta = (keys, ops, seqs, born, np.zeros(3, dtype=np.int64),
             np.array([0, 2], dtype=np.int64))
    batch = (keys + np.uint64(1), ops, np.array([2, 3], dtype=np.int64))
    for slot in range(1, 6):
        short = tuple(a[:-1] if i == slot else a
                      for i, a in enumerate(delta))
        with pytest.raises(ValueError):
            merge(short, batch, 2, 0.0, base)
    for slot in range(1, 3):
        short = tuple(a[:-1] if i == slot else a
                      for i, a in enumerate(batch))
        with pytest.raises(ValueError):
            merge(delta, short, 2, 0.0, base)
    merged = merge(delta, batch, 2, 0.0, base)
    assert len(merged[0]) == 3
    assert merged[5].tolist() == [0, 3]  # one new key, 3, below bucket 1
    assert merged[4].tolist() == [0, 0, 0, -1]  # 3: one base copy deleted


@pytest.mark.parametrize("backend", kernel_backend_params())
def test_merge_delta_refusal_publishes_nothing(backend):
    """An op other than 0 or 1 -- also one that a cast to ``int8``
    would turn into 0 or 1 -- or unequal key and op lengths raise
    ``ValueError`` from ``merge_delta`` and from
    ``WritableIndex.apply``, which then publishes nothing and uses no
    sequence numbers."""
    merge = kernels.get_backend(backend).merge_delta
    base = np.arange(0, 1000, 10, dtype=np.uint64)
    windex = WritableIndex(INDEX_TYPES["binary-search"](base))
    keys = np.array([5, 10, 15], dtype=np.uint64)
    with kernels.use_backend(backend):
        windex.apply(keys, np.array([1, 0, 1], dtype=np.int8))
        view, seq = windex._view, windex._next_seq
        d = view.delta
        delta = (d.keys, d.ops, d.seqs, d.born, view.correction(),
                 view.table())
        lower = np.searchsorted(base, keys)
        for ops in (np.array([1, 2, 0], dtype=np.int8),
                    np.array([-1, 0, 1], dtype=np.int8),
                    np.array([1, 256, 0], dtype=np.int64),
                    np.array([1, 0], dtype=np.int8)):
            with pytest.raises(ValueError):
                merge(delta, (keys, ops, lower), seq, 2.0, base)
            with pytest.raises(ValueError):
                windex.apply(keys, ops)
            assert windex._view is view and windex._next_seq == seq
        with pytest.raises(ValueError):
            merge(delta, (keys, np.ones(3, np.int8), lower[:2]), seq, 2.0,
                  base)
        live = np.sort(np.concatenate([base[base != 10], keys[[0, 2]]]))
        np.testing.assert_array_equal(windex.lookup_batch(base),
                                      np.searchsorted(live, base))


# ---------------------------------------------------------------------------
# The bucket table: kept by merge_delta and compact_delta, read by
# delta_correct
# ---------------------------------------------------------------------------


def _recount(base_keys: np.ndarray, delta_keys: np.ndarray) -> np.ndarray:
    """The bucket table counted from scratch: per bucket, the delta keys
    whose base lower bound is below the bucket's first position."""
    buckets = np.arange(table_size(len(base_keys)), dtype=np.int64)
    return np.searchsorted(np.searchsorted(base_keys, delta_keys),
                           buckets << BUCKET_SHIFT)


def _appends(start: int, count: int):
    return [(start + 3 * i, True) for i in range(count)]


#: ``(base keys, steps)``: a step is a write batch of ``(key, insert)``,
#: or ``("rebuild", batch)`` -- a snapshot, the batch written while the
#: rebuild runs, then the publication over the snapshot's live keys.
TABLE_FAMILIES = {
    # Every delta key ranks past the base's last key: one bucket holds
    # the whole delta, and a read there searches all of it.
    "append-only-past-the-max": (
        list(range(0, 640, 5)),
        [_appends(10**6, 40), _appends(10**6 + 1, 40),
         ("rebuild", _appends(2 * 10**6, 30)), _appends(3 * 10**6, 70)]),
    "edge-keys": (
        [0, 0, 0] + list(range(1, 200)) + [MAX - 1, MAX, MAX],
        [[(0, False), (MAX, True), (MAX - 1, False), (2**63, True)],
         ("rebuild", [(0, True), (MAX, False), (1, False)]),
         [(MAX, True), (0, False), (MAX - 2, True)]]),
    "duplicate-heavy-with-tombstones": (
        np.repeat(np.arange(10, 200, 10), 37).tolist(),
        [[(20, False), (30, False), (35, False), (10, True)],
         [(40, False), (50, True), (205, False), (0, False)],
         ("rebuild", [(60, False), (20, True), (199, True)]),
         [(70, False), (80, False), (30, True)]]),
    "shorter-than-a-bucket": (
        [5, 9, 9, 12],
        [[(9, False), (1, True), (13, True)],
         ("rebuild", [(12, False), (0, True)]),
         [(MAX, True), (9, True)]]),
    # Writes whose base lower bounds sit on bucket edges (63, 64, 127,
    # 128, ...), and racing writes on the rebuilt base's last keys of
    # a bucket, which the publication's table counts by equality.
    "bucket-edges": (
        list(range(0, 3000, 10)),
        [[(630, False), (631, True), (639, True), (640, True),
          (1275, True), (1280, False), (0, True), (2991, True)],
         ("rebuild", [(10 * i + d, (i + d) % 2 == 0)
                      for i in (*range(60, 70), *range(124, 134),
                                *range(188, 196))
                      for d in (0, 1, 9)]),
         [(10 * i - 1, True) for i in (64, 128, 192, 256)]]),
    # Deleting every base key of bucket 3 (base positions 192-255)
    # leaves its live range empty; the rebuilt base lacks them.
    "bucket-emptied-by-deletes": (
        list(range(0, 3000, 3)),
        [[(3 * i, False) for i in range(192, 256)],
         ("rebuild", [(3 * 220 + 1, True), (5, False)]),
         [(3 * 200 + 2, True), (3 * 300, False)]]),
}


def _rebuild_racing(windex, writes) -> None:
    """A rebuild with ``writes`` landing between its snapshot and its
    publication, so the publication keeps them."""
    ticket = windex.begin_rebuild()
    _write(windex, writes)
    windex.finish_rebuild(INDEX_TYPES["binary-search"](ticket.live_keys),
                          ticket)


@pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
def test_bucket_table_matches_the_recount(family):
    """After every write batch (``merge_delta``) and every publication
    (``compact_delta``), on every loadable backend: the served view's
    table equals one counted from scratch against its base, the
    backends' tables are identical, and dirty reads answer the
    live-multiset oracle."""
    base_keys, steps = TABLE_FAMILIES[family]
    base = np.array(base_keys, dtype=np.uint64)
    oracle = _LiveOracle(base)
    windexes = {name: WritableIndex(INDEX_TYPES["binary-search"](base))
                for name in LOADABLE}
    for step in steps:
        rebuild = step[0] == "rebuild"
        writes = step[1] if rebuild else step
        oracle.apply(*_batch(writes))
        tables = []
        for name, windex in windexes.items():
            with kernels.use_backend(name):
                if rebuild:
                    _rebuild_racing(windex, writes)
                else:
                    _write(windex, writes)
                view = windex._view
                tables.append(view._table)
                recount = _recount(view.base.keys, view.delta.keys)
                np.testing.assert_array_equal(view._table, recount)
                np.testing.assert_array_equal(
                    _View(view.base, view.delta).table(), recount)
                queries = np.unique(np.concatenate([
                    base, view.base.keys, view.delta.keys,
                    view.delta.keys + np.uint64(1),
                    view.delta.keys - np.uint64(1),
                    np.array([0, 1, MAX - 1, MAX], dtype=np.uint64)]))
                np.testing.assert_array_equal(
                    windex.lookup_batch(queries),
                    np.searchsorted(oracle.live, queries, side="left"))
        for table in tables[1:]:
            _assert_same_arrays((table,), (tables[0],))


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
