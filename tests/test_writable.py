"""Mixed read/write conformance for the writable index tier.

The writable tier's contract extends the read-only one:
``WritableIndex`` answers every batch query exactly as
``np.searchsorted(live_keys, q, side="left")`` over the *live* key
multiset -- the base multiset with exactly-one-copy upserts and
all-copies deletes folded in -- no matter how writes, queries, and
background rebuilds interleave.  This file locks that down with

* unit tests for the delta buffer's newest-wins merge, born-stamp
  inheritance, and watermark compaction protocol;
* property-style randomized interleavings over adversarial base
  families (duplicate runs, near-2^64 keys, single-key bases), with
  batch == scalar == oracle asserted after every write burst and
  mid-sequence synchronous rebuilds swapping the base under the
  reader;
* a Dynamic PGM parity run: the repo's own LSM-style baseline answers
  the same unique-key write trace identically;
* edge cases: delete-to-empty (rebuild refuses, delta keeps serving),
  staleness accounting, and the rebuild watermark racing new writes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.baselines import INDEX_TYPES
from repro.baselines.dynamic_pgm import DynamicPGMIndex
from repro.writable import (
    OP_INSERT,
    OP_TOMBSTONE,
    DeltaState,
    WritableIndex,
    empty_delta,
)
from repro.writable.index import _View


def _ins(*keys):
    return (np.array(keys, dtype=np.uint64),
            np.full(len(keys), OP_INSERT, dtype=np.int8))


def _del(*keys):
    return (np.array(keys, dtype=np.uint64),
            np.full(len(keys), OP_TOMBSTONE, dtype=np.int8))


class _LiveOracle:
    """Sorted-array reference with the writable tier's semantics."""

    def __init__(self, base_keys: np.ndarray) -> None:
        self.live = np.sort(np.asarray(base_keys, dtype=np.uint64))

    def apply(self, keys: np.ndarray, ops: np.ndarray) -> None:
        for k, op in zip(keys.tolist(), ops.tolist()):
            lo = int(np.searchsorted(self.live, np.uint64(k), side="left"))
            hi = int(np.searchsorted(self.live, np.uint64(k), side="right"))
            repl = [np.uint64(k)] if op == int(OP_INSERT) else []
            self.live = np.concatenate([
                self.live[:lo],
                np.array(repl, dtype=np.uint64),
                self.live[hi:],
            ])

    def lower_bound(self, q) -> int:
        return int(np.searchsorted(self.live, np.uint64(q), side="left"))


# ---------------------------------------------------------------------------
# Delta buffer unit tests
# ---------------------------------------------------------------------------

#: A base none of the delta unit tests write to.
_FAR_BASE = INDEX_TYPES["binary-search"](np.array([2**40], dtype=np.uint64))


def _merged(delta: DeltaState, keys, ops, seq_start: int,
            now: float) -> DeltaState:
    """``delta`` with one write batch folded in, as a served view
    merges it."""
    return _View(_FAR_BASE, delta).merged_with(keys, ops, seq_start,
                                               now).delta


def _compacted(delta: DeltaState, snapshot: DeltaState) -> DeltaState:
    """``delta`` as a rebuild's publication leaves it, the rebuild
    having folded in ``snapshot`` (the backend's ``compact_delta``)."""
    *arrays, _, _ = kernels.get_backend().compact_delta(
        (delta.keys, delta.ops, delta.seqs, delta.born,
         _View(_FAR_BASE, delta).correction()),
        (snapshot.keys, snapshot.ops), snapshot.watermark, _FAR_BASE.keys)
    return DeltaState(*arrays)


class TestDeltaState:
    def test_empty_delta_properties(self):
        d = empty_delta()
        assert len(d) == 0
        assert d.watermark == -1
        assert d.oldest_born == float("inf")

    def test_in_batch_last_op_wins(self):
        d = _merged(
            empty_delta(), np.array([5, 5, 5], dtype=np.uint64),
            np.array([OP_INSERT, OP_TOMBSTONE, OP_INSERT], dtype=np.int8),
            seq_start=0, now=1.0,
        )
        assert len(d) == 1
        assert d.ops[0] == OP_INSERT
        assert d.seqs[0] == 2  # the last write's sequence number

    def test_newest_wins_across_batches_keeps_oldest_born(self):
        d = _merged(empty_delta(), *_ins(5), seq_start=0, now=1.0)
        d = _merged(d, *_del(5), seq_start=1, now=9.0)
        assert len(d) == 1
        assert d.ops[0] == OP_TOMBSTONE
        assert d.born[0] == 1.0  # unmerged since the first write
        assert d.seqs[0] == 1  # but carries the newest sequence number

    def test_merge_keeps_sorted_unique_keys(self):
        d = _merged(empty_delta(), *_ins(30, 10, 20), seq_start=0,
                    now=0.0)
        d = _merged(d, *_del(20, 40), seq_start=3, now=1.0)
        assert d.keys.tolist() == [10, 20, 30, 40]
        assert d.ops.tolist() == [OP_INSERT, OP_TOMBSTONE, OP_INSERT,
                                  OP_TOMBSTONE]

    def test_compacted_drops_only_at_or_below_watermark(self):
        snapshot = _merged(empty_delta(), *_ins(1, 2), seq_start=0,
                           now=0.0)
        d = _merged(snapshot, *_ins(3), seq_start=5, now=1.0)  # raced
        survivors = _compacted(d, snapshot)
        assert survivors.keys.tolist() == [3]
        # Compacting at the full watermark empties the buffer.
        assert len(_compacted(d, d)) == 0

    def test_rewritten_key_survives_stale_watermark(self):
        # insert(7) snapshot, then delete(7) racing the rebuild: the
        # delete's seq is above the snapshot watermark, so it must
        # survive compaction or the delete would be silently lost.
        snapshot = _merged(empty_delta(), *_ins(7), seq_start=0, now=0.0)
        d = _merged(snapshot, *_del(7), seq_start=1, now=1.0)
        survivors = _compacted(d, snapshot)
        assert survivors.keys.tolist() == [7]
        assert survivors.ops[0] == OP_TOMBSTONE

    def test_validation_rejects_malformed_batches(self):
        with pytest.raises(ValueError):
            _merged(empty_delta(), np.array([1], dtype=np.uint64),
                    np.array([], dtype=np.int8), 0, 0.0)
        with pytest.raises(ValueError):
            _merged(empty_delta(), np.array([1], dtype=np.uint64),
                    np.array([7], dtype=np.int8), 0, 0.0)


# ---------------------------------------------------------------------------
# Property interleavings: batch == scalar == oracle
# ---------------------------------------------------------------------------

#: (name, base key array factory) -- adversarial families from the
#: read-only conformance suite, re-used under writes.
BASE_FAMILIES = {
    "uniform": lambda rng: np.sort(
        rng.integers(0, 2**40, 800, dtype=np.uint64)),
    "duplicate-runs": lambda rng: np.sort(
        rng.integers(0, 50, 600, dtype=np.uint64) * np.uint64(1000)),
    "near-max": lambda rng: np.sort(
        np.uint64(2**64 - 1) - rng.integers(0, 2000, 400,
                                            dtype=np.uint64)),
    "single-key": lambda rng: np.full(5, 42, dtype=np.uint64),
}


def _random_batch(rng, oracle: _LiveOracle, size: int):
    """A write batch mixing fresh inserts, upserts, and deletes."""
    keys = np.empty(size, dtype=np.uint64)
    ops = np.empty(size, dtype=np.int8)
    for i in range(size):
        roll = rng.random()
        if roll < 0.45 or not len(oracle.live):
            keys[i] = rng.integers(0, 2**48, dtype=np.uint64)
            ops[i] = OP_INSERT
        elif roll < 0.65:  # upsert an existing key
            keys[i] = oracle.live[rng.integers(len(oracle.live))]
            ops[i] = OP_INSERT
        else:
            keys[i] = oracle.live[rng.integers(len(oracle.live))]
            ops[i] = OP_TOMBSTONE
    return keys, ops


def _assert_answers_match(windex: WritableIndex, oracle: _LiveOracle,
                          rng) -> None:
    live = oracle.live
    probes = [0, 2**64 - 1]
    if len(live):
        sample = live[rng.integers(0, len(live), 8)]
        probes += sample.tolist() + (sample - 1).tolist() \
            + (sample + 1).tolist()
    probes += rng.integers(0, 2**48, 8, dtype=np.uint64).tolist()
    q = np.array(probes, dtype=np.uint64)
    expected = np.searchsorted(live, q, side="left").astype(np.int64)

    assert np.array_equal(np.asarray(windex.keys), live)
    assert np.array_equal(windex.lookup_batch(q), expected)
    # scalar path agrees with the batch path
    for key, want in zip(q.tolist()[:8], expected.tolist()[:8]):
        assert windex.lower_bound(key) == want
    # ranges: the repo-wide half-open [low, high) contract (both
    # boundaries are lower bounds), against the same oracle
    lows = q[:-1:3]
    highs = np.maximum(lows, q[1::3])
    starts, counts = windex.range_query_batch(lows, highs)
    estarts = np.searchsorted(live, lows, side="left").astype(np.int64)
    ecounts = (np.searchsorted(live, highs, side="left").astype(np.int64)
               - estarts)
    assert np.array_equal(starts, estarts)
    assert np.array_equal(counts, ecounts)
    # serve_batch is the fused form of both
    pos2, starts2, counts2 = windex.serve_batch(q, lows, highs)
    assert np.array_equal(pos2, expected)
    assert np.array_equal(starts2, estarts)
    assert np.array_equal(counts2, ecounts)


@pytest.mark.parametrize("family", sorted(BASE_FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_interleaved_writes_match_oracle(family, seed):
    rng = np.random.default_rng(seed)
    base_keys = BASE_FAMILIES[family](rng)
    windex = WritableIndex(INDEX_TYPES["b-tree"](base_keys))
    oracle = _LiveOracle(base_keys)
    rebuild_at = set(rng.integers(1, 10, 2).tolist())
    for step in range(10):
        keys, ops = _random_batch(rng, oracle, int(rng.integers(1, 40)))
        windex.apply(keys, ops)
        oracle.apply(keys, ops)
        if step in rebuild_at:
            # Mid-sequence synchronous rebuild + swap: the delta is
            # folded into a fresh base; answers must not move.
            windex.rebuild()
            assert windex.delta_len == 0
        _assert_answers_match(windex, oracle, rng)


@pytest.mark.parametrize("base_type", sorted(INDEX_TYPES))
def test_interleaving_green_on_every_index_family(base_type):
    """The acceptance sweep: the randomized interleaving suite (with a
    mid-sequence rebuild + swap) over *every* registered index family
    as the base.  Unique uniform keys, so duplicate-rejecting bases
    (hist-tree, art) build too; the duplicate-heavy key families are
    covered per-base-family above."""
    rng = np.random.default_rng(hash(base_type) & 0xFFFF)
    base_keys = BASE_FAMILIES["uniform"](rng)
    windex = WritableIndex(INDEX_TYPES[base_type](base_keys))
    oracle = _LiveOracle(base_keys)
    for step in range(5):
        keys, ops = _random_batch(rng, oracle, int(rng.integers(1, 40)))
        windex.apply(keys, ops)
        oracle.apply(keys, ops)
        if step == 2:
            windex.rebuild()
            assert windex.delta_len == 0
        _assert_answers_match(windex, oracle, rng)


def test_rmi_base_under_writes_matches_oracle():
    rng = np.random.default_rng(7)
    base_keys = np.sort(rng.integers(0, 2**40, 4000, dtype=np.uint64))
    windex = WritableIndex(INDEX_TYPES["rmi"](base_keys))
    oracle = _LiveOracle(base_keys)
    for step in range(6):
        keys, ops = _random_batch(rng, oracle, 64)
        windex.apply(keys, ops)
        oracle.apply(keys, ops)
        if step == 3:
            windex.rebuild()
        _assert_answers_match(windex, oracle, rng)


def test_upsert_collapses_base_duplicates():
    # exactly-one-copy: inserting a key that the base holds three
    # times leaves one live copy; deleting removes all of them.
    base = np.array([1, 5, 5, 5, 9], dtype=np.uint64)
    windex = WritableIndex(INDEX_TYPES["b-tree"](base))
    windex.insert(5)
    assert np.asarray(windex.keys).tolist() == [1, 5, 9]
    windex.delete(5)
    assert np.asarray(windex.keys).tolist() == [1, 9]
    assert not windex.contains(5)
    windex.insert(5)
    assert windex.contains(5)


def test_delete_to_empty_keeps_serving_and_rebuild_refuses():
    base = np.array([3, 8], dtype=np.uint64)
    windex = WritableIndex(INDEX_TYPES["b-tree"](base))
    windex.delete(3)
    windex.delete(8)
    assert len(np.asarray(windex.keys)) == 0
    assert windex.rebuild() is None  # nothing to build over
    assert windex.delta_len == 2  # the delta keeps shadowing
    q = np.array([0, 3, 8, 100], dtype=np.uint64)
    assert windex.lookup_batch(q).tolist() == [0, 0, 0, 0]
    windex.insert(8)
    assert windex.rebuild() is not None
    assert np.asarray(windex.keys).tolist() == [8]


def test_staleness_tracks_oldest_unmerged_write():
    windex = WritableIndex(
        INDEX_TYPES["b-tree"](np.array([1, 2], dtype=np.uint64)),
        clock=lambda: 100.0,
    )
    assert windex.staleness_s(now=105.0) == 0.0  # clean
    windex.insert(10)
    assert windex.staleness_s(now=105.0) == pytest.approx(5.0)
    windex.rebuild()
    assert windex.staleness_s(now=106.0) == 0.0


# ---------------------------------------------------------------------------
# Dynamic PGM parity: same write trace, same answers
# ---------------------------------------------------------------------------


def test_dynamic_pgm_parity_on_shared_write_trace():
    """The repo's LSM baseline and the writable wrapper agree.

    Dynamic PGM is the paper-adjacent reference for updatable learned
    indexes; on a duplicate-free trace both structures maintain the
    same live set, so ``lower_bound_batch``'s successor keys must
    match the writable tier's ``keys[pos]`` exactly.
    """
    rng = np.random.default_rng(11)
    base_keys = np.unique(rng.integers(0, 2**32, 3000, dtype=np.uint64))
    windex = WritableIndex(INDEX_TYPES["rmi"](base_keys))
    dpgm = DynamicPGMIndex(base_keys, eps=16)
    live = set(base_keys.tolist())
    for _ in range(5):
        for _ in range(40):
            if rng.random() < 0.6 or not live:
                k = int(rng.integers(0, 2**32))
                windex.insert(k)
                dpgm.insert(k)
                live.add(k)
            else:
                k = list(live)[rng.integers(len(live))]
                windex.delete(k)
                dpgm.delete(k)
                live.discard(k)
        q = np.concatenate([
            rng.integers(0, 2**32, 64, dtype=np.uint64),
            np.array(sorted(live)[:32], dtype=np.uint64),
        ])
        wkeys = np.asarray(windex.keys)
        pos = windex.lookup_batch(q)
        wfound = pos < len(wkeys)
        dkeys, dfound = dpgm.lower_bound_batch(q)
        assert np.array_equal(wfound, dfound)
        assert np.array_equal(wkeys[pos[wfound]], dkeys[dfound])
    windex.rebuild()
    assert np.array_equal(np.asarray(windex.keys),
                          np.array(sorted(live), dtype=np.uint64))


# ---------------------------------------------------------------------------
# Rebuild watermark protocol under racing writes
# ---------------------------------------------------------------------------


def test_finish_rebuild_preserves_racing_writes():
    base = np.array([10, 20, 30], dtype=np.uint64)
    windex = WritableIndex(INDEX_TYPES["b-tree"](base))
    windex.insert(15)
    ticket = windex.begin_rebuild()
    # Writes racing the off-thread build: applied after the snapshot.
    windex.delete(20)
    windex.insert(25)
    new_base = INDEX_TYPES["b-tree"](ticket.live_keys)
    windex.finish_rebuild(new_base, ticket)
    # The racing delete and insert survive the compaction...
    assert windex.delta_len == 2
    # ...and the merged answers reflect every write.
    assert np.asarray(windex.keys).tolist() == [10, 15, 25, 30]


def test_finish_rebuild_refuses_a_ticket_whose_base_was_replaced():
    base = np.array([10, 20, 30], dtype=np.uint64)
    windex = WritableIndex(INDEX_TYPES["b-tree"](base))
    windex.insert(15)
    stale = windex.begin_rebuild()
    windex.delete(20)
    windex.rebuild()  # a second rebuild publishes first
    current = windex.base
    with pytest.raises(ValueError, match="base"):
        windex.finish_rebuild(INDEX_TYPES["b-tree"](stale.live_keys), stale)
    assert windex.base is current
    assert np.asarray(windex.keys).tolist() == [10, 15, 30]
