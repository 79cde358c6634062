"""The sorted delta buffer of the writable index tier.

An LSM-style *upsert* front (Dynamic PGM, PAPERS.md; ALEX's in-place
gapped array is the other classic answer): every write lands as one
entry in a sorted, per-key-unique buffer that shadows the immutable
base index until a background rebuild folds it in.  Two operations,
matching :mod:`repro.baselines.dynamic_pgm`'s flags:

* ``OP_INSERT`` (1) -- the key is live with **exactly one** copy,
* ``OP_TOMBSTONE`` (0) -- the key is absent (every base duplicate of
  the key is shadowed).

Newest-wins per key: a later write to the same key replaces the older
delta entry.  The exactly-one-copy insert rule is what keeps answers
*rebuild-timing independent*: the live multiplicity of a key is a pure
function of the base multiset and the newest delta op for that key, so
a query returns the same position whether or not a background rebuild
has compacted the delta in between -- the property the mixed
read/write oracle validation relies on.

Each entry additionally carries

* ``seq`` -- a writer-assigned monotone sequence number, used by the
  rebuild watermark protocol (:meth:`DeltaState.compacted` drops only
  entries the rebuild snapshot already folded in, so writes that raced
  the rebuild survive), and
* ``born`` -- the wall-clock time of the *oldest* surviving write to
  the key, feeding the staleness-bound metric (max age of unmerged
  delta).

:class:`DeltaState` is immutable by convention: writers derive a new
state with :meth:`merged_with` / :meth:`compacted` and publish it with
one reference assignment, so concurrent readers always see a coherent
buffer without locks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OP_INSERT", "OP_TOMBSTONE", "DeltaState", "empty_delta",
           "splice"]

#: Operation flags (int8), matching ``dynamic_pgm``'s run entries.
OP_INSERT = np.int8(1)
OP_TOMBSTONE = np.int8(0)

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_I8 = np.empty(0, dtype=np.int8)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


class DeltaState:
    """One immutable snapshot of the delta buffer (sorted, per-key unique)."""

    __slots__ = ("keys", "ops", "seqs", "born", "added", "_insert_cum")

    def __init__(self, keys: np.ndarray, ops: np.ndarray,
                 seqs: np.ndarray, born: np.ndarray) -> None:
        self.keys = keys
        self.ops = ops
        self.seqs = seqs
        self.born = born
        #: Positions of the keys that the batch which made this state
        #: added (:meth:`merged_with`); ``None`` for any other state.
        self.added: "np.ndarray | None" = None
        self._insert_cum: "np.ndarray | None" = None

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def insert_cum(self) -> np.ndarray:
        """Prefix counts of insert entries: ``insert_cum[i]`` is the
        number of live (insert-op) delta keys among the first ``i``
        delta keys.  Lets the merged lookup reuse its single
        ``searchsorted`` over the delta keys for both corrections
        instead of searching the insert subset separately.
        """
        cached = self._insert_cum
        if cached is None:
            cached = np.concatenate([
                np.zeros(1, dtype=np.int64),
                np.cumsum(self.ops == OP_INSERT, dtype=np.int64),
            ])
            self._insert_cum = cached
        return cached

    @property
    def watermark(self) -> int:
        """Highest sequence number in this snapshot (-1 when empty).

        Writers allocate strictly increasing sequence numbers, so any
        entry applied *after* this snapshot was captured carries a seq
        above the watermark -- :meth:`compacted` keeps exactly those.
        """
        return int(self.seqs.max()) if len(self.seqs) else -1

    @property
    def oldest_born(self) -> float:
        """Wall-clock time of the oldest unmerged write (inf when empty)."""
        return float(self.born.min()) if len(self.born) else float("inf")

    def merged_with(self, keys: np.ndarray, ops: np.ndarray,
                    seq_start: int, now: float) -> "DeltaState":
        """A new state with one write batch folded in (newest wins).

        Within the batch the *last* op per key wins (the batch is an
        ordered write stream); against the existing buffer the batch
        wins.  A re-written key keeps its oldest ``born`` -- the entry
        has been unmerged since the first write -- and takes the new
        ``seq``, so a post-rebuild compaction never drops a write that
        arrived after the rebuild snapshot.

        The deduplicated batch is spliced into the sorted buffer: one
        ``searchsorted`` of the batch, then linear copies -- O(batch
        log delta + delta), with no sort of the buffer.  The new
        state's :attr:`added` holds the positions of the keys the batch
        added, so :meth:`~repro.writable.index._View.inherit_shadow` can
        carry per-entry data across the splice by position.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        ops = np.ascontiguousarray(ops, dtype=np.int8)
        if len(keys) != len(ops):
            raise ValueError("write batch needs one op per key")
        if len(keys) == 0:
            return self
        if not np.all((ops == OP_INSERT) | (ops == OP_TOMBSTONE)):
            raise ValueError("ops must be OP_INSERT (1) or OP_TOMBSTONE (0)")
        # In-batch dedup, last-wins: a stable key sort keeps equal keys
        # in stream order, so the last row of each equal-key group is
        # the newest write to that key.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        last = np.empty(len(keys), dtype=bool)
        last[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        last[-1] = True
        sel = order[last]  # last occurrence per key, ascending key order
        batch_keys = keys[sel]
        batch_born = np.full(len(sel), float(now), dtype=np.float64)
        # Batch entries replace older entries for the same key but
        # inherit their older born stamp; the rest are new keys.
        pos = np.searchsorted(self.keys, batch_keys, side="left")
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == batch_keys[hit]
        batch_born[hit] = np.minimum(batch_born[hit], self.born[pos[hit]])
        fresh = ~hit
        # Each batch entry's slot: its insertion point plus the new keys
        # spliced in before it (a replaced entry keeps its slot).
        slots = pos + (np.cumsum(fresh) - fresh)
        added = slots[fresh]

        def merge(old: np.ndarray, batch: np.ndarray) -> np.ndarray:
            out = splice(old, added, batch[fresh])
            out[slots[hit]] = batch[hit]
            return out

        state = DeltaState(
            merge(self.keys, batch_keys),
            merge(self.ops, ops[sel]),
            merge(self.seqs, np.int64(seq_start) + sel.astype(np.int64)),
            merge(self.born, batch_born),
        )
        state.added = added
        return state

    def compacted(self, watermark: int) -> "DeltaState":
        """Entries newer than ``watermark`` (the post-rebuild buffer).

        A rebuild snapshots ``(live keys, watermark)``; everything at or
        below the watermark is folded into the new base and dropped
        here, while writes that raced the rebuild (seq above the
        watermark) keep shadowing the new base.
        """
        keep = self.seqs > np.int64(watermark)
        if keep.all():
            return self
        return DeltaState(
            np.ascontiguousarray(self.keys[keep]),
            np.ascontiguousarray(self.ops[keep]),
            np.ascontiguousarray(self.seqs[keep]),
            np.ascontiguousarray(self.born[keep]),
        )

    def nbytes(self) -> int:
        return int(self.keys.nbytes + self.ops.nbytes
                   + self.seqs.nbytes + self.born.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DeltaState {len(self)} entries, "
                f"watermark={self.watermark}>")


def splice(old: np.ndarray, added: np.ndarray,
           values: np.ndarray) -> np.ndarray:
    """``old`` with ``values`` spliced in at ``added``, their sorted
    positions in the result (as in :attr:`DeltaState.added`)."""
    out = np.empty(len(old) + len(added), dtype=old.dtype)
    kept = np.ones(len(out), dtype=bool)
    kept[added] = False
    out[kept] = old
    out[added] = values
    return out


def empty_delta() -> DeltaState:
    """The empty buffer every :class:`WritableIndex` starts from."""
    return DeltaState(_EMPTY_U64, _EMPTY_I8, _EMPTY_I64, _EMPTY_F64)
