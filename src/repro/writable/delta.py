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
  rebuild watermark protocol (a rebuild's publication, the backend's
  ``compact_delta``, drops only entries the rebuild snapshot already
  folded in, so writes that raced the rebuild survive), and
* ``born`` -- the wall-clock time of the *oldest* surviving write to
  the key, feeding the staleness-bound metric (max age of unmerged
  delta).

:class:`DeltaState` is immutable by convention: writers derive a new
state -- a write batch through the backend's ``merge_delta`` kernel,
which keeps each key's last write in the batch
(:meth:`~repro.writable.index._View.merged_with`), a rebuild's
publication through the backend's ``compact_delta`` kernel -- and
publish it with one reference assignment, so concurrent readers always
see a coherent buffer without locks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OP_INSERT", "OP_TOMBSTONE", "DeltaState", "empty_delta"]

#: Operation flags (int8), matching ``dynamic_pgm``'s run entries.
OP_INSERT = np.int8(1)
OP_TOMBSTONE = np.int8(0)

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_I8 = np.empty(0, dtype=np.int8)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


class DeltaState:
    """One immutable snapshot of the delta buffer (sorted, per-key unique)."""

    __slots__ = ("keys", "ops", "seqs", "born")

    def __init__(self, keys: np.ndarray, ops: np.ndarray,
                 seqs: np.ndarray, born: np.ndarray) -> None:
        self.keys = keys
        self.ops = ops
        self.seqs = seqs
        self.born = born

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def watermark(self) -> int:
        """Highest sequence number in this snapshot (-1 when empty).

        Writers allocate strictly increasing sequence numbers, so any
        entry applied *after* this snapshot was captured carries a seq
        above the watermark -- a rebuild's publication keeps exactly
        those.
        """
        return int(self.seqs.max()) if len(self.seqs) else -1

    @property
    def oldest_born(self) -> float:
        """Wall-clock time of the oldest unmerged write (inf when empty)."""
        return float(self.born.min()) if len(self.born) else float("inf")

    def nbytes(self) -> int:
        return int(self.keys.nbytes + self.ops.nbytes
                   + self.seqs.nbytes + self.born.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DeltaState {len(self)} entries, "
                f"watermark={self.watermark}>")


def empty_delta() -> DeltaState:
    """The empty buffer every :class:`WritableIndex` starts from."""
    return DeltaState(_EMPTY_U64, _EMPTY_I8, _EMPTY_I64, _EMPTY_F64)
