"""Abstract interface every kernel backend implements.

A backend provides the hot kernels of the lookup path over flat arrays
(see :mod:`repro.kernels.packed`, :mod:`repro.kernels.packed_pla`,
:mod:`repro.kernels.packed_tree`):

``lower_bound_window``
    Window-restricted batch lower bound with interval-escape repair --
    the shared completion step of *every* index's batch lookup
    (``core/search.batch_lower_bound_window`` dispatches here).
``delta_correct``
    The writable tier's merged-lookup completion: each query's rank in
    the sorted delta buffer, searched only inside the bucket its base
    answer picks from the delta's bucket table, plus a per-rank
    position correction gather, fused into one pass
    (``repro.writable.index._View.lookup`` dispatches here).
``merge_delta``
    The writable tier's write: a raw write batch, with each key's base
    lower bound, deduplicated last-write-wins, its base multiplicities
    counted, and merged into the sorted delta buffer with the merged
    lookup's correction array and bucket table, in one call
    (``repro.writable.index._View.merged_with`` dispatches here).
``compact_delta``
    The writable tier's publication: the delta entries newer than a
    rebuild's watermark, with their correction and bucket table against
    the rebuilt base (``WritableIndex.finish_rebuild`` dispatches here).
``merge_live_steps``
    The writable tier's snapshot: the base keys merged with the delta
    buffer into the sorted live key array a rebuild builds over
    (``repro.writable.index._View.live_keys_steps`` dispatches here).
``rmi_serve`` / ``pla_serve`` / ``tree_serve``
    The one fused kernel of each packed family, mapping ``(points,
    lows, highs)`` to ``(positions, starts, counts)``: the family's
    structure yields each query's search window -- RMI routing and leaf
    prediction widened by its error bounds; PGM descent, FITing-Tree
    segment routing or RadixSpline knot interpolation over a
    :class:`~repro.kernels.packed_pla.PackedPLA`; the sparse B+-tree
    directory or Hist-Tree bin descent over a
    :class:`~repro.kernels.packed_tree.PackedTree` -- and a bounded
    search completes it (the paper's Section 8.1).  A lookup is a serve
    with no ranges, a range query a serve with no points.  Every serve
    refuses unequal range lengths and a high below its low with
    ``ValueError`` (:func:`check_ranges`).
``rmi_predict`` / ``rmi_lookup``
    Two RMI stages kept apart: Equation-3 routing + Equation-4 leaf
    prediction, and the RMI serve with no ranges (``RMI.lookup_batch``),
    which traces time apart from ``rmi_serve``.
``rmi_build_leaves_steps``
    Optional RMI build kernel (``build_kernels``): the segment, leaves
    and bounds steps of the two-layer grouped LR build fused into one
    pass, in place of the staged NumPy steps of ``RMI._build``, which
    stay the reference.

**Steps.**  The snapshot and the build kernel are step generators
(``*_steps``): each ``next()`` runs one bounded step, at most
:attr:`KernelBackend.step_keys` key visits, and yields the number of
visits it made; the generator returns the result.  A served index
rebuilds through them on the event-loop thread, one step at a time
(:meth:`~repro.serve.server.IndexServer.rebuild`); :func:`run_steps`
runs them back to back.

:meth:`KernelBackend.serve` dispatches a packed structure of any family
to its serve via its ``packed_kind`` tag, and :meth:`KernelBackend.lookup`
is that serve with no ranges, so the baselines' batch lookup is one
generic call site (``OrderedIndex.lookup_batch`` / ``serve_batch``).

Contract: every backend returns **bit-identical positions** to the
NumPy reference on the same inputs -- the conformance suite
(`tests/test_conformance.py`, `tests/test_kernels.py`) pins this per
backend.  Inputs follow the repo-wide conventions: ``keys``/``queries``
are ``uint64``, windows are inclusive ``int64`` bounds already clamped
to ``[0, n-1]``, results are ``int64`` lower-bound positions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BAD_OPS",
    "BUCKET_SHIFT",
    "KernelBackend",
    "NO_QUERIES",
    "PACKED_DISPATCH",
    "bucket_table",
    "check_compact",
    "check_delta",
    "check_merge",
    "check_ranges",
    "check_windows",
    "run_steps",
    "serve_by_lookup",
    "table_size",
    "write_ops",
]

#: ``packed_kind`` tag -> serve method name.
PACKED_DISPATCH = {"rmi": "rmi_serve", "pla": "pla_serve",
                   "tree": "tree_serve"}

#: The missing side of a serve: no points, or no range bounds.
NO_QUERIES = np.empty(0, dtype=np.uint64)
_NO_RANKS = np.empty(0, dtype=np.int64)

#: The delta's bucket table counts delta keys per ``2**BUCKET_SHIFT``
#: base positions (the C source's ``BUCKET_SHIFT``): one or two delta
#: keys per bucket at a 2-3% delta, so a dirty read searches a window
#: of a few keys.  A constant, not a knob: at a 55k delta over 2M keys
#: the read kernel costs 15% more at 256 positions per bucket and 10%
#: less at 16, whose table, copied by every write batch, is 4x larger.
BUCKET_SHIFT = 6


def table_size(n: int) -> int:
    """Entries in the bucket table over a base of ``n`` keys: one per
    bucket of base positions ``0..n``, plus the end of the last."""
    return (n >> BUCKET_SHIFT) + 2


def bucket_table(lower: np.ndarray, size: int) -> np.ndarray:
    """A ``size``-entry bucket table counted from scratch: entry ``b``
    is how many of the sorted base lower bounds ``lower`` lie below
    ``b << BUCKET_SHIFT``."""
    return np.searchsorted(np.asarray(lower, dtype=np.int64),
                           np.arange(size, dtype=np.int64) << BUCKET_SHIFT)


def check_windows(queries, lo, hi) -> None:
    """``lower_bound_window``'s argument check, shared by every
    backend: one ``lo`` and one ``hi`` per query."""
    if len(lo) != len(queries) or len(hi) != len(queries):
        raise ValueError("lower_bound_window needs one lo and one hi "
                         "per query")


def check_ranges(lows: np.ndarray, highs: np.ndarray) -> None:
    """The serve's range check on ``uint64`` bounds: one high per low,
    and no high below its low.  The C serves check the order in their
    own pass."""
    if len(lows) != len(highs):
        raise ValueError("serve needs one high per range low")
    if len(lows) and (highs < lows).any():
        raise ValueError("serve needs low <= high in every range")


def serve_by_lookup(lookup, points, lows, highs):
    """A serve made of one batch lookup, for the paths that reach no
    fused kernel: ``lookup`` ranks the points and both range bounds in
    one call, after :func:`check_ranges`.  Returns ``(positions,
    starts, counts)``."""
    points = np.asarray(points, dtype=np.uint64)
    lows = np.asarray(lows, dtype=np.uint64)
    highs = np.asarray(highs, dtype=np.uint64)
    check_ranges(lows, highs)
    if not len(lows):
        return lookup(points), _NO_RANKS, _NO_RANKS
    m, r = len(points), len(lows)
    ranks = lookup(np.concatenate([points, lows, highs]))
    starts = ranks[m:m + r]
    return ranks[:m], starts, ranks[m + r:] - starts


def check_delta(delta_keys, corr, base_positions, queries, table) -> None:
    """``delta_correct``'s argument check, shared by every backend:
    ``len(delta_keys) + 1`` corrections, one base position per query
    and a bucket table of at least two entries."""
    if len(corr) != len(delta_keys) + 1:
        raise ValueError("delta_correct needs len(delta_keys) + 1 "
                         "corrections")
    if len(base_positions) != len(queries):
        raise ValueError("delta_correct needs one base position per query")
    if len(table) < 2:
        raise ValueError("delta_correct needs a bucket table of at least "
                         "two entries")


#: ``merge_delta``'s refusal of an op other than 0 or 1.
BAD_OPS = "ops must be OP_INSERT (1) or OP_TOMBSTONE (0)"


def write_ops(ops) -> np.ndarray:
    """A write batch's ops as C-contiguous ``int8``; ``ValueError``
    (:data:`BAD_OPS`) when the cast would change a value, so an op such
    as 256 cannot pass as a tombstone.  Whether each op is 0 or 1 is the
    backend's check."""
    ops = np.asarray(ops)
    cast = np.ascontiguousarray(ops, dtype=np.int8)
    if cast is not ops and (cast != ops).any():
        raise ValueError(BAD_OPS)
    return cast


def check_merge(delta, batch) -> None:
    """``merge_delta``'s length check, shared by every backend: one op,
    seq and born stamp per delta key, ``len(keys) + 1`` corrections and
    a bucket table of at least two entries; one op and one base lower
    bound per batch key."""
    keys, ops, lower = batch
    if any(len(a) != len(delta[0]) for a in delta[1:4]) or \
            len(delta[4]) != len(delta[0]) + 1 or len(delta[5]) < 2 or \
            len(ops) != len(keys) or len(lower) != len(keys):
        raise ValueError("merge_delta needs one op, seq and born stamp "
                         "per delta key, len(keys) + 1 delta corrections, "
                         "a bucket table of at least two entries, and one "
                         "op and base lower bound per batch key")


def check_compact(delta, snapshot) -> None:
    """``compact_delta``'s argument check, shared by every backend: one
    op, seq and born stamp per delta key, ``len(keys) + 1``
    corrections, and one op per snapshot key."""
    if any(len(a) != len(delta[0]) for a in delta[1:4]) or \
            len(delta[4]) != len(delta[0]) + 1 or \
            len(snapshot[1]) != len(snapshot[0]):
        raise ValueError("compact_delta needs one op, seq and born stamp "
                         "per delta key, len(keys) + 1 corrections and one "
                         "op per snapshot key")


def run_steps(steps):
    """Run a step generator to the end; returns what it returns."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


class KernelBackend:
    """One implementation of the hot lookup kernels."""

    #: Registry name (``"numpy"``, ``"cext"``).
    name: str = "?"
    #: True when the kernels run as machine code.  ``RMI`` only diverts
    #: to ``rmi_*`` for compiled backends: its own staged batch path is
    #: faster than the NumPy replay.  The packable baselines call every
    #: backend, NumPy included.
    compiled: bool = False
    #: The work bound of one step of a ``*_steps`` generator, in key
    #: visits: the snapshot merge visits each key once, the RMI build
    #: pass four times (route, two fit sums, bounds).  About 1 ms of C
    #: on one core.  The build's bound holds from 171 visits up: a step
    #: fits at least one 128-term block of a leaf's pairwise sums.
    step_keys: int = 1 << 19

    def lower_bound_window(
        self,
        keys: np.ndarray,
        queries: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> np.ndarray:
        """Batch lower bound inside inclusive ``[lo, hi]`` windows.

        Equals ``np.searchsorted(keys, queries, side="left")`` for any
        windows inside the array; over empty ``keys`` every answer is 0.
        Raises ``ValueError`` unless there is one ``lo`` and one ``hi``
        per query (:func:`check_windows`).
        """
        raise NotImplementedError

    def delta_correct(
        self,
        delta_keys: np.ndarray,
        corr: np.ndarray,
        base_positions: np.ndarray,
        queries: np.ndarray,
        table: np.ndarray,
    ) -> np.ndarray:
        """Merged-lookup completion for the writable tier's dirty reads.

        ``out[i] = base_positions[i] + corr[rank]`` where ``rank`` is
        the lower bound of ``queries[i]`` in the sorted, per-key-unique
        ``delta_keys`` (``corr`` has ``len(delta_keys) + 1`` entries),
        searched only between ``table[b]`` and ``table[b + 1]`` for the
        bucket ``b = base_positions[i] >> BUCKET_SHIFT``.  ``table[b]``
        counts the delta keys whose base lower bound is below ``b <<
        BUCKET_SHIFT`` (:func:`table_size` entries): a delta key whose
        base lower bound lies below the query's bucket is below the
        query, and one past the bucket is above it, so the window is
        exact for any base multiset when ``base_positions`` are the
        base's lower bounds of ``queries``.  The bucket is clamped into
        the table and the window into the delta, so no input reads
        outside either.

        This staged form (a lower bound over the whole delta clipped to
        the window, which equals the windowed search) is the reference
        every backend must match bit-for-bit; the C backend overrides
        it with a fused single-pass kernel.  Raises ``ValueError`` on a
        length mismatch or a table of fewer than two entries
        (:func:`check_delta`).
        """
        check_delta(delta_keys, corr, base_positions, queries, table)
        delta_keys = np.ascontiguousarray(delta_keys, dtype=np.uint64)
        base_positions = np.asarray(base_positions, dtype=np.int64)
        table = np.asarray(table, dtype=np.int64)
        bucket = np.clip(base_positions >> BUCKET_SHIFT, 0, len(table) - 2)
        lo = np.clip(table[bucket], 0, len(delta_keys))
        hi = np.clip(table[bucket + 1], lo, len(delta_keys))
        idx = np.clip(np.searchsorted(
            delta_keys, np.ascontiguousarray(queries, dtype=np.uint64),
            side="left"), lo, hi)
        return base_positions + np.asarray(corr, dtype=np.int64)[idx]

    def merge_delta(self, delta, batch, seq_start: int, now: float,
                    base_keys):
        """The writable tier's write: one raw write batch merged into
        ``delta``.

        ``delta`` is ``(keys, ops, seqs, born, corr, table)``: the
        sorted, per-key-unique ``uint64`` keys, their ``int8`` ops (1
        insert, 0 tombstone), ``int64`` sequence numbers and
        ``float64`` born stamps, the ``int64`` correction -- ``corr[i]``
        is the number of insert entries minus the base multiplicities
        of the first ``i`` keys (``len(keys) + 1`` entries) -- and the
        ``int64`` bucket table of :meth:`delta_correct`.  ``batch`` is
        ``(keys, ops, lower)`` in stream order, in any key order and
        with repeats: the ``i``-th write has sequence number
        ``seq_start + i`` and born stamp ``now``, and ``lower[i]`` is
        its key's lower bound in ``base_keys``, the base's sorted keys.

        Within the batch the last write per key wins, with its own
        sequence number.  A kept key's base multiplicity is the length
        of its run of copies in ``base_keys`` from its lower bound,
        clamped into ``[0, len(base_keys)]``:
        ``max(searchsorted(base_keys, k, "right"), lower) - lower``,
        exact when ``lower`` is the key's lower bound, and read only
        inside ``base_keys`` whatever it is.  A kept write replaces the
        delta entry of its key and keeps the older born stamp; a new key
        adds one to every bucket past its clamped lower bound's.
        Returns the merged ``(keys, ops, seqs, born, corr, table)``.
        Raises ``ValueError`` on a length mismatch (:func:`check_merge`)
        or an op other than 0 or 1 (:func:`write_ops`), before writing
        anything.
        """
        raise NotImplementedError

    def compact_delta(self, delta, snapshot, watermark: int, base_keys):
        """The writable tier's publication: the entries of ``delta`` --
        ``(keys, ops, seqs, born, corr)`` as in :meth:`merge_delta` --
        with a sequence number above ``watermark``, and their correction
        and bucket table against the base rebuilt over a rebuild's
        snapshot, whose delta was ``snapshot`` (``(keys, ops)``,
        sorted), and whose sorted keys are ``base_keys``.  A key the
        snapshot holds has the multiplicity the snapshot's op gave it
        (1 for an insert, else 0); any other keeps its old base
        multiplicity.  The table comes from merging every
        ``2**BUCKET_SHIFT``-th key of ``base_keys`` with the kept keys,
        without searching the new base.  Returns the kept ``(keys, ops,
        seqs, born, corr, table)``.  Raises ``ValueError`` on a length
        mismatch (:func:`check_compact`).
        """
        raise NotImplementedError

    def merge_live_steps(self, base_keys, delta_keys, delta_ops, size):
        """The writable tier's live key array (``uint64``, sorted), as a
        step generator.

        ``base_keys`` is the sorted base multiset; ``delta_keys`` the
        sorted, per-key-unique delta buffer with one op per key
        (``delta_ops``: 1 insert, 0 tombstone).  Every base copy of a
        delta key is dropped, and each insert key appears once.
        ``size`` is the length of the result, which the caller counts
        from prefix sums it already holds.
        """
        raise NotImplementedError

    def rmi_predict(
        self, packed, queries: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Fused routing + leaf prediction: ``(model_ids, positions)``."""
        raise NotImplementedError

    def rmi_lookup(
        self, packed, keys: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """The RMI serve with no ranges, run directly (not through
        :meth:`rmi_serve`): the positions of ``queries``."""
        raise NotImplementedError

    def rmi_serve(self, packed, keys, point_queries, range_lows,
                  range_highs):
        """The serve over a :class:`~repro.kernels.packed.PackedRMI`
        (see :meth:`serve`)."""
        raise NotImplementedError

    def pla_serve(self, packed, keys, point_queries, range_lows,
                  range_highs):
        """The serve over a
        :class:`~repro.kernels.packed_pla.PackedPLA`."""
        raise NotImplementedError

    def tree_serve(self, packed, keys, point_queries, range_lows,
                   range_highs):
        """The serve over a
        :class:`~repro.kernels.packed_tree.PackedTree`."""
        raise NotImplementedError

    # -- RMI build kernel ------------------------------------------------
    #
    # The staged NumPy steps of ``RMI._build`` are the reference build.
    # A backend with ``build_kernels`` replaces three of them for the
    # two-layer grouped LR build (see ``RMI._build_kernels``) and must
    # reproduce them bit for bit.  Only the C backend has it.

    #: True when the backend implements :meth:`rmi_build_leaves_steps`.
    build_kernels: bool = False

    def rmi_build_leaves_steps(self, keys, root, fanout):
        """The segment, leaves and bounds steps in one pass, as a step
        generator.

        Routes ``keys`` through the one-model ``root`` layer (trained on
        model indexes) into ``fanout`` leaves; fits each leaf like
        ``LinearRegression.fit_grouped`` with each key's index as its
        target; and takes each leaf's minimum and maximum signed error
        of the clamped integral linear prediction (``(0, 0)`` for an
        empty leaf).  Returns ``(counts, codes, params, lo, hi)``: keys
        per leaf, the leaf layer's SoA table, and the extremes.  ``None``
        when the root is not one the kernel evaluates, or when the
        routing decreases somewhere; the caller then runs the staged
        steps.  Raises ``ValueError`` when ``keys`` decrease somewhere:
        the pass checks their order too.

        Each step makes at most ``step_keys`` key visits: it routes the
        next ``step_keys // 4`` keys, then spends the rest of the budget
        fitting and bounding the leaves whose keys are all routed, three
        visits per key.  A leaf's fit resumes across steps, so a leaf
        larger than a step costs more steps, not a longer one.
        """
        raise NotImplementedError

    # -- generic dispatch ------------------------------------------------

    def lookup(self, packed, keys: np.ndarray,
               queries: np.ndarray) -> np.ndarray:
        """The positions of ``queries``: :meth:`serve` with no ranges."""
        return self.serve(packed, keys, queries, NO_QUERIES, NO_QUERIES)[0]

    def serve(
        self,
        packed,
        keys: np.ndarray,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The fused serve of any packed family (``packed_kind``
        dispatch): ``(positions, range_starts, range_counts)`` -- the
        lower bound of each point, and of each range's ``[low, high)``
        its first position and key count.  Raises ``ValueError`` for
        unequal range lengths or a high below its low."""
        return getattr(self, PACKED_DISPATCH[packed.packed_kind])(
            packed, keys, point_queries, range_lows, range_highs
        )

    def warmup(self) -> None:
        """Force compilation/loading now, off the serving hot path.

        Idempotent and cheap when already warm.  ``IndexServer`` calls
        this at start and after a hot swap so loading a kernel library
        never lands inside a live request's deadline.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "compiled" if self.compiled else "interpreted"
        return f"<KernelBackend {self.name} ({kind})>"
