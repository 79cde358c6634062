"""Abstract interface every kernel backend implements.

A backend provides the hot kernels of the lookup path over flat arrays
(see :mod:`repro.kernels.packed`, :mod:`repro.kernels.packed_pla`,
:mod:`repro.kernels.packed_tree`):

``lower_bound_window``
    Window-restricted batch lower bound with interval-escape repair --
    the shared completion step of *every* index's batch lookup
    (``core/search.batch_lower_bound_window`` dispatches here).
``delta_correct``
    The writable tier's merged-lookup completion: full-range lower
    bound over the sorted delta buffer plus a per-rank position
    correction gather, fused into one pass
    (``repro.writable.index._View.lookup`` dispatches here).
``merge_live``
    The writable tier's snapshot: the base keys merged with the delta
    buffer into the sorted live key array a rebuild builds over
    (``repro.writable.index._View.live_keys`` dispatches here).
``rmi_predict`` / ``rmi_lookup`` / ``rmi_serve``
    The RMI-specific fused paths: Equation-3 routing + Equation-4 leaf
    prediction, the full predict→bounds→bounded-search lookup, and the
    serving-layer point+range unit chaining three lookups in one call.
``pla_lookup`` / ``pla_serve``
    The same fused shapes over a :class:`~repro.kernels.packed_pla.PackedPLA`
    (PGM descent, FITing-Tree segment routing, RadixSpline knot
    interpolation).
``tree_lookup`` / ``tree_serve``
    Fused descent over a :class:`~repro.kernels.packed_tree.PackedTree`
    (sparse B+-tree directory, Hist-Tree bin descent).
``rmi_route_counts`` / ``rmi_fit_leaves`` / ``rmi_leaf_extremes``
    Optional RMI build kernels (``build_kernels``): the segment, leaves
    and bounds steps of the two-layer grouped LR build, in place of the
    staged NumPy steps of ``RMI._build``, which stay the reference.

:meth:`KernelBackend.lookup` / :meth:`KernelBackend.serve` dispatch a
packed structure of any family to the right kernel via its
``packed_kind`` tag, so the baselines' batch lookup is one generic
call site (``OrderedIndex.lookup_batch`` / ``serve_batch``).

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
    "KernelBackend",
    "PACKED_DISPATCH",
    "check_delta",
    "check_windows",
]

#: ``packed_kind`` tag -> (lookup method, serve method) names.
PACKED_DISPATCH = {
    "rmi": ("rmi_lookup", "rmi_serve"),
    "pla": ("pla_lookup", "pla_serve"),
    "tree": ("tree_lookup", "tree_serve"),
}


def check_windows(queries, lo, hi) -> None:
    """``lower_bound_window``'s argument check, shared by every
    backend: one ``lo`` and one ``hi`` per query."""
    if len(lo) != len(queries) or len(hi) != len(queries):
        raise ValueError("lower_bound_window needs one lo and one hi "
                         "per query")


def check_delta(delta_keys, corr, base_positions, queries) -> None:
    """``delta_correct``'s argument check, shared by every backend:
    ``len(delta_keys) + 1`` corrections and one base position per
    query."""
    if len(corr) != len(delta_keys) + 1:
        raise ValueError("delta_correct needs len(delta_keys) + 1 "
                         "corrections")
    if len(base_positions) != len(queries):
        raise ValueError("delta_correct needs one base position per query")


class KernelBackend:
    """One implementation of the hot lookup kernels."""

    #: Registry name (``"numpy"``, ``"cext"``).
    name: str = "?"
    #: True when the kernels run as machine code.  ``RMI`` only diverts
    #: to ``rmi_*`` for compiled backends: its own staged batch path is
    #: faster than the NumPy replay.  The packable baselines call every
    #: backend, NumPy included.
    compiled: bool = False

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
    ) -> np.ndarray:
        """Merged-lookup completion for the writable tier's dirty reads.

        ``out[i] = base_positions[i] + corr[rank]`` where ``rank`` is
        the full-range lower bound of ``queries[i]`` in the sorted,
        per-key-unique ``delta_keys`` (``corr`` has ``len(delta_keys)
        + 1`` entries).  This staged form is the reference every
        backend must match bit-for-bit; the C backend overrides it
        with a fused single-pass kernel
        (:meth:`CExtBackend.delta_correct`).  Raises ``ValueError`` on
        a length mismatch (:func:`check_delta`).
        """
        check_delta(delta_keys, corr, base_positions, queries)
        idx = np.searchsorted(
            np.ascontiguousarray(delta_keys, dtype=np.uint64),
            np.ascontiguousarray(queries, dtype=np.uint64),
            side="left",
        )
        return np.asarray(base_positions, dtype=np.int64) + \
            np.asarray(corr, dtype=np.int64)[idx]

    def merge_live(
        self,
        base_keys: np.ndarray,
        delta_keys: np.ndarray,
        delta_ops: np.ndarray,
        size: int,
    ) -> np.ndarray:
        """The writable tier's live key array (``uint64``, sorted).

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
        """Full fused lookup: route→predict→bounds→bounded search."""
        raise NotImplementedError

    def rmi_serve(
        self,
        packed,
        keys: np.ndarray,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Fused serving unit: ``(positions, range_starts, range_counts)``."""
        raise NotImplementedError

    def pla_lookup(
        self, packed, keys: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """Fused PLA lookup: route→evaluate→window→bounded search."""
        raise NotImplementedError

    def pla_serve(
        self,
        packed,
        keys: np.ndarray,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Fused PLA serving unit: ``(positions, starts, counts)``."""
        raise NotImplementedError

    def tree_lookup(
        self, packed, keys: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """Fused tree lookup: descend→window→bounded search."""
        raise NotImplementedError

    def tree_serve(
        self,
        packed,
        keys: np.ndarray,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Fused tree serving unit: ``(positions, starts, counts)``."""
        raise NotImplementedError

    # -- RMI build kernels -----------------------------------------------
    #
    # The staged NumPy steps of ``RMI._build`` are the reference build.
    # A backend with ``build_kernels`` replaces three of them for the
    # two-layer grouped LR build (see ``RMI._build_kernels``) and must
    # reproduce them bit for bit.  Only the C backend has them.

    #: True when the backend implements the three build kernels below.
    build_kernels: bool = False

    def rmi_route_counts(
        self, keys: np.ndarray, root, fanout: int
    ) -> "np.ndarray | None":
        """Segment step: per-leaf key counts of routing ``keys`` through
        the one-model ``root`` layer (trained on model indexes).

        ``None`` when the root is not one the kernel evaluates, or when
        the routing decreases somewhere; the caller then runs the staged
        step.
        """
        raise NotImplementedError

    def rmi_fit_leaves(
        self, keys: np.ndarray, offsets: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Leaves step: ``LinearRegression.fit_grouped(keys, positions,
        offsets)`` with each key's index as its target."""
        raise NotImplementedError

    def rmi_leaf_extremes(
        self,
        keys: np.ndarray,
        slopes: np.ndarray,
        intercepts: np.ndarray,
        offsets: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Bounds step: per-segment minimum and maximum signed error of
        the clamped integral linear prediction, ``(0, 0)`` for an empty
        segment."""
        raise NotImplementedError

    # -- generic dispatch ------------------------------------------------

    def lookup(self, packed, keys: np.ndarray,
               queries: np.ndarray) -> np.ndarray:
        """Fused lookup for any packed family (``packed_kind`` dispatch)."""
        method = PACKED_DISPATCH[packed.packed_kind][0]
        return getattr(self, method)(packed, keys, queries)

    def serve(
        self,
        packed,
        keys: np.ndarray,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Fused serving unit for any packed family."""
        method = PACKED_DISPATCH[packed.packed_kind][1]
        return getattr(self, method)(
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
