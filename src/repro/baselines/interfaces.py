"""Common interface of all evaluated indexes (Table 5 of the paper).

Every index -- learned or traditional -- answers *lower-bound queries*
over a sorted in-memory array (Section 4.4): given a key, return the
position of the smallest element greater than or equal to it.

Two-phase contract, matching the paper's Figure 13 decomposition of a
lookup into *evaluation* (model evaluation or tree traversal) and
*search* (error correction / scanning a data page):

* :meth:`OrderedIndex.search_bounds` performs the evaluation phase and
  returns a :class:`SearchBounds`: the interval of the sorted array the
  key must be in, plus a position hint where available.
* :meth:`OrderedIndex.lower_bound` completes the lookup with binary
  search inside those bounds (the paper: "During a lookup, each index
  yields a search range ... We use binary search to find keys in that
  search range", Section 8.1).

Implementations additionally report their memory footprint
(:meth:`size_in_bytes`) excluding the data array itself, and structural
statistics for reports.

Batch execution
---------------
Serving-scale traffic arrives in batches, and fair wall-clock
comparisons (SOSD; Marcus et al., "Benchmarking Learned Indexes",
VLDB 2020) require every competitor to run through the same batched
execution path.  :meth:`OrderedIndex.lookup_batch` is that path: a
vectorized lower-bound lookup over a whole query array.  An index that
flattens into a packed form (:meth:`OrderedIndex.pack`) is answered by
the active kernel backend on that form -- NumPy or compiled, one spec
per family in :mod:`repro.kernels`.  The indexes that do not pack
(ART, ALEX, FAST, ...) override :meth:`lookup_batch` themselves; the
base class otherwise falls back to one :meth:`lower_bound` per query,
so third-party subclasses only implementing the scalar contract still
work everywhere the runner and benchmarks drive the batch path.
:meth:`serve_batch` answers points and ranges in one call -- the
packed form's fused serve, or one :meth:`lookup_batch` -- and checks
the ranges; :meth:`range_query_batch` is its serve with no points.

Snapshots
---------
Building an index is pure CPU work over an immutable key array, so a
built structure is a cacheable artifact (SOSD and *Benchmarking Learned
Indexes* both persist built indexes between runs).
:meth:`OrderedIndex.snapshot_state` captures the built structure --
everything except the key array itself -- as a dict of NumPy arrays,
and :meth:`OrderedIndex.restore_state` reattaches it to the keys
without rebuilding.  The default implementation serializes the
instance ``__dict__`` into a single byte array, which every in-repo
baseline supports; subclasses with derived, non-serializable state
override :meth:`_after_restore` (e.g. ALEX's identity-keyed leaf
ranks), and :class:`~repro.baselines.rmi_adapter.RMIAsIndex` overrides
the pair entirely to reuse the RMI's own hooks
(:meth:`repro.core.rmi.RMI.snapshot_state`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

import numpy as np

from .. import kernels
from ..core.search import binary_search
from ..kernels.base import NO_QUERIES, serve_by_lookup

__all__ = ["SearchBounds", "OrderedIndex", "UnsupportedDataError"]


class UnsupportedDataError(ValueError):
    """Raised when an index cannot represent a dataset.

    Mirrors the paper's observation that "both Hist-Tree and ART did
    not work on wiki" (Section 8.1): tries keyed by value cannot hold
    duplicate keys while answering positional lower-bound queries.
    """


@dataclass(frozen=True)
class SearchBounds:
    """Result of an index's evaluation phase.

    ``lo``/``hi`` delimit the inclusive candidate interval in the
    sorted array; ``hint`` is the index's position estimate inside the
    interval (equal to ``lo`` when the index has no notion of an
    estimate).  ``evaluation_steps`` counts the structural steps taken
    (model evaluations or nodes visited), feeding Figure 13.
    """

    lo: int
    hi: int
    hint: int
    evaluation_steps: int = 1

    @property
    def width(self) -> int:
        return max(self.hi - self.lo + 1, 0)


class OrderedIndex:
    """Abstract base class of all baseline indexes."""

    #: Short name used in figures/tables, e.g. ``"b-tree"``.
    name: str = "?"

    def __init__(self, keys: np.ndarray) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            raise ValueError(f"cannot build {type(self).__name__} on no keys")
        if np.any(keys[1:] < keys[:-1]):
            raise ValueError("keys must be sorted in non-decreasing order")
        self.keys = keys
        self.n = len(keys)

    # -- evaluation phase ------------------------------------------------

    def search_bounds(self, key: int) -> SearchBounds:
        """Narrow the candidate interval for ``key`` (evaluation phase)."""
        raise NotImplementedError

    # -- full lookup -----------------------------------------------------

    def lower_bound(self, key: int) -> int:
        """Position of the smallest indexed key ``>= key``.

        Completes :meth:`search_bounds` with binary search, then repairs
        the rare interval-escape cases (absent keys, duplicate runs) so
        the result always equals ``np.searchsorted(keys, key, "left")``.
        """
        b = self.search_bounds(int(key))
        lo = max(b.lo, 0)
        hi = min(b.hi, self.n - 1)
        result = binary_search(self.keys, key, lo, hi)
        pos = result.position
        if pos == lo and lo > 0 and self.keys[lo - 1] >= key:
            pos = binary_search(self.keys, key, 0, lo - 1).position
        elif pos == hi + 1 and hi + 1 < self.n:
            pos = binary_search(self.keys, key, hi + 1, self.n - 1).position
        return pos

    def range_query(self, low: int, high: int) -> tuple[int, int]:
        """Keys in ``[low, high)`` as ``(start position, count)``.

        The database operation indexes exist for: a lower-bound lookup
        for each boundary, the scan between them coming from the data
        array itself.
        """
        if high < low:
            raise ValueError("range_query requires low <= high")
        start = self.lower_bound(low)
        end = self.lower_bound(high)
        return start, end - start

    # -- batch execution -------------------------------------------------

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lower_bound` over a query array.

        Returns an ``int64`` position per query, identical to calling
        :meth:`lower_bound` on each -- the conformance suite asserts
        batch/scalar agreement for every index.  An index that packs
        is answered by the active kernel backend's ``lookup`` on its
        packed form; otherwise this is the correct scalar fallback.
        """
        state = self._kernel_state()
        if state is not None:
            backend, packed = state
            return backend.lookup(packed, self.keys, queries)
        return np.fromiter(
            (self.lower_bound(int(q)) for q in np.asarray(queries)),
            dtype=np.int64,
            count=len(queries),
        )

    def lower_bound_batch(self, queries: np.ndarray) -> np.ndarray:
        """Alias of :meth:`lookup_batch` (the historical name)."""
        return self.lookup_batch(queries)

    def range_query_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`range_query`: ``(start positions, counts)``.

        The :meth:`serve_batch` of no points: one batched lower bound
        per boundary, amortized across queries, and the same range
        check.
        """
        return self.serve_batch(NO_QUERIES, lows, highs)[1:]

    # -- kernel backends -------------------------------------------------

    def pack(self):
        """Flatten the built structure for the kernel backends.

        Returns a packed structure (``PackedPLA``/``PackedTree``/...,
        anything carrying a ``packed_kind`` dispatch tag) or ``None``
        when this index has no kernel-compatible flat form -- the
        index's own (or the scalar fallback) batch path then runs (the
        same soft contract as ``pack_rmi``).  The base class packs
        nothing.
        """
        return None

    def _packed(self):
        """Cached :meth:`pack` result (``None`` cached too).

        The cache lives in the instance ``__dict__`` under
        ``_packed_cache`` and is excluded from snapshots; mutating
        subclasses must invalidate it themselves (none of the packable
        in-repo baselines mutate after build).
        """
        if "_packed_cache" not in self.__dict__:
            self.__dict__["_packed_cache"] = self.pack()
        return self.__dict__["_packed_cache"]

    def _kernel_state(self):
        """The ``(backend, packed)`` pair of the batch path; ``None``
        when this index does not pack."""
        packed = self._packed()
        if packed is None:
            return None
        return kernels.get_backend(), packed

    def serve_batch(
        self,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """One serving-layer execution unit: point + range queries.

        The async server (:mod:`repro.serve`) coalesces concurrent
        requests into a single call of this method per micro-batch, so
        an index pays one dispatch for the whole batch.  Returns
        ``(positions, range_starts, range_counts)``; either query array
        may be empty.  Raises ``ValueError`` unless there is one high
        per range low, none below it.  When the index packs
        (:meth:`_kernel_state`), the active backend's ``serve`` answers
        all three lower-bound passes in one call; otherwise one
        :meth:`lookup_batch` ranks points and bounds together.
        """
        state = self._kernel_state()
        if state is not None:
            backend, packed = state
            return backend.serve(packed, self.keys, point_queries,
                                 range_lows, range_highs)
        return serve_by_lookup(self.lookup_batch, point_queries,
                               range_lows, range_highs)

    def warm_kernels(self) -> None:
        """Load the batch-path kernels off the serving hot path.

        ``IndexServer`` calls this at start and after every hot swap.
        The default warms the active backend and runs a one-element
        ``serve_batch`` probe through this index's own batch path --
        which also builds and caches this index's packed representation
        (:meth:`pack` via :meth:`_packed`), so the first real request
        never pays the packing cost.  Idempotent and cheap when warm.
        """
        kernels.get_backend().warmup()
        probe = self.keys[:1]
        self.serve_batch(probe, probe, probe)

    # -- snapshots -------------------------------------------------------

    def snapshot_state(self) -> "dict[str, np.ndarray]":
        """The built structure as a dict of arrays (keys excluded).

        The payload must round-trip through ``np.savez`` /
        ``np.load(allow_pickle=False)``; the default serializes the
        instance ``__dict__`` (minus ``keys``/``n``, which the restore
        side re-derives from the key array) into one ``uint8`` blob.
        Raises ``TypeError`` when some attribute cannot be serialized
        -- such indexes are simply rebuilt instead of cached.
        """
        state = {k: v for k, v in self.__dict__.items()
                 if k not in ("keys", "n", "_packed_cache")}
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        return {"pickled_state": np.frombuffer(blob, dtype=np.uint8)}

    @classmethod
    def restore_state(
        cls, keys: np.ndarray, state: "dict[str, np.ndarray]"
    ) -> "OrderedIndex":
        """Reattach a :meth:`snapshot_state` payload to ``keys``.

        Skips the subclass constructor (and therefore the build) but
        runs the base-class key validation, then :meth:`_after_restore`
        for state that cannot cross a serialization boundary.
        """
        obj = cls.__new__(cls)
        OrderedIndex.__init__(obj, keys)
        blob = np.asarray(state["pickled_state"], dtype=np.uint8)
        restored = pickle.loads(blob.tobytes())
        # Packed kernels cache is derived state; re-pack lazily against
        # the restored structure instead of trusting a stale snapshot.
        restored.pop("_packed_cache", None)
        obj.__dict__.update(restored)
        obj._after_restore()
        return obj

    def _after_restore(self) -> None:
        """Hook: rebuild derived state after :meth:`restore_state`."""

    # -- accounting ------------------------------------------------------

    def size_in_bytes(self) -> int:
        """Index memory footprint, excluding the sorted data array."""
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """Structural statistics (heights, node/segment counts, ...)."""
        return {"name": self.name, "n": self.n, "bytes": self.size_in_bytes()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} over {self.n} keys, {self.size_in_bytes()} B>"
