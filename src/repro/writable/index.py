"""``WritableIndex``: a read-write front over any ``OrderedIndex``.

The repo's indexes (Table 5 of the paper, plus the RMI itself) are
static structures over an immutable sorted array.  This wrapper makes
any of them writable without touching their build or lookup code: an
immutable *base* index plus a sorted delta buffer
(:class:`~repro.writable.delta.DeltaState`), merged newest-wins at
query time, with a rebuild protocol that folds the delta into a fresh
base and atomically swaps it in under live traffic.

**Semantics** (set-like upsert, rebuild-timing independent):

* ``insert(k)`` -- ``k`` is live with exactly one copy (idempotent),
* ``delete(k)`` -- ``k`` is absent (all base duplicates shadowed),
* lookups answer ``np.searchsorted(live_keys, q, "left")`` where
  ``live_keys`` is the base multiset with every delta key's
  multiplicity overridden (1 for insert, 0 for tombstone).

**Merged lookup arithmetic.**  A lower-bound query never materializes
the live array.  With ``dk`` the delta keys, ``shadowed[i]`` the base
multiplicity of ``dk[i]``, and ``ins`` the delta insert keys::

    pos(q) = base.lookup(q)
           - cumsum(shadowed)[searchsorted(dk, q)]   # shadowed base keys < q
           + searchsorted(ins, q)                    # delta-live keys < q

Three vectorized passes on top of the base index's own batch engine
(which keeps its compiled kernels), independent of delta size.

**Concurrency.**  All queryable state lives in one immutable
:class:`_View` (base + delta + lazily derived adjustment arrays)
published by a single reference assignment -- atomic under CPython.
Readers capture the view once per call and never lock; writers and the
rebuild-finish path serialize on a mutex.  This is the same
capture-at-dispatch discipline :class:`~repro.serve.server.IndexServer`
uses for hot swaps, extended inside the index.

**Rebuild protocol** (:meth:`begin_rebuild` / :meth:`finish_rebuild`):
the rebuild snapshots ``(live keys, watermark)``, builds a new base
off-thread (through the grouped-fit fast path for RMIs and the
artifact cache when active -- see :mod:`repro.writable.rebuild`), and
the finish step compacts the delta down to writes newer than the
watermark and publishes the new view.  Writes racing the rebuild are
never lost, and queries are answered identically before, during, and
after the swap.  Two rebuilds must not overlap (the later snapshot's
compaction would drop the writes between the two), so a served index
rebuilds only through :meth:`~repro.serve.server.IndexServer.rebuild`,
which runs one at a time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..baselines.interfaces import OrderedIndex, SearchBounds
from .delta import OP_INSERT, OP_TOMBSTONE, DeltaState, empty_delta, splice

__all__ = ["WritableIndex", "RebuildTicket"]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


class _View:
    """One immutable (base, delta) snapshot plus derived query state.

    Derived arrays are computed lazily and cached on the view itself;
    a view is only ever mutated by filling these caches (idempotent --
    two racing readers compute the same arrays), never by changing
    ``base`` or ``delta``.
    """

    __slots__ = ("base", "delta", "_shadow_cum", "_corr", "_live")

    def __init__(self, base: Any, delta: DeltaState) -> None:
        self.base = base
        self.delta = delta
        self._shadow_cum: "np.ndarray | None" = None
        self._corr: "np.ndarray | None" = None
        self._live: "np.ndarray | None" = None

    # -- derived adjustment arrays ---------------------------------------

    def shadow_cum(self) -> np.ndarray:
        """Prefix sums of the base multiplicity of each delta key.

        ``shadow_cum()[i]`` is the number of base array entries whose
        key is one of the first ``i`` delta keys -- every such entry is
        shadowed (delta ops override the key's multiplicity entirely).
        """
        cum = self._shadow_cum
        if cum is None:
            base_keys = self.base.keys
            dk = self.delta.keys
            lo = np.searchsorted(base_keys, dk, side="left")
            hi = np.searchsorted(base_keys, dk, side="right")
            cum = np.concatenate([
                np.zeros(1, dtype=np.int64),
                np.cumsum(hi - lo, dtype=np.int64),
            ])
            self._shadow_cum = cum
        return cum

    def inherit_shadow(self, prev: "_View") -> None:
        """Seed the shadow sums from the previous view of the same base.

        A fresh full recomputation searches the whole delta against the
        base -- O(delta x log base) per apply.  The base multiplicity of
        a key depends only on the base, which is unchanged, so the
        previous view's multiplicities are spliced across by position
        (the delta's :attr:`~repro.writable.delta.DeltaState.added`
        slots) and only the keys the batch added hit the base.  Callers
        must guarantee ``prev.base is self.base`` and that this view's
        delta was merged from ``prev``'s.
        """
        added = self.delta.added
        if self._shadow_cum is not None or added is None:
            return
        base_keys = self.base.keys
        new_keys = self.delta.keys[added]
        mult = splice(
            np.diff(prev.shadow_cum()), added,
            np.searchsorted(base_keys, new_keys, side="right")
            - np.searchsorted(base_keys, new_keys, side="left"))
        self._shadow_cum = np.concatenate([
            np.zeros(1, dtype=np.int64),
            np.cumsum(mult, dtype=np.int64),
        ])

    def correction(self) -> np.ndarray:
        """Combined per-rank position correction for merged lookups.

        ``correction()[i]`` is ``insert_cum[i] - shadow_cum[i]``: how
        many positions a query ranking ``i`` delta keys below it shifts
        relative to the bare base answer (delta-live keys push it up,
        shadowed base entries pull it down).  Folding both prefix-sum
        arrays into one ahead of time halves the random gathers on the
        dirty read path -- a cache-miss-bound loop, so that is a real
        ~x1.2 on cold query batches.
        """
        corr = self._corr
        if corr is None:
            corr = self.delta.insert_cum - self.shadow_cum()
            self._corr = corr
        return corr

    def lookup(self, queries: np.ndarray) -> np.ndarray:
        """Merged lower-bound positions for a query batch."""
        queries = np.ascontiguousarray(queries, dtype=np.uint64)
        base_pos = np.asarray(self.base.lookup_batch(queries),
                              dtype=np.int64)
        if not len(self.delta):
            return base_pos
        # One lower bound over the delta keys ranks each query, then a
        # single gather applies the combined correction (the delta is
        # per-key unique, so prefix-of-delta == "< query" exactly).
        # Dispatched through the kernel registry: the compiled fused
        # rank+gather pass is ~2x the staged searchsorted/take/add on
        # cold batches, and this is the dirty read path's hot loop.
        from ..kernels import get_backend

        return get_backend().delta_correct(
            self.delta.keys, self.correction(), base_pos, queries
        )

    def live_count(self) -> int:
        """``len(live_keys())`` without building the live array."""
        return (len(self.base.keys) - int(self.shadow_cum()[-1])
                + int(self.delta.insert_cum[-1]))

    def live_keys(self) -> np.ndarray:
        """The merged live key array (materialized once per view)."""
        live = self._live
        if live is None:
            base_keys = np.asarray(self.base.keys, dtype=np.uint64)
            if not len(self.delta):
                live = base_keys
            else:
                from ..kernels import get_backend

                live = get_backend().merge_live(
                    base_keys, self.delta.keys, self.delta.ops,
                    self.live_count())
            live.setflags(write=False)
            self._live = live
        return live


@dataclass(frozen=True)
class RebuildTicket:
    """A rebuild work order: what to build, and what it will replace.

    ``live_keys`` is the merged array to build the new base over;
    ``watermark`` bounds the delta entries the snapshot already folded
    in (pass it to :meth:`WritableIndex.finish_rebuild` verbatim);
    ``base`` is the current base index, for factory/type decisions.
    """

    live_keys: np.ndarray
    watermark: int
    base: Any


class WritableIndex(OrderedIndex):
    """Delta-buffered read-write wrapper over a static ``OrderedIndex``."""

    name = "writable"

    def __init__(self, base: Any, *,
                 clock: "Callable[[], float]" = time.time) -> None:
        # Deliberately no OrderedIndex.__init__: there is no immutable
        # key array to validate; ``keys``/``n`` are live properties.
        if not len(getattr(base, "keys", ())):
            raise ValueError("WritableIndex needs a non-empty base index")
        self._clock = clock
        self._mutate = threading.Lock()
        self._next_seq = 0
        self._view = _View(base, empty_delta())

    # -- live state ------------------------------------------------------

    @property
    def base(self) -> Any:
        """The current immutable base index (changes on rebuild)."""
        return self._view.base

    @property
    def keys(self) -> np.ndarray:  # type: ignore[override]
        """The merged live key array (materialized lazily per view)."""
        return self._view.live_keys()

    @property
    def n(self) -> int:  # type: ignore[override]
        """Number of live keys, counted without building :attr:`keys`."""
        return self._view.live_count()

    @property
    def delta_len(self) -> int:
        """Number of unmerged delta entries (distinct written keys)."""
        return len(self._view.delta)

    def staleness_s(self, now: "float | None" = None) -> float:
        """Age of the oldest unmerged write, in seconds (0 when clean).

        The staleness-bound metric of the writable tier: an upper bound
        on how long any accepted write has been waiting for a rebuild
        to fold it into a fast base structure (reads always see it
        immediately -- this measures structural, not semantic, lag).
        """
        delta = self._view.delta
        if not len(delta):
            return 0.0
        now = self._clock() if now is None else now
        return max(float(now) - delta.oldest_born, 0.0)

    # -- writes ----------------------------------------------------------

    def apply(self, keys: np.ndarray, ops: np.ndarray) -> int:
        """Apply one ordered write batch; returns the number of writes.

        ``ops`` holds ``OP_INSERT``/``OP_TOMBSTONE`` flags per key;
        within the batch the last op per key wins.  The batch becomes
        visible to subsequent queries atomically (one view publish).
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        ops = np.ascontiguousarray(ops, dtype=np.int8)
        if len(keys) == 0:
            return 0
        with self._mutate:
            seq_start = self._next_seq
            self._next_seq = seq_start + len(keys)
            view = self._view
            delta = view.delta.merged_with(keys, ops, seq_start,
                                           self._clock())
            new_view = _View(view.base, delta)
            new_view.inherit_shadow(view)
            # Warm the merged-lookup arrays on the write path: the
            # first read after a write should pay read costs only.
            new_view.correction()
            self._view = new_view
        return len(keys)

    def insert(self, key: int) -> None:
        """Make ``key`` live with exactly one copy (idempotent)."""
        self.apply(np.array([key], dtype=np.uint64),
                   np.array([OP_INSERT], dtype=np.int8))

    def delete(self, key: int) -> None:
        """Remove every live copy of ``key`` (no-op when absent)."""
        self.apply(np.array([key], dtype=np.uint64),
                   np.array([OP_TOMBSTONE], dtype=np.int8))

    def contains(self, key: int) -> bool:
        """Whether ``key`` is currently live."""
        live = self.keys
        pos = int(np.searchsorted(live, np.uint64(key), side="left"))
        return pos < len(live) and int(live[pos]) == int(key)

    # -- queries (merged) ------------------------------------------------

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        return self._view.lookup(queries)

    def lower_bound(self, key: int) -> int:
        return int(self._view.lookup(
            np.array([key], dtype=np.uint64)
        )[0])

    def search_bounds(self, key: int) -> SearchBounds:
        """Delegate to the base when clean; whole-array bounds when not.

        The scalar two-phase contract is only exact against an
        immutable array; with a live delta the merged answer comes from
        :meth:`lower_bound` directly, so these bounds are the honest
        "anywhere" interval.
        """
        view = self._view
        if not len(view.delta):
            return view.base.search_bounds(key)
        n = view.live_count()
        return SearchBounds(lo=0, hi=n - 1, hint=self.lower_bound(key))

    def range_query_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        lows = np.asarray(lows, dtype=np.uint64)
        highs = np.asarray(highs, dtype=np.uint64)
        if len(lows) != len(highs):
            raise ValueError("range_query_batch needs equal-length bounds")
        if np.any(highs < lows):
            raise ValueError("range_query_batch requires low <= high")
        view = self._view
        starts = view.lookup(lows)
        ends = view.lookup(highs)
        return starts, ends - starts

    def serve_batch(
        self,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """One capture of the view serves the whole micro-batch.

        Clean (empty delta) batches delegate to the base's own
        ``serve_batch`` -- including its fused compiled kernels; dirty
        batches run the merged three-pass arithmetic.  Either way the
        view is captured once, so a concurrent write or rebuild swap
        never splits a batch across two states.
        """
        view = self._view
        if not len(view.delta):
            return view.base.serve_batch(point_queries, range_lows,
                                         range_highs)
        # One fused merged lookup over points + range bounds: the base's
        # batch engine (and its compiled kernels) runs once, not three
        # times, and the delta corrections are one vectorized pass.
        np_, nr = len(point_queries), len(range_lows)
        if not nr:
            return view.lookup(point_queries), _EMPTY_I64, _EMPTY_I64
        fused = view.lookup(np.concatenate([
            np.asarray(point_queries, dtype=np.uint64),
            np.asarray(range_lows, dtype=np.uint64),
            np.asarray(range_highs, dtype=np.uint64),
        ]))
        positions = fused[:np_] if np_ else _EMPTY_I64
        starts = fused[np_:np_ + nr]
        counts = fused[np_ + nr:] - starts
        return positions, starts, counts

    # -- compiled kernels ------------------------------------------------

    def warm_kernels(self) -> None:
        self._view.base.warm_kernels()

    # -- rebuild protocol ------------------------------------------------

    def begin_rebuild(self) -> RebuildTicket:
        """Snapshot the merged state for an off-thread rebuild."""
        view = self._view
        return RebuildTicket(
            live_keys=view.live_keys(),
            watermark=view.delta.watermark,
            base=view.base,
        )

    def finish_rebuild(self, new_base: Any, watermark: int) -> None:
        """Publish a rebuilt base; keep writes newer than the snapshot.

        The swap is one view assignment: queries in flight keep the
        view they captured, later queries see the new base with the
        compacted delta -- zero-loss, same as the server's hot swap.
        """
        with self._mutate:
            delta = self._view.delta.compacted(watermark)
            self._view = _View(new_base, delta)

    def rebuild(self,
                factory: "Callable[[np.ndarray], Any] | None" = None
                ) -> "Any | None":
        """Synchronous merge-sort + rebuild + swap (the inline path).

        Builds the new base with ``factory(live_keys)`` (default: the
        base's own type and configuration, cache-aware -- see
        :class:`~repro.writable.rebuild.IndexFactory`) and swaps it in.
        Returns the new base, or ``None`` when every key is deleted --
        an ``OrderedIndex`` cannot be built over zero keys, so the
        delta keeps serving until an insert arrives.
        """
        from .rebuild import IndexFactory

        ticket = self.begin_rebuild()
        if not len(ticket.live_keys):
            return None
        factory = factory or IndexFactory.of(ticket.base)
        new_base = factory(ticket.live_keys)
        self.finish_rebuild(new_base, ticket.watermark)
        return new_base

    # -- accounting ------------------------------------------------------

    def snapshot_state(self) -> "dict[str, np.ndarray]":
        raise TypeError(
            "WritableIndex holds live mutable state; snapshot the base "
            "index instead (it is rebuilt through the artifact cache)"
        )

    def size_in_bytes(self) -> int:
        return int(self._view.base.size_in_bytes()
                   + self._view.delta.nbytes())

    def stats(self) -> "dict[str, Any]":
        view = self._view
        return {
            "name": self.name,
            "base": view.base.stats(),
            "n": view.live_count(),
            "delta_len": len(view.delta),
            "staleness_s": self.staleness_s(),
            "bytes": self.size_in_bytes(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        view = self._view
        return (f"<WritableIndex over {type(view.base).__name__}, "
                f"delta={len(view.delta)}>")
