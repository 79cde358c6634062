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
the live array.  With ``dk`` the delta keys, ``mult[i]`` the base
multiplicity of ``dk[i]``, ``ins[i]`` 1 for an insert entry, and
``T[b]`` the number of delta keys whose base lower bound is below
``b << BUCKET_SHIFT`` (64 base positions per bucket)::

    p = base.lookup(q);  b = p >> BUCKET_SHIFT
    pos(q) = p + corr[T[b] + searchsorted(dk[T[b]:T[b + 1]], q)]
    corr[i] = sum(ins[:i]) - sum(mult[:i])  # delta-live minus shadowed

The base's exact answer bounds the rank: a delta key whose base lower
bound lies below ``q``'s bucket is below ``q``, one past the bucket is
above it, so the search covers a bucket's few delta keys, not the
whole delta.  A write batch keeps ``corr`` and ``T`` current in one
call: the base index ranks the raw batch once with its own
``lookup_batch`` (exact whatever its type), and the backend's
``merge_delta`` keeps each key's last write, counts its base
multiplicity from that lower bound, and merges the batch in, carrying
``corr`` and ``T`` across as it goes.

**Concurrency.**  All queryable state lives in one immutable
:class:`_View` (base + delta + lazily derived adjustment arrays)
published by a single reference assignment -- atomic under CPython.
Readers capture the view once per call and never lock; writers and the
rebuild-finish path serialize on a mutex.  This is the same
capture-at-dispatch discipline :class:`~repro.serve.server.IndexServer`
uses for hot swaps, extended inside the index.

**Rebuild protocol** (:meth:`begin_rebuild` or :meth:`snapshot_steps`,
then :meth:`finish_rebuild`): the rebuild snapshots ``(live keys,
watermark)``, builds a new base over them (in bounded steps on the
serving loop when the factory has a stepwise form, otherwise in a
worker thread -- see :meth:`~repro.serve.server.IndexServer.rebuild`),
and the finish step compacts the delta down to writes newer than the
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

from .. import kernels
from ..baselines.interfaces import OrderedIndex, SearchBounds
from ..kernels.base import bucket_table, run_steps, serve_by_lookup, \
    table_size
from .delta import OP_INSERT, OP_TOMBSTONE, DeltaState, empty_delta

__all__ = ["WritableIndex", "RebuildTicket"]

_MAX_KEY = np.uint64(2**64 - 1)


class _View:
    """One immutable (base, delta) snapshot plus derived query state.

    Derived arrays are computed lazily and cached on the view itself;
    a view is only ever mutated by filling these caches (idempotent --
    two racing readers compute the same arrays), never by changing
    ``base`` or ``delta``.
    """

    __slots__ = ("base", "delta", "_corr", "_table", "_live")

    def __init__(self, base: Any, delta: DeltaState) -> None:
        self.base = base
        self.delta = delta
        self._corr: "np.ndarray | None" = None
        self._table: "np.ndarray | None" = None
        self._live: "np.ndarray | None" = None

    # -- derived adjustment arrays ---------------------------------------

    def base_ranks(self, keys: np.ndarray
                   ) -> "tuple[np.ndarray, np.ndarray]":
        """The base's lower bound of each of the sorted ``keys``, and
        how many copies of it the base holds (for :meth:`_count`; a
        write batch gets both from ``merge_delta``).

        The base's own ``lookup_batch`` ranks each key ``k`` and
        ``k + 1`` in one call; ``k + 1`` wraps for ``2^64 - 1``, whose
        upper rank is the base's length.
        """
        up = keys + np.uint64(1)
        ranks = np.asarray(self.base.lookup_batch(np.concatenate([keys, up])),
                           dtype=np.int64)
        lo, hi = ranks[:len(keys)], ranks[len(keys):]
        if len(keys) and keys[-1] == _MAX_KEY:
            hi[-1] = len(self.base.keys)
        return lo, hi - lo

    def _count(self) -> None:
        """Count the correction and the bucket table from the base."""
        delta = self.delta
        lower, mult = self.base_ranks(delta.keys)
        corr = np.zeros(len(delta) + 1, dtype=np.int64)
        np.cumsum((delta.ops == OP_INSERT) - mult, out=corr[1:])
        self._table = bucket_table(lower, table_size(len(self.base.keys)))
        self._corr = corr

    def correction(self) -> np.ndarray:
        """Combined per-rank position correction for merged lookups.

        ``correction()[i]`` is the number of insert entries minus the
        base multiplicities among the first ``i`` delta keys (every base
        copy of a delta key is shadowed): how many positions a query
        ranking ``i`` delta keys below it shifts relative to the bare
        base answer.  A write batch keeps it current in its merge pass
        (:meth:`merged_with`) and a rebuild's publication derives it
        (:meth:`WritableIndex.finish_rebuild`); any other view counts it
        here, with :meth:`table`.
        """
        if self._corr is None:
            self._count()
        return self._corr

    def table(self) -> np.ndarray:
        """The delta's bucket table over base positions.

        ``table()[b]`` is the number of delta keys whose base lower
        bound is below ``b << BUCKET_SHIFT``, for every bucket of base
        positions ``0..n`` and the end of the last
        (:func:`~repro.kernels.base.table_size` entries): a dirty read
        with base answer ``p`` ranks only the delta keys between the
        entries of ``p``'s bucket and the next (the backend's
        ``delta_correct``).  Kept current like :meth:`correction`.
        """
        if self._table is None:
            self._count()
        return self._table

    def merged_with(self, keys: np.ndarray, ops: np.ndarray,
                    seq_start: int, now: float) -> "_View":
        """The view after one write batch: ``keys`` and ``ops`` in
        stream order, the ``i``-th write with sequence number
        ``seq_start + i`` and born stamp ``now``.

        Within the batch the last write per key wins; against the buffer
        the batch wins, and a re-written key keeps its oldest born stamp
        -- the entry has been unmerged since the first write -- so a
        post-rebuild compaction never drops a write that arrived after
        the rebuild snapshot.  The base ranks the raw batch once (its
        own ``lookup_batch``), and one call of the backend's
        ``merge_delta`` does the rest: it keeps each key's last write,
        counts its base multiplicity from that lower bound, and merges
        the batch into the buffer, writing the new delta, its correction
        and its bucket table, so the first read after a write pays read
        costs only.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        delta, base = self.delta, self.base
        *arrays, corr, table = kernels.get_backend().merge_delta(
            (delta.keys, delta.ops, delta.seqs, delta.born,
             self.correction(), self.table()),
            (keys, ops, base.lookup_batch(keys)), seq_start, now, base.keys)
        view = _View(base, DeltaState(*arrays))
        view._corr, view._table = corr, table
        return view

    def lookup(self, queries: np.ndarray) -> np.ndarray:
        """Merged lower-bound positions for a query batch."""
        queries = np.ascontiguousarray(queries, dtype=np.uint64)
        base_pos = np.asarray(self.base.lookup_batch(queries),
                              dtype=np.int64)
        if not len(self.delta):
            return base_pos
        # The base answer picks each query's bucket, the table the delta
        # keys it can fall among, and one gather applies the combined
        # correction at the query's rank there (the delta is per-key
        # unique, so prefix-of-delta == "< query" exactly).
        return kernels.get_backend().delta_correct(
            self.delta.keys, self.correction(), base_pos, queries,
            self.table())

    def live_count(self) -> int:
        """``len(live_keys())`` without building the live array."""
        return len(self.base.keys) + int(self.correction()[-1])

    def live_keys_steps(self):
        """:meth:`live_keys` as a step generator (the backend's
        ``merge_live_steps``)."""
        live = self._live
        if live is None:
            base_keys = np.asarray(self.base.keys, dtype=np.uint64)
            if not len(self.delta):
                live = base_keys
            else:
                live = yield from kernels.get_backend().merge_live_steps(
                    base_keys, self.delta.keys, self.delta.ops,
                    self.live_count())
            live.setflags(write=False)
            self._live = live
        return live

    def live_keys(self) -> np.ndarray:
        """The merged live key array (materialized once per view)."""
        return run_steps(self.live_keys_steps())


@dataclass(frozen=True)
class RebuildTicket:
    """A rebuild work order: what to build, and what it will replace.

    ``live_keys`` is the merged array to build the new base over;
    ``watermark`` bounds the delta entries the snapshot already folded
    in; ``base`` is the current base index, for factory/type
    decisions; ``delta`` is the snapshot's delta buffer, from which
    :meth:`WritableIndex.finish_rebuild` (given the ticket) derives the
    new base's multiplicities.
    """

    live_keys: np.ndarray
    watermark: int
    base: Any
    delta: DeltaState


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
        if len(keys) == 0:
            return 0
        with self._mutate:
            seq_start = self._next_seq
            self._view = self._view.merged_with(keys, ops, seq_start,
                                                self._clock())
            self._next_seq = seq_start + len(keys)
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

    def serve_batch(
        self,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """One capture of the view serves the whole micro-batch.

        Clean (empty delta) batches delegate to the base's own
        ``serve_batch`` -- including its fused compiled kernels; dirty
        batches run one merged lookup over points and range bounds (the
        base's batch engine once, not three times), after the same range
        check.  Either way the view is captured once, so a concurrent
        write or rebuild swap never splits a batch across two states.
        """
        view = self._view
        if not len(view.delta):
            return view.base.serve_batch(point_queries, range_lows,
                                         range_highs)
        return serve_by_lookup(view.lookup, point_queries, range_lows,
                               range_highs)

    # -- compiled kernels ------------------------------------------------

    def warm_kernels(self) -> None:
        self._view.base.warm_kernels()

    # -- rebuild protocol ------------------------------------------------

    def begin_rebuild(self) -> RebuildTicket:
        """Snapshot the merged state for a rebuild."""
        return run_steps(self.snapshot_steps())

    def snapshot_steps(self):
        """:meth:`begin_rebuild` as a step generator: the snapshot view
        is captured at the first step, and its live keys are merged in
        the backend's bounded steps while writes go on."""
        view = self._view
        live_keys = yield from view.live_keys_steps()
        return RebuildTicket(live_keys=live_keys,
                             watermark=view.delta.watermark,
                             base=view.base, delta=view.delta)

    def finish_rebuild(self, new_base: Any, ticket: RebuildTicket) -> None:
        """Publish ``new_base``, built over ``ticket``'s live keys; keep
        the writes newer than the ticket's snapshot.

        The swap is one view assignment: queries in flight keep the
        view they captured, later queries see the new base with the
        compacted delta -- zero-loss, same as the server's hot swap.
        The backend's ``compact_delta`` keeps the entries above the
        ticket's watermark and derives their correction and bucket table
        in one pass, on the publishing path, so no read pays it and the
        new base is not searched: a key the snapshot's delta wrote has
        the multiplicity its op gave it, any other key keeps its old
        base multiplicity, which the current correction holds, and the
        table merges every ``2**BUCKET_SHIFT``-th new base key with the
        kept keys.  That needs the base the ticket snapshotted still in
        place; a ``ValueError`` refuses a ticket whose base has been
        replaced.
        """
        with self._mutate:
            view = self._view
            if view.base is not ticket.base:
                raise ValueError("finish_rebuild: the ticket's base is no "
                                 "longer the current base")
            d, snapshot = view.delta, ticket.delta
            *arrays, corr, table = kernels.get_backend().compact_delta(
                (d.keys, d.ops, d.seqs, d.born, view.correction()),
                (snapshot.keys, snapshot.ops), ticket.watermark,
                new_base.keys)
            new_view = _View(new_base, DeltaState(*arrays))
            new_view._corr, new_view._table = corr, table
            self._view = new_view

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
        self.finish_rebuild(new_base, ticket)
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
