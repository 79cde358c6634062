"""The writable index tier: delta buffer + background rebuild + swap.

The paper evaluates RMIs as static structures; this package makes the
whole serving stack read-write (ROADMAP item 2) without changing any
index's build or lookup code:

* :mod:`repro.writable.delta` -- a sorted, per-key-unique write buffer
  with newest-wins upsert semantics, sequence-number watermarks, and
  per-entry age stamps (the staleness metric's raw material);
* :mod:`repro.writable.index` -- :class:`WritableIndex`, wrapping any
  :class:`~repro.baselines.interfaces.OrderedIndex` behind the same
  batch contract (``lookup_batch`` / ``range_query_batch`` /
  ``serve_batch``), merging base and delta in two passes on top of the
  base's own batch lookup, folding each write batch into the buffer in
  one pass, and publishing all state through one atomic view reference;
* :mod:`repro.writable.rebuild` -- the background rebuild loop, which
  drives the server's one rebuild path (fold the delta into a new base
  of the same configuration, in bounded steps that the writes pay for
  when the build has them, then hot-swap it), and the factory that path
  derives from the base it replaces.

The mixed read/write workload generator and loadgen driver live in
:mod:`repro.workload.generator` / :mod:`repro.serve.loadgen`; the gated
benchmark is ``python -m repro.bench updates`` (``BENCH_updates.json``).
"""

from .delta import OP_INSERT, OP_TOMBSTONE, DeltaState, empty_delta
from .index import RebuildTicket, WritableIndex
from .rebuild import IndexFactory, RebuildDaemon, WritableFactory

__all__ = [
    "OP_INSERT",
    "OP_TOMBSTONE",
    "DeltaState",
    "empty_delta",
    "RebuildTicket",
    "WritableIndex",
    "IndexFactory",
    "RebuildDaemon",
    "WritableFactory",
]
