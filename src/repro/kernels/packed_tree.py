"""Flat, kernel-ready packing of the tree baselines.

Two tree shapes cover the Table-5 tree indexes:

``TREE_SPARSE``
    The sparse B+-tree (:class:`~repro.baselines.btree.BTreeIndex`).
    Bulk loading packs the sampled ``(key, position)`` entries into
    leaves in order, so the leaf level as a whole *is* the sorted
    sampled-key array -- the packed form is exactly that directory:
    ``entry_keys`` (every ``sparsity``-th key) and ``positions`` (their
    array slots).  A lookup is a predecessor search over ``entry_keys``
    and a window spanning the entry's gap.
``TREE_HIST``
    The compact Hist-Tree (:class:`~repro.baselines.hist_tree.HistTree`).
    Nodes are flattened breadth-first into parallel arrays: per node its
    covered-range start in offset space (``node_lo``), bin shift
    (``node_shift``), array base position (``node_base``), prefix-summed
    bin counts (``node_pref``, ``num_bins + 1`` entries per node so a
    terminal bin's window is two adjacent loads), and per-bin child
    indexes (``node_child``, ``-1`` marks a terminal bin).  A lookup is
    the scalar shift-descent of ``HistTree.search_bounds`` over these
    arrays -- no Python objects, no dict probes.

As with every packed form in this package, values are copied verbatim
from the built index and all backends run the NumPy backend's
arithmetic, so windows and final positions are bit-identical across
backends.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .binding import Bindable

__all__ = [
    "PackedTree",
    "TREE_SPARSE",
    "TREE_HIST",
    "pack_sparse_directory",
    "pack_hist_nodes",
]

#: Tree shapes (see module docstring).
TREE_SPARSE = 0
TREE_HIST = 1

_EMPTY_U64 = np.zeros(0, dtype=np.uint64)
_EMPTY_I64 = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class PackedTree(Bindable):
    """One tree index as flat arrays, ready for a compiled lookup kernel.

    Exactly one of the two field groups is populated, selected by
    ``kind``; the other group holds empty arrays (never indexed by the
    kernels for that kind).
    """

    #: Dispatch tag consumed by ``KernelBackend.lookup``/``serve``.
    packed_kind = "tree"

    #: The fields of the C ``tree_run`` struct, ``tree_serve``'s argument
    #: run after ``(keys, n)``.
    KERNEL_RUN = (
        ("kind", ctypes.c_int32), ("entry_keys", np.uint64),
        ("positions", np.int64), ("num_entries", ctypes.c_int64),
        ("node_lo", np.uint64), ("node_shift", np.int64),
        ("node_base", np.int64), ("node_pref", np.int64),
        ("node_child", np.int64), ("num_bins", ctypes.c_int64),
        ("min_key", ctypes.c_uint64),
    )

    family: str            # index name, e.g. "b-tree" (reporting)
    kind: int              # TREE_SPARSE / TREE_HIST
    n: int                 # number of indexed keys

    # -- TREE_SPARSE: sampled-key directory ------------------------------
    entry_keys: np.ndarray  # (num_entries,) uint64, sorted
    positions: np.ndarray   # (num_entries,) int64 array slots

    # -- TREE_HIST: breadth-first node arrays ----------------------------
    node_lo: np.ndarray     # (num_nodes,) uint64 range start, offset space
    node_shift: np.ndarray  # (num_nodes,) int64 bin width is 2**shift
    node_base: np.ndarray   # (num_nodes,) int64 first key's array position
    node_pref: np.ndarray   # (num_nodes * (num_bins+1),) int64 prefix counts
    node_child: np.ndarray  # (num_nodes * num_bins,) int64, -1 = terminal
    num_bins: int           # bins per node (power of two)
    min_key: int            # smallest indexed key (offset-space origin)

    @property
    def num_entries(self) -> int:
        return len(self.entry_keys)

    @property
    def num_nodes(self) -> int:
        return len(self.node_lo)

    def check_lengths(self) -> None:
        if self.kind == TREE_SPARSE:
            if not 0 < len(self.positions) == self.num_entries:
                raise ValueError("PackedTree needs one position per "
                                 "directory entry")
            return
        if self.kind != TREE_HIST:
            raise ValueError(f"unknown PackedTree kind {self.kind}")
        nodes, bins = self.num_nodes, self.num_bins
        if nodes < 1 or bins < 1 \
                or not len(self.node_shift) == len(self.node_base) == nodes \
                or len(self.node_pref) != nodes * (bins + 1) \
                or len(self.node_child) != nodes * bins:
            raise ValueError("PackedTree node arrays disagree with its "
                             "node and bin counts")


def pack_sparse_directory(
    family: str, entry_keys: np.ndarray, positions: np.ndarray, n: int
) -> "PackedTree | None":
    """Pack a sparse B+-tree's sampled-key directory.

    Returns ``None`` (soft fallback, mirroring ``pack_rmi``) when the
    directory is empty or the arrays disagree in length.
    """
    entry_keys = np.ascontiguousarray(entry_keys, dtype=np.uint64)
    positions = np.ascontiguousarray(positions, dtype=np.int64)
    if len(entry_keys) == 0 or len(entry_keys) != len(positions) or n < 1:
        return None
    return PackedTree(
        family=str(family),
        kind=TREE_SPARSE,
        n=int(n),
        entry_keys=entry_keys,
        positions=positions,
        node_lo=_EMPTY_U64,
        node_shift=_EMPTY_I64,
        node_base=_EMPTY_I64,
        node_pref=_EMPTY_I64,
        node_child=_EMPTY_I64,
        num_bins=0,
        min_key=0,
    )


def pack_hist_nodes(
    family: str, root, num_bins: int, min_key: int, n: int
) -> "PackedTree | None":
    """Flatten a Hist-Tree node graph breadth-first.

    ``root`` is duck-typed on the ``_Node`` shape (``lo_key``, ``shift``,
    ``counts``, ``base``, ``children`` dict keyed by bin index), so this
    module needs no import from :mod:`repro.baselines`.  Returns
    ``None`` when a node's count array does not match ``num_bins``.
    """
    if num_bins < 2 or n < 1 or root is None:
        return None
    order = [root]
    index_of = {id(root): 0}
    for node in order:  # grows while iterating: breadth-first append
        for child in node.children.values():
            index_of[id(child)] = len(order)
            order.append(child)
    num_nodes = len(order)
    node_lo = np.zeros(num_nodes, dtype=np.uint64)
    node_shift = np.zeros(num_nodes, dtype=np.int64)
    node_base = np.zeros(num_nodes, dtype=np.int64)
    node_pref = np.zeros(num_nodes * (num_bins + 1), dtype=np.int64)
    node_child = np.full(num_nodes * num_bins, -1, dtype=np.int64)
    for i, node in enumerate(order):
        counts = np.asarray(node.counts, dtype=np.int64)
        if len(counts) != num_bins:
            return None
        node_lo[i] = np.uint64(node.lo_key)
        node_shift[i] = int(node.shift)
        node_base[i] = int(node.base)
        pref = node_pref[i * (num_bins + 1):(i + 1) * (num_bins + 1)]
        np.cumsum(counts, out=pref[1:])
        for b, child in node.children.items():
            node_child[i * num_bins + int(b)] = index_of[id(child)]
    return PackedTree(
        family=str(family),
        kind=TREE_HIST,
        n=int(n),
        entry_keys=_EMPTY_U64,
        positions=_EMPTY_I64,
        node_lo=node_lo,
        node_shift=node_shift,
        node_base=node_base,
        node_pref=node_pref,
        node_child=node_child,
        num_bins=int(num_bins),
        min_key=int(min_key),
    )
