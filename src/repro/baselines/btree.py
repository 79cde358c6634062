"""Bulk-loaded B+-tree (Bayer & McCreight [10]).

The paper evaluates a B-tree (TLX's implementation) as the classic
general-purpose baseline and varies its size via *sparsity*: the index
is built on every k-th key only, turning it into a sparse index whose
candidate interval spans the gap between two indexed keys (Section 4.5).

Two classes:

* :class:`BulkLoadedBPlusTree` -- the reusable substrate: a node-based
  B+-tree bulk-loaded from sorted ``(key, value)`` pairs, answering
  *predecessor* queries (greatest indexed key <= query).  FITing-tree
  indexes its PLA segments with this class, exactly as described in the
  FITing-tree paper.
* :class:`BTreeIndex` -- the Table 5 baseline: a sparse B+-tree over the
  data array implementing the :class:`~repro.baselines.interfaces.OrderedIndex`
  contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .interfaces import OrderedIndex, SearchBounds

__all__ = ["BulkLoadedBPlusTree", "BTreeIndex"]


@dataclass
class _Leaf:
    """Leaf node: parallel arrays of keys and user values."""

    keys: np.ndarray
    values: np.ndarray


@dataclass
class _Inner:
    """Internal node: ``separators[i]`` is the smallest key reachable
    through ``children[i + 1]``; queries < separators[0] descend into
    ``children[0]``."""

    separators: np.ndarray
    children: list[Any] = field(default_factory=list)


class BulkLoadedBPlusTree:
    """A B+-tree bulk-loaded from sorted keys, answering predecessor
    queries.

    ``fanout`` bounds both the number of leaf entries and the number of
    children per internal node.  Bulk loading packs nodes to capacity,
    which is what TLX's ``btree`` does for sorted input and gives the
    shallowest possible tree.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray, fanout: int = 64):
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if len(keys) == 0:
            raise ValueError("cannot bulk-load an empty B+-tree")
        self.fanout = fanout
        self.num_entries = len(keys)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.int64)

        # Build the leaf level, then stack internal levels until a
        # single root remains.
        leaves: list[Any] = [
            _Leaf(keys[i : i + fanout], values[i : i + fanout])
            for i in range(0, len(keys), fanout)
        ]
        self.num_leaves = len(leaves)
        self.num_inner = 0
        self.height = 1
        level = leaves
        level_min_keys = [int(node.keys[0]) for node in level]
        while len(level) > 1:
            parents = []
            parent_min_keys = []
            for i in range(0, len(level), fanout):
                children = level[i : i + fanout]
                mins = level_min_keys[i : i + fanout]
                parents.append(
                    _Inner(
                        separators=np.asarray(mins[1:], dtype=np.uint64),
                        children=children,
                    )
                )
                parent_min_keys.append(mins[0])
            self.num_inner += len(parents)
            level = parents
            level_min_keys = parent_min_keys
            self.height += 1
        self.root = level[0]

    def lookup_le(self, key: int) -> tuple[int, int, int]:
        """Find the greatest indexed key ``<= key``.

        Returns ``(entry_index, value, nodes_visited)`` where
        ``entry_index`` is the rank of the found entry among all leaf
        entries, or ``-1`` when every indexed key exceeds ``key``.
        """
        node = self.root
        rank_base = 0
        steps = 0
        while isinstance(node, _Inner):
            child = int(np.searchsorted(node.separators, key, side="right"))
            for sibling in node.children[:child]:
                rank_base += self._subtree_entries(sibling)
            steps += self._node_accesses(len(node.separators) + 1)
            node = node.children[child]
        steps += self._node_accesses(len(node.keys))
        # Greatest leaf key <= query.
        idx = int(np.searchsorted(node.keys, key, side="right")) - 1
        if idx < 0:
            return -1, -1, steps
        return rank_base + idx, int(node.values[idx]), steps

    # ------------------------------------------------------------------
    # Inserts (classic B+-tree split propagation)
    # ------------------------------------------------------------------

    def insert(self, key: int, value: int) -> None:
        """Insert a ``(key, value)`` entry (upsert for present keys).

        Standard B+-tree insertion: the leaf absorbs the entry; an
        overfull leaf splits in the middle and propagates a separator
        upward, splitting inner nodes as needed; a root split grows the
        tree by one level.  Rank caches along the path are invalidated.
        """
        key = int(key)
        split = self._insert(self.root, key, int(value))
        if split is not None:
            sep, right = split
            self.root = _Inner(
                separators=np.asarray([sep], dtype=np.uint64),
                children=[self.root, right],
            )
            self.num_inner += 1
            self.height += 1

    def _insert(self, node: Any, key: int, value: int):
        """Recursive insert; returns ``(separator, new_right)`` on split."""
        node.__dict__.pop("_entry_count", None)  # rank cache invalidation
        if isinstance(node, _Leaf):
            idx = int(np.searchsorted(node.keys, key, side="left"))
            if idx < len(node.keys) and int(node.keys[idx]) == key:
                node.values[idx] = value  # upsert
                return None
            node.keys = np.insert(node.keys, idx, np.uint64(key))
            node.values = np.insert(node.values, idx, value)
            self.num_entries += 1
            if len(node.keys) <= self.fanout:
                return None
            mid = len(node.keys) // 2
            right = _Leaf(keys=node.keys[mid:].copy(),
                          values=node.values[mid:].copy())
            node.keys = node.keys[:mid].copy()
            node.values = node.values[:mid].copy()
            self.num_leaves += 1
            return int(right.keys[0]), right
        child = int(np.searchsorted(node.separators, key, side="right"))
        split = self._insert(node.children[child], key, value)
        if split is None:
            return None
        sep, right = split
        node.separators = np.insert(node.separators, child, np.uint64(sep))
        node.children.insert(child + 1, right)
        if len(node.children) <= self.fanout:
            return None
        mid = len(node.children) // 2
        push_up = int(node.separators[mid - 1])
        right_inner = _Inner(
            separators=node.separators[mid:].copy(),
            children=node.children[mid:],
        )
        node.separators = node.separators[: mid - 1].copy()
        node.children = node.children[:mid]
        self.num_inner += 1
        return push_up, right_inner

    @staticmethod
    def _node_accesses(entries: int) -> int:
        """Dependent memory accesses to search one node.

        A node of ``entries`` 8-byte keys spans ``entries/8`` cache
        lines; binary search inside it touches one line per halving
        above line granularity, plus the initial node access.  This is
        the work that makes a B-tree lookup cost comparable to plain
        binary search over the array (paper Section 8.1: the B-tree
        "was barely able to beat binary search").
        """
        lines = max(entries // 8, 1)
        return 1 + max(int(np.ceil(np.log2(lines))), 0)

    def _subtree_entries(self, node: Any) -> int:
        """Number of leaf entries beneath ``node`` (memoized)."""
        cache = getattr(node, "_entry_count", None)
        if cache is not None:
            return cache
        if isinstance(node, _Leaf):
            count = len(node.keys)
        else:
            count = sum(self._subtree_entries(c) for c in node.children)
        node._entry_count = count
        return count

    def size_in_bytes(self) -> int:
        """8 bytes per leaf key, value, separator, and child pointer."""
        leaf_bytes = self.num_entries * 16
        inner_bytes = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner):
                inner_bytes += len(node.separators) * 8 + len(node.children) * 8
                stack.extend(node.children)
        return leaf_bytes + inner_bytes


class BTreeIndex(OrderedIndex):
    """Sparse B+-tree baseline of Table 5.

    ``sparsity=k`` indexes every k-th key (k = 1 is a dense index).  The
    candidate interval returned by :meth:`search_bounds` spans from the
    greatest indexed key <= query to the next indexed key, i.e. at most
    ``k`` array slots -- the data page a database would scan.
    """

    name = "b-tree"

    def __init__(self, keys: np.ndarray, fanout: int = 64, sparsity: int = 1):
        super().__init__(keys)
        if sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        self.sparsity = sparsity
        self.fanout = fanout
        positions = np.arange(0, self.n, sparsity, dtype=np.int64)
        self._positions = positions
        self._sampled_keys = self.keys[positions]
        self._tree = BulkLoadedBPlusTree(
            self._sampled_keys, positions, fanout=fanout
        )

    def search_bounds(self, key: int) -> SearchBounds:
        entry, value, steps = self._tree.lookup_le(key)
        if entry < 0:
            # Query precedes every indexed key: the answer is in the
            # first gap (non-empty only when sparsity > 1).
            hi = int(self._positions[0]) if len(self._positions) else 0
            return SearchBounds(lo=0, hi=hi, hint=0, evaluation_steps=steps)
        lo = value
        if entry + 1 < len(self._positions):
            hi = int(self._positions[entry + 1])
        else:
            hi = self.n - 1
        return SearchBounds(lo=lo, hi=hi, hint=lo, evaluation_steps=steps)

    def pack(self):
        """Flatten the sampled-key directory for the kernel backends.

        Bulk loading packs the sampled ``(key, position)`` entries into
        leaves in order, so the leaf level as a whole is the sorted
        sampled-key array: the batch lookup's predecessor search over
        it yields the same gap the node-by-node descent finds (what a
        SIMD-batched B-tree achieves within nodes).  The packed form is
        exactly that directory plus the sampled positions.
        """
        from ..kernels import pack_sparse_directory

        return pack_sparse_directory(
            self.name, self._sampled_keys, self._positions, self.n
        )

    def size_in_bytes(self) -> int:
        return self._tree.size_in_bytes()

    def stats(self) -> dict[str, Any]:
        base = super().stats()
        base.update(
            height=self._tree.height,
            leaves=self._tree.num_leaves,
            inner_nodes=self._tree.num_inner,
            indexed_keys=self._tree.num_entries,
            sparsity=self.sparsity,
        )
        return base
