"""Compact Hist-Tree (Crotty, CIDR 2021 [11]).

The Hist-Tree partitions the key range of each node into ``num_bins``
equal-width bins and stores the number of keys per bin; bins holding
more than ``max_error`` keys become child nodes.  A lookup descends the
bins of the query key, accumulating the counts of preceding bins into a
position offset, until it reaches a terminal bin -- whose at most
``max_error`` keys are then searched.  We implement the read-only
*compact* variant the paper uses ("an implementation of a compact
Hist-Tree that does not support updates in favor of lookup
performance", Section 4.5).

``num_bins`` must be a power of two: each level then consumes
``log2(num_bins)`` key bits and bin selection is a shift, which is what
makes the real implementation fast and what our cost accounting models.

Duplicate keys are rejected with
:class:`~repro.baselines.interfaces.UnsupportedDataError`: a run of
duplicates longer than ``max_error`` can never be split by range
bisection (the paper observes that "Hist-Tree and ART did not work on
wiki", the one dataset with duplicates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .interfaces import OrderedIndex, SearchBounds, UnsupportedDataError

__all__ = ["HistTree"]


@dataclass
class _Node:
    """One Hist-Tree node: bin counts plus children for dense bins."""

    lo_key: int  # inclusive start of the covered key range (offset space)
    shift: int  # child bin width is 2**shift
    counts: np.ndarray  # keys per bin
    base: int  # array position of the first key in this node's range
    children: dict[int, "_Node"] = field(default_factory=dict)


class HistTree(OrderedIndex):
    """Compact Hist-Tree baseline of Table 5.

    ``num_bins`` sizes each node; ``max_error`` is the terminal-bin
    threshold -- both are the paper's tuning parameters for this index.
    """

    name = "hist-tree"

    def __init__(self, keys: np.ndarray, num_bins: int = 64, max_error: int = 32):
        super().__init__(keys)
        if num_bins < 2 or num_bins & (num_bins - 1):
            raise ValueError("num_bins must be a power of two >= 2")
        if max_error < 1:
            raise ValueError("max_error must be >= 1")
        if len(keys) > 1 and bool(np.any(keys[1:] == keys[:-1])):
            raise UnsupportedDataError(
                "Hist-Tree cannot split duplicate runs; dataset has duplicates"
            )
        self.num_bins = num_bins
        self.max_error = max_error
        self._bin_bits = int(np.log2(num_bins))
        self._min_key = int(self.keys[0])

        span = int(self.keys[-1]) - self._min_key + 1
        total_bits = max(span - 1, 1).bit_length()
        # Round up so the root consumes whole levels of bin_bits.
        total_bits = ((total_bits + self._bin_bits - 1) // self._bin_bits
                      ) * self._bin_bits
        self.num_nodes = 0
        self.height = 0
        self._offset_keys = (self.keys - np.uint64(self._min_key)).astype(np.uint64)
        self.root = self._build(0, total_bits - self._bin_bits, 0, self.n, 1)

    def _build(self, lo_key: int, shift: int, start: int, end: int,
               depth: int) -> _Node:
        """Recursively build the node covering keys [start, end)."""
        self.num_nodes += 1
        self.height = max(self.height, depth)
        width = 1 << shift
        # Bin edges can exceed the uint64 domain at the (rounded-up)
        # root level; clamp in Python-int space before converting.
        top = (1 << 64) - 1
        edges = np.fromiter(
            (min(lo_key + width * b, top) for b in range(1, self.num_bins)),
            dtype=np.uint64,
            count=self.num_bins - 1,
        )
        splits = start + np.searchsorted(
            self._offset_keys[start:end], edges, side="left"
        )
        boundaries = np.concatenate(([start], splits, [end])).astype(np.int64)
        counts = np.diff(boundaries)
        node = _Node(lo_key=lo_key, shift=shift, counts=counts, base=start)
        for b in range(self.num_bins):
            if counts[b] > self.max_error and shift > 0:
                node.children[b] = self._build(
                    lo_key + b * width,
                    shift - self._bin_bits,
                    int(boundaries[b]),
                    int(boundaries[b + 1]),
                    depth + 1,
                )
        return node

    def search_bounds(self, key: int) -> SearchBounds:
        key = int(key)
        if key < self._min_key:
            return SearchBounds(lo=0, hi=0, hint=0, evaluation_steps=1)
        offset_key = key - self._min_key
        node = self.root
        steps = 0
        while True:
            steps += 1
            bin_index = (offset_key - node.lo_key) >> node.shift
            if bin_index >= self.num_bins:
                # Query beyond the covered range: answer is at the end.
                return SearchBounds(
                    lo=self.n - 1, hi=self.n - 1, hint=self.n - 1,
                    evaluation_steps=steps,
                )
            child = node.children.get(bin_index)
            if child is None:
                lo = node.base + int(node.counts[:bin_index].sum())
                hi = lo + int(node.counts[bin_index])
                # Include one slot past the bin: the lower bound of a key
                # falling in an empty/exhausted bin is the next key.
                hi = min(hi, self.n - 1)
                return SearchBounds(
                    lo=min(lo, self.n - 1), hi=hi, hint=min(lo, self.n - 1),
                    evaluation_steps=steps,
                )
            node = child

    def pack(self):
        """Flatten the node graph breadth-first for the kernel
        backends; the batch shift-descent then runs over parallel
        arrays with no Python objects or dict probes."""
        from ..kernels import pack_hist_nodes

        return pack_hist_nodes(
            self.name, self.root, self.num_bins, self._min_key, self.n
        )

    def size_in_bytes(self) -> int:
        """4 bytes per bin count plus 4 bytes per child slot (compact
        layout packs child offsets into the count array)."""
        return self.num_nodes * self.num_bins * 8

    def stats(self) -> dict[str, Any]:
        base = super().stats()
        base.update(
            num_bins=self.num_bins,
            max_error=self.max_error,
            nodes=self.num_nodes,
            height=self.height,
        )
        return base
