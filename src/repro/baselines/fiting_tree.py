"""FITing-tree (Galakatos et al., SIGMOD 2019 [15]).

The paper *could not* evaluate FITing-tree -- "at the time of writing,
an open-source implementation of FITing-tree was not available which
prevented us from including it in our experiments" (Section 3.1).  We
implement it anyway as an extension, following the paper's own
description:

1. the dataset is divided into variable-sized segments by a greedy
   single-pass algorithm such that each segment's linear approximation
   (through its first and last key) satisfies a user-defined error
   bound;
2. segments are indexed by bulk loading their first keys into a
   B-tree -- "FITing-tree can be considered as a sparse B-tree with
   variable-sized pages";
3. a lookup traverses the B-tree to the segment, interpolates a
   position, and searches within the error bound around it.

We reuse the shrinking-cone PLA (shared with PGM-index; the greedy
algorithm of the original FITing-tree paper is the same family) and the
bulk-loaded B+-tree substrate.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .btree import BulkLoadedBPlusTree
from .interfaces import OrderedIndex, SearchBounds
from .pgm import build_pla_segments

__all__ = ["FITingTree"]


class FITingTree(OrderedIndex):
    """FITing-tree: greedy ε-PLA segments under a B+-tree directory."""

    name = "fiting-tree"

    def __init__(self, keys: np.ndarray, error: int = 64, fanout: int = 64):
        super().__init__(keys)
        if error < 1:
            raise ValueError("error must be >= 1")
        self.error = error
        self.fanout = fanout

        unique_keys, first_pos = np.unique(self.keys, return_index=True)
        segments = build_pla_segments(
            unique_keys, first_pos.astype(np.float64), error
        )
        self._first_keys = np.asarray(
            [s.first_key for s in segments], dtype=np.uint64
        )
        self._slopes = np.asarray([s.slope for s in segments], dtype=np.float64)
        self._first_values = np.asarray(
            [s.first_value for s in segments], dtype=np.float64
        )
        self._tree = BulkLoadedBPlusTree(
            self._first_keys,
            np.arange(len(segments), dtype=np.int64),
            fanout=fanout,
        )

    @property
    def num_segments(self) -> int:
        return len(self._first_keys)

    def search_bounds(self, key: int) -> SearchBounds:
        key = int(key)
        _, segment, steps = self._tree.lookup_le(key)
        if segment < 0:
            # Query precedes every segment.
            return SearchBounds(lo=0, hi=0, hint=0, evaluation_steps=steps)
        estimate = self._first_values[segment] + self._slopes[segment] * (
            float(key) - float(self._first_keys[segment])
        )
        center = int(np.clip(estimate, 0, self.n - 1))
        lo = max(center - self.error, 0)
        hi = min(center + self.error, self.n - 1)
        return SearchBounds(lo=lo, hi=hi, hint=center, evaluation_steps=steps + 1)

    def pack(self):
        """Flatten the segment table for the kernel backends.

        The B+-tree directory only accelerates scalar descent; the
        batch lookup's predecessor search runs over the flat segment
        table, which is exactly the packed single-level form.
        """
        from ..kernels import PLA_SEGMENT, pack_pla_levels

        return pack_pla_levels(
            self.name, PLA_SEGMENT,
            [(self._first_keys, self._slopes, self._first_values)],
            eps=self.error, n=self.n,
        )

    def size_in_bytes(self) -> int:
        """Segment table (24 B per segment) plus the B+-tree directory."""
        return self.num_segments * 24 + self._tree.size_in_bytes()

    def stats(self) -> dict[str, Any]:
        base = super().stats()
        base.update(
            segments=self.num_segments,
            error=self.error,
            tree_height=self._tree.height,
        )
        return base
