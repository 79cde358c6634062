"""PGM-index (Ferragina & Vinciguerra [14]).

The PGM-index approximates the CDF with an error-bounded piecewise
linear approximation (PLA): every segment predicts the position of its
keys within a user-chosen maximum error ``eps``.  Segmentation is then
applied *recursively* to the segments' first keys until a single
segment remains, so every root-to-data path has the same length
(Section 3.1 of the paper under reproduction).

Segmentation algorithm
----------------------
We use the streaming *shrinking-cone* algorithm: a segment keeps the
interval of slopes that keeps all of its points within ``eps`` of the
line anchored at the segment's first point; a point that empties the
interval starts a new segment.  It runs in a single pass and O(1) space.
(The original PGM uses O'Rourke's optimal algorithm; the shrinking cone
produces at most a small constant factor more segments, preserving
every size/accuracy trend the paper reports.  The substitution is
recorded in DESIGN.md.)

Duplicates are handled by fitting on the *first* occurrence of each
key, which keeps lower-bound semantics exact.

Lookup: starting from the root segment, each level predicts the next
level's segment index and corrects it with binary search in a ±eps
window; the bottom level predicts the data position within ±eps
(Section 3.1: "a lookup is an iterative process ...").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .interfaces import OrderedIndex, SearchBounds

__all__ = ["PGMIndex", "build_pla_segments", "PlaSegment"]

#: Accounting: key (8 B) + slope (8 B) + intercept (8 B) per segment,
#: matching the paper's "size depends on the number of segments".
SEGMENT_BYTES = 24


@dataclass(frozen=True)
class PlaSegment:
    """One ε-bounded linear segment anchored at its first point."""

    first_key: int
    slope: float
    first_value: float

    def predict(self, key: int) -> float:
        return self.first_value + self.slope * (float(key) - float(self.first_key))


def build_pla_segments(
    keys: np.ndarray, values: np.ndarray, eps: int
) -> list[PlaSegment]:
    """Single-pass ε-bounded PLA via the shrinking-cone algorithm.

    ``keys`` must be strictly increasing; ``values`` may be any
    non-decreasing targets (data positions at the bottom level, segment
    indexes at upper levels).  Every returned segment satisfies
    ``|predict(k) - v| <= eps`` for each of its ``(k, v)`` points.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    n = len(keys)
    if n == 0:
        return []
    segments: list[PlaSegment] = []
    y0 = float(values[0])
    k0 = int(keys[0])
    slope_lo = -np.inf
    slope_hi = np.inf
    for i in range(1, n):
        ki = int(keys[i])
        y = float(values[i])
        # Subtract in exact integer space: near 2**64 adjacent keys
        # collapse to the same float64 (the ULP there is 4096), which
        # would make strictly increasing keys look equal.
        dx = float(ki - k0)
        if ki <= k0:
            raise ValueError("keys must be strictly increasing for PLA")
        lo = (y - eps - y0) / dx
        hi = (y + eps - y0) / dx
        new_lo = max(slope_lo, lo)
        new_hi = min(slope_hi, hi)
        if new_lo > new_hi:
            # Cone emptied: close the current segment, start a new one.
            segments.append(PlaSegment(k0, _pick_slope(slope_lo, slope_hi), y0))
            y0, k0 = y, ki
            slope_lo, slope_hi = -np.inf, np.inf
        else:
            slope_lo, slope_hi = new_lo, new_hi
    segments.append(PlaSegment(k0, _pick_slope(slope_lo, slope_hi), y0))
    return segments


def _pick_slope(lo: float, hi: float) -> float:
    """Representative slope from a (possibly unbounded) feasible cone."""
    if not np.isfinite(lo) and not np.isfinite(hi):
        return 0.0  # single-point segment
    if not np.isfinite(lo):
        return hi
    if not np.isfinite(hi):
        return lo
    return (lo + hi) / 2.0


class _Level:
    """One PLA level stored as parallel arrays for fast descent."""

    def __init__(self, segments: list[PlaSegment]):
        self.first_keys = np.asarray(
            [s.first_key for s in segments], dtype=np.uint64
        )
        self.slopes = np.asarray([s.slope for s in segments], dtype=np.float64)
        self.first_values = np.asarray(
            [s.first_value for s in segments], dtype=np.float64
        )

    def __len__(self) -> int:
        return len(self.first_keys)

    def predict(self, segment: int, key: int) -> float:
        return self.first_values[segment] + self.slopes[segment] * (
            float(key) - float(self.first_keys[segment])
        )


class PGMIndex(OrderedIndex):
    """The static (non-updatable) PGM-index variant of Table 5.

    ``eps`` caps the bottom-level prediction error (the paper varies
    index size through it); ``eps_internal`` caps upper-level errors
    (the reference implementation defaults to a small constant).
    """

    name = "pgm-index"

    def __init__(self, keys: np.ndarray, eps: int = 64, eps_internal: int = 4):
        super().__init__(keys)
        if eps < 1 or eps_internal < 1:
            raise ValueError("eps and eps_internal must be >= 1")
        self.eps = eps
        self.eps_internal = eps_internal

        # Deduplicate: fit on the first occurrence of each key so that
        # predictions target lower-bound positions.
        unique_keys, first_pos = np.unique(self.keys, return_index=True)
        bottom = build_pla_segments(
            unique_keys, first_pos.astype(np.float64), eps
        )
        self.levels: list[_Level] = [_Level(bottom)]
        # Recurse on segment first keys until a single segment remains.
        while len(self.levels[-1]) > 1:
            level = self.levels[-1]
            segs = build_pla_segments(
                level.first_keys,
                np.arange(len(level), dtype=np.float64),
                eps_internal,
            )
            self.levels.append(_Level(segs))

    @property
    def height(self) -> int:
        """Number of PLA levels (paths from root to data are equal)."""
        return len(self.levels)

    def search_bounds(self, key: int) -> SearchBounds:
        key = int(key)
        steps = 0
        segment = 0
        # Descend from the root level to the bottom level.
        for depth in range(len(self.levels) - 1, 0, -1):
            level = self.levels[depth]
            below = self.levels[depth - 1]
            pred = level.predict(segment, key)
            steps += 1
            segment = self._correct_segment(below, key, pred)
        bottom = self.levels[0]
        pred = bottom.predict(segment, key)
        steps += 1
        center = int(np.clip(pred, 0, self.n - 1))
        lo = max(center - self.eps, 0)
        hi = min(center + self.eps, self.n - 1)
        return SearchBounds(lo=lo, hi=hi, hint=center, evaluation_steps=steps)

    def _correct_segment(self, level: _Level, key: int, pred: float) -> int:
        """Find the segment of ``level`` containing ``key``.

        The prediction is off by at most ``eps_internal``; the true
        segment is the rightmost one whose first key is <= the query,
        located with binary search inside the ±eps window.
        """
        m = len(level)
        center = int(np.clip(pred, 0, m - 1))
        lo = max(center - self.eps_internal, 0)
        hi = min(center + self.eps_internal + 1, m)
        window = level.first_keys[lo:hi]
        idx = int(np.searchsorted(window, key, side="right")) - 1 + lo
        # The window guarantee only covers keys >= the first indexed
        # key; clamp for queries preceding the whole key space.
        return max(idx, 0)

    def pack(self):
        """Flatten the PLA levels for the kernel backends.

        The packed form is this index's batch lookup on every backend:
        each level's ±eps_internal window search runs batched, and the
        bottom level finishes with a window-restricted bounded search.
        Returns ``None`` (scalar fallback) only when the level stack
        has a non-kernel shape; any fitted PGM packs.
        """
        from ..kernels import PLA_DESCEND, pack_pla_levels

        return pack_pla_levels(
            self.name, PLA_DESCEND,
            [(lvl.first_keys, lvl.slopes, lvl.first_values)
             for lvl in self.levels],
            eps=self.eps, n=self.n, eps_internal=self.eps_internal,
        )

    def size_in_bytes(self) -> int:
        return sum(len(level) for level in self.levels) * SEGMENT_BYTES

    def stats(self) -> dict[str, Any]:
        base = super().stats()
        base.update(
            height=self.height,
            eps=self.eps,
            eps_internal=self.eps_internal,
            segments_per_level=[len(level) for level in self.levels],
        )
        return base
