"""RadixSpline (Kipf et al. [19]).

RadixSpline approximates the CDF with an error-bounded *linear spline*
fitted in a single pass (GreedySplineCorridor), then indexes the spline
points with a *radix table*: an array mapping every ``radix_bits``-bit
key prefix to the first spline point sharing that prefix.  A lookup

1. consults the radix table to narrow the range of candidate spline
   points,
2. binary-searches the two spline points surrounding the key,
3. interpolates linearly between them to get a position estimate, and
4. binary-searches the data within ±``max_error`` of the estimate
   (Section 3.1 of the paper under reproduction).

Like the original, the spline is built over unique keys with
first-occurrence positions, so duplicates (wiki) are supported.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .interfaces import OrderedIndex, SearchBounds

__all__ = ["RadixSpline", "greedy_spline_corridor"]


def greedy_spline_corridor(
    keys: np.ndarray, values: np.ndarray, max_error: int
) -> tuple[np.ndarray, np.ndarray]:
    """Single-pass greedy spline fit with error corridor ``max_error``.

    Returns the spline knots ``(xs, ys)``.  Interpolating between
    consecutive knots reproduces every input ``(key, value)`` within
    ``max_error``.  This is the GreedySplineCorridor algorithm: keep a
    corridor of feasible slopes from the last knot; emit a new knot when
    a point leaves the corridor.
    """
    n = len(keys)
    if n == 0:
        return np.array([], dtype=np.uint64), np.array([], dtype=np.float64)
    xs = [int(keys[0])]
    ys = [float(values[0])]
    if n == 1:
        return np.asarray(xs, dtype=np.uint64), np.asarray(ys, dtype=np.float64)

    base_x = float(keys[0])
    base_y = float(values[0])
    # Corridor of feasible chord slopes from the current base knot.  A
    # point is accepted when the *chord* from the base to it lies within
    # the corridor (then the chord is within max_error of every point
    # accepted so far); accepting it narrows the corridor by the point's
    # own error window.  On violation, the previously accepted point --
    # whose chord was verified -- becomes the next knot.
    # Distinct uint64 keys can collide to one float64 (ulp > 1 above
    # 2**53, e.g. keys near 2**64): a vertical chord bounds no slope,
    # so collided points are accepted with the corridor left open.  The
    # +-max_error guarantee cannot hold at collided x anyway; that is
    # safe because every consumer finishes through the escape-repairing
    # window search, which is correct for any window.
    prev_x, prev_y = float(keys[1]), float(values[1])
    prev_key = int(keys[1])
    dx = prev_x - base_x
    if dx > 0.0:
        slope_lo = (prev_y - max_error - base_y) / dx
        slope_hi = (prev_y + max_error - base_y) / dx
    else:
        slope_lo, slope_hi = float("-inf"), float("inf")

    for i in range(2, n):
        x = float(keys[i])
        y = float(values[i])
        dx = x - base_x
        # dx == 0 implies the corridor is open (the corridor is always
        # rebuilt from a point at or after the current x), so any
        # finite chord stands in for the unbounded vertical one.
        chord = (y - base_y) / dx if dx > 0.0 else 0.0
        if chord < slope_lo or chord > slope_hi:
            # Previous point becomes a knot; restart the corridor there.
            # Knots keep the exact integer key -- the rounded float
            # overflows uint64 at the very top of the key space.
            xs.append(prev_key)
            ys.append(prev_y)
            base_x, base_y = prev_x, prev_y
            dx = x - base_x
            if dx > 0.0:
                slope_lo = (y - max_error - base_y) / dx
                slope_hi = (y + max_error - base_y) / dx
            else:
                slope_lo, slope_hi = float("-inf"), float("inf")
        elif dx > 0.0:
            slope_lo = max(slope_lo, (y - max_error - base_y) / dx)
            slope_hi = min(slope_hi, (y + max_error - base_y) / dx)
        prev_x, prev_y = x, y
        prev_key = int(keys[i])
    xs.append(int(keys[-1]))
    ys.append(float(values[-1]))
    return np.asarray(xs, dtype=np.uint64), np.asarray(ys, dtype=np.float64)


class RadixSpline(OrderedIndex):
    """Single-pass learned index of Table 5.

    ``max_error`` bounds the data-level prediction error;
    ``radix_bits`` sizes the radix table (both paper hyperparameters).
    """

    name = "radix-spline"

    def __init__(self, keys: np.ndarray, max_error: int = 32, radix_bits: int = 18):
        super().__init__(keys)
        if max_error < 1:
            raise ValueError("max_error must be >= 1")
        if not 1 <= radix_bits <= 32:
            raise ValueError("radix_bits must be in [1, 32]")
        self.max_error = max_error
        self.radix_bits = radix_bits

        unique_keys, first_pos = np.unique(self.keys, return_index=True)
        self._spline_x, self._spline_y = greedy_spline_corridor(
            unique_keys, first_pos.astype(np.float64), max_error
        )

        # Radix table over the key prefix *after* the common prefix of
        # the key space (mirrors the reference implementation).
        lo = int(unique_keys[0])
        hi = int(unique_keys[-1])
        diff = lo ^ hi
        self._prefix_bits = 64 - diff.bit_length() if diff else 64
        self._shift = max(64 - self._prefix_bits - radix_bits, 0)
        table_slots = (self._radix_of(hi)) + 2
        prefixes = self._radix_of_batch(self._spline_x)
        # table[p] = first spline point whose prefix is >= p.
        self._table = np.searchsorted(
            prefixes, np.arange(table_slots, dtype=np.uint64), side="left"
        ).astype(np.int64)

    def _radix_of(self, key: int) -> int:
        mask = (1 << 64) - 1
        return ((key << self._prefix_bits) & mask) >> (
            self._prefix_bits + self._shift
        )

    def _radix_of_batch(self, keys: np.ndarray) -> np.ndarray:
        shifted = np.left_shift(keys, np.uint64(self._prefix_bits))
        return np.right_shift(shifted, np.uint64(self._prefix_bits + self._shift))

    def search_bounds(self, key: int) -> SearchBounds:
        key = int(key)
        if key <= int(self._spline_x[0]):
            return SearchBounds(lo=0, hi=0, hint=0, evaluation_steps=1)
        if key >= int(self._spline_x[-1]):
            center = int(self._spline_y[-1])
            lo = max(center - self.max_error, 0)
            return SearchBounds(
                lo=lo, hi=self.n - 1, hint=center, evaluation_steps=1
            )
        # (1) radix table narrows the spline-point range ...
        prefix = self._radix_of(key)
        begin = int(self._table[prefix])
        end = int(self._table[min(prefix + 1, len(self._table) - 1)])
        begin = max(begin - 1, 0)  # left knot may share the prior prefix
        end = min(max(end + 1, begin + 1), len(self._spline_x))
        # (2) ... binary search for the surrounding spline points ...
        idx = int(
            np.searchsorted(self._spline_x[begin:end], key, side="right")
        ) + begin
        left = max(idx - 1, 0)
        right = min(idx, len(self._spline_x) - 1)
        steps = 1 + max(int(np.ceil(np.log2(max(end - begin, 1) + 1))), 1)
        # (3) ... linear interpolation between them ...
        x0, x1 = float(self._spline_x[left]), float(self._spline_x[right])
        y0, y1 = float(self._spline_y[left]), float(self._spline_y[right])
        if x1 == x0:
            estimate = y0
        else:
            estimate = y0 + (y1 - y0) * (key - x0) / (x1 - x0)
        center = int(np.clip(estimate, 0, self.n - 1))
        # (4) ... ±max_error window for the data search.
        lo = max(center - self.max_error, 0)
        hi = min(center + self.max_error, self.n - 1)
        return SearchBounds(lo=lo, hi=hi, hint=center, evaluation_steps=steps)

    def pack(self):
        """Flatten the spline knots for the kernel backends.

        The batch lookup searches the knot array directly (the radix
        table is a scalar-path accelerator), interpolates every
        estimate and finishes with a window-restricted bounded search,
        so the packed form is the knot ``(x, y)`` pairs with an
        all-zero slopes array.
        """
        from ..kernels import PLA_SPLINE, pack_pla_levels

        return pack_pla_levels(
            self.name, PLA_SPLINE,
            [(self._spline_x, np.zeros(len(self._spline_x)),
              self._spline_y)],
            eps=self.max_error, n=self.n,
        )

    def size_in_bytes(self) -> int:
        """Spline knots (16 B each) plus the radix table (8 B slots)."""
        return len(self._spline_x) * 16 + len(self._table) * 8

    def stats(self) -> dict[str, Any]:
        base = super().stats()
        base.update(
            spline_points=len(self._spline_x),
            radix_bits=self.radix_bits,
            table_slots=len(self._table),
            max_error=self.max_error,
        )
        return base
