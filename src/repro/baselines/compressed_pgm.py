"""Compressed PGM-index (Ferragina & Vinciguerra [14]).

The PGM paper introduces a variant that compresses the segments; the
paper under reproduction mentions it alongside the dynamic variant
(Section 3.1).  We implement segment compression by quantizing the
bottom level's parameters -- slope and intercept to 32-bit floats --
which shrinks each segment from 24 to 16 bytes.

Quantization perturbs predictions, so the ε guarantee must be repaired:
after quantizing, the *actual* worst-case error of every key against
its quantized segment is measured and the search radius widened to
cover it.  The containment guarantee is therefore preserved exactly,
trading a slightly wider search window for a one-third smaller index --
the same trade the original makes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .interfaces import SearchBounds
from .pgm import PGMIndex

__all__ = ["CompressedPGMIndex"]

#: Compressed accounting: 8-byte first key + float32 slope + float32
#: intercept per bottom segment.
COMPRESSED_SEGMENT_BYTES = 16
#: Upper levels stay uncompressed (they are tiny).
PLAIN_SEGMENT_BYTES = 24


class CompressedPGMIndex(PGMIndex):
    """PGM-index with float32-quantized bottom-level segments."""

    name = "compressed-pgm"

    def __init__(self, keys: np.ndarray, eps: int = 64, eps_internal: int = 4):
        super().__init__(keys, eps=eps, eps_internal=eps_internal)
        bottom = self.levels[0]
        # Quantize in the anchored form the predictor uses, so the
        # quantization error analysis below matches evaluation exactly.
        bottom.slopes = bottom.slopes.astype(np.float32).astype(np.float64)
        bottom.first_values = bottom.first_values.astype(np.float32).astype(
            np.float64
        )
        self._effective_eps = eps + self._measure_extra_error()

    def _measure_extra_error(self) -> int:
        """Worst-case |prediction - position| beyond the original ε."""
        unique_keys, first_pos = np.unique(self.keys, return_index=True)
        bottom = self.levels[0]
        seg = np.searchsorted(bottom.first_keys, unique_keys,
                              side="right") - 1
        seg = np.clip(seg, 0, len(bottom) - 1)
        preds = bottom.first_values[seg] + bottom.slopes[seg] * (
            unique_keys.astype(np.float64)
            - bottom.first_keys[seg].astype(np.float64)
        )
        err = np.abs(preds - first_pos.astype(np.float64))
        worst = float(err.max()) if len(err) else 0.0
        return max(int(np.ceil(worst)) - self.eps, 0)

    def search_bounds(self, key: int) -> SearchBounds:
        b = super().search_bounds(key)
        widen = self._effective_eps - self.eps
        if widen <= 0:
            return b
        return SearchBounds(
            lo=max(b.lo - widen, 0),
            hi=min(b.hi + widen, self.n - 1),
            hint=b.hint,
            evaluation_steps=b.evaluation_steps,
        )

    def pack(self):
        """Pack with the *effective* (quantization-repaired) ε.

        The instance levels already hold the quantized slopes and
        intercepts, so the only delta against ``PGMIndex.pack`` is the
        widened bottom window, which every backend's batch lookup then
        searches.
        """
        from ..kernels import PLA_DESCEND, pack_pla_levels

        return pack_pla_levels(
            self.name, PLA_DESCEND,
            [(lvl.first_keys, lvl.slopes, lvl.first_values)
             for lvl in self.levels],
            eps=self._effective_eps, n=self.n,
            eps_internal=self.eps_internal,
        )

    def size_in_bytes(self) -> int:
        bottom = len(self.levels[0]) * COMPRESSED_SEGMENT_BYTES
        upper = sum(len(l) for l in self.levels[1:]) * PLAIN_SEGMENT_BYTES
        return bottom + upper

    def stats(self) -> dict[str, Any]:
        base = super().stats()
        base.update(
            name=self.name,
            effective_eps=self._effective_eps,
            compression_ratio=round(
                super().size_in_bytes() / max(self.size_in_bytes(), 1), 3
            ),
        )
        return base
