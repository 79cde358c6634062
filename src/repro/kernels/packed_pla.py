"""Flat, kernel-ready packing of piecewise-linear-approximation indexes.

The PLA family -- PGM-index, CompressedPGM, RadixSpline, FITing-Tree --
shares one evaluation shape: route a query to a segment (or spline
knot), evaluate one linear model, search a ±eps window around the
estimate.  :class:`PackedPLA` flattens that shape into contiguous SoA
arrays every backend's batch lookup walks -- the C backend
(:mod:`repro.kernels.cext_backend`) without touching Python objects:
all levels' segment first-keys / slopes / intercepts
concatenated with per-level offsets (bottom level first), plus the two
window radii.

Three routing/evaluation kinds cover the four indexes:

``PLA_DESCEND``
    PGM-style multi-level descent: start at the (single-segment) top
    level, predict the next level's segment, correct it with a bounded
    search in a ±eps_internal window, repeat; the bottom level is an
    anchored evaluation ``icept + slope * (q - first_key)`` with a ±eps
    data window.  Covers ``PGMIndex`` and ``CompressedPGMIndex`` (which
    packs its *effective* widened eps).
``PLA_SEGMENT``
    Single-level predecessor routing (``searchsorted(..., "right") - 1``
    over the segment first-keys) + anchored evaluation; queries before
    the first segment get the ``[0, 0]`` window.  Covers ``FITingTree``.
``PLA_SPLINE``
    Single-level upper-bound knot location + linear interpolation
    between the bracketing knots.  Covers ``RadixSpline`` (whose batch
    path searches the spline array directly; the radix table is a
    scalar-path accelerator).

Like :func:`repro.kernels.packed.pack_rmi`, packing copies parameter
values verbatim -- every backend runs the NumPy backend's arithmetic on
these arrays, so windows (and therefore the per-index cost profile) are
bit-identical across backends.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .binding import Bindable

__all__ = [
    "PackedPLA",
    "PLA_DESCEND",
    "PLA_SEGMENT",
    "PLA_SPLINE",
    "pack_pla_levels",
]

#: Routing/evaluation kinds (see module docstring).
PLA_DESCEND = 0
PLA_SEGMENT = 1
PLA_SPLINE = 2

_KINDS = (PLA_DESCEND, PLA_SEGMENT, PLA_SPLINE)


@dataclass(frozen=True)
class PackedPLA(Bindable):
    """One PLA index as flat arrays, ready for a compiled lookup kernel.

    Level ``d`` occupies rows ``offsets[d]:offsets[d+1]`` of
    ``seg_keys``/``slopes``/``icepts``; level 0 is the bottom (data)
    level, the last level is the root.  ``eps`` is the bottom data
    window radius, ``eps_internal`` the upper-level segment window
    radius (unused for the single-level kinds).  For ``PLA_SPLINE``
    the slopes array is all-zero: evaluation interpolates between the
    bracketing ``(seg_keys, icepts)`` knots instead.
    """

    #: Dispatch tag consumed by ``KernelBackend.lookup``/``serve``.
    packed_kind = "pla"

    #: The fields of the C ``pla_run`` struct, ``pla_serve``'s argument
    #: run after ``(keys, n)``.
    KERNEL_RUN = (
        ("seg_keys", np.uint64), ("slopes", np.float64),
        ("icepts", np.float64), ("offsets", np.int64),
        ("num_levels", ctypes.c_int64), ("kind", ctypes.c_int32),
        ("eps", ctypes.c_int64), ("eps_internal", ctypes.c_int64),
    )

    family: str          # index name, e.g. "pgm-index" (reporting)
    kind: int            # PLA_DESCEND / PLA_SEGMENT / PLA_SPLINE
    seg_keys: np.ndarray  # (total_segments,) uint64
    slopes: np.ndarray   # (total_segments,) float64
    icepts: np.ndarray   # (total_segments,) float64
    offsets: np.ndarray  # (num_levels + 1,) int64, level 0 = bottom
    eps: int             # bottom-level data window radius
    eps_internal: int    # upper-level segment window radius
    n: int               # number of indexed keys

    @property
    def num_levels(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_segments(self) -> int:
        return len(self.seg_keys)

    def check_lengths(self) -> None:
        offsets = self.offsets
        if self.kind not in _KINDS:
            raise ValueError(f"unknown PackedPLA kind {self.kind}")
        if self.num_levels < 1 or offsets[0] != 0 \
                or np.any(offsets[1:] <= offsets[:-1]):
            raise ValueError("PackedPLA offsets must start at 0 and give "
                             "every level a segment")
        total = int(offsets[-1])
        if not len(self.seg_keys) == len(self.slopes) == len(self.icepts) \
                == total:
            raise ValueError("PackedPLA segment arrays disagree with its "
                             "offsets")


def pack_pla_levels(
    family: str,
    kind: int,
    levels: "list[tuple[np.ndarray, np.ndarray, np.ndarray]]",
    eps: int,
    n: int,
    eps_internal: int = 0,
) -> "PackedPLA | None":
    """Flatten per-level ``(first_keys, slopes, icepts)`` triples.

    ``levels`` is ordered bottom (data) level first, root last --
    matching ``PGMIndex.levels``.  Returns ``None`` (soft fallback to
    the staged path, mirroring ``pack_rmi``'s contract) when the shape
    is not kernel-compatible: no levels, an empty level, a multi-level
    stack for a single-level kind, or a multi-segment root.
    """
    if kind not in _KINDS or not levels or eps < 0 or n < 1:
        return None
    if kind != PLA_DESCEND and len(levels) != 1:
        return None
    seg_keys, slopes, icepts, sizes = [], [], [], []
    for level_keys, level_slopes, level_icepts in levels:
        size = len(level_keys)
        if size == 0 or len(level_slopes) != size or len(level_icepts) != size:
            return None
        seg_keys.append(np.ascontiguousarray(level_keys, dtype=np.uint64))
        slopes.append(np.ascontiguousarray(level_slopes, dtype=np.float64))
        icepts.append(np.ascontiguousarray(level_icepts, dtype=np.float64))
        sizes.append(size)
    if kind == PLA_DESCEND and sizes[-1] != 1:
        return None  # descent starts from a single root segment
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return PackedPLA(
        family=str(family),
        kind=int(kind),
        seg_keys=np.concatenate(seg_keys),
        slopes=np.concatenate(slopes),
        icepts=np.concatenate(icepts),
        offsets=offsets,
        eps=int(eps),
        eps_internal=int(eps_internal),
        n=int(n),
    )
