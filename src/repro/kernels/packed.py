"""Flat, kernel-ready packing of a trained RMI.

The compiled backend (:mod:`repro.kernels.cext_backend`) cannot walk
Python objects, so a trained :class:`~repro.core.rmi.RMI` is flattened
once into a :class:`PackedRMI`: every layer's SoA ``(codes, params)``
arrays concatenated into one table with per-layer offsets, the Equation-3
routing scales precomputed per layer, and the error bounds normalized
to one of three shapes (none / per-model / global).  The packing is a
*view-level* transformation -- parameter values are copied verbatim, so
any kernel that replays the reference arithmetic on the packed arrays
produces bit-identical predictions.

Packing fails soft (:func:`pack_rmi` returns ``None``) whenever the RMI
uses a representation the kernels do not understand: object-mode layers
(``grouped_fit=False`` reference builds, unregistered model types),
model families outside :data:`PACKABLE_MODEL_CODES`, or a custom
:class:`~repro.core.bounds.ErrorBounds` subclass.  Callers fall back to
the staged NumPy path in that case, so correctness never depends on
packability.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from ..core.models import (
    SOA_MODEL_CODES,
    ConstantModel,
    CubicSpline,
    LinearRegression,
    LinearSpline,
    Radix,
)
from .binding import Bindable

__all__ = ["PackedRMI", "pack_rmi", "PACKABLE_MODEL_CODES"]

#: SoA codes (:data:`~repro.core.models.SOA_MODEL_CODES`) of the model
#: families the compiled kernels can evaluate: Table 2's and the
#: constant.  Extension families (LogLinear etc.) fall back to the
#: NumPy path.
PACKABLE_MODEL_CODES = frozenset(
    SOA_MODEL_CODES[cls] for cls in (ConstantModel, LinearRegression,
                                     LinearSpline, CubicSpline, Radix)
)

#: Bounds shapes understood by the kernels.
BOUNDS_NONE = 0       # no stored bounds: search the whole array
BOUNDS_PER_MODEL = 1  # blo/bhi indexed by leaf model id
BOUNDS_GLOBAL = 2     # blo/bhi are length-1 arrays


@dataclass(frozen=True)
class PackedRMI(Bindable):
    """One RMI as flat arrays, ready for a compiled lookup kernel.

    ``codes``/``params`` are all layers' SoA tables concatenated in
    layer order; layer ``d`` occupies rows ``offsets[d]:offsets[d+1]``.
    ``scales[d]`` is the Equation-3 factor ``layer_sizes[d+1] / n``
    applied when the RMI was *not* trained on pre-scaled model indexes
    (``scaled`` false).  ``bkind``/``blo``/``bhi`` normalize all five
    Table-3 bound strategies: signed interval offsets added to the
    clamped prediction, indexed per leaf model (``BOUNDS_PER_MODEL``)
    or broadcast from row 0 (``BOUNDS_GLOBAL``).
    """

    #: Dispatch tag consumed by ``KernelBackend.lookup``/``serve``.
    packed_kind = "rmi"

    #: The fields of the C ``rmi_run`` struct, the RMI kernels' argument
    #: run after ``(keys, n)``.
    KERNEL_RUN = (
        ("codes", np.int8), ("params", np.float64), ("offsets", np.int64),
        ("num_layers", ctypes.c_int64), ("scales", np.float64),
        ("scaled", ctypes.c_int32), ("bkind", ctypes.c_int32),
        ("blo", np.int64), ("bhi", np.int64),
    )

    codes: np.ndarray    # (total_models,) int8
    params: np.ndarray   # (total_models, 6) float64, C-contiguous
    offsets: np.ndarray  # (num_layers + 1,) int64
    scales: np.ndarray   # (num_layers - 1,) float64
    scaled: bool         # train_on_model_index
    n: int               # number of indexed keys
    bkind: int           # BOUNDS_NONE / BOUNDS_PER_MODEL / BOUNDS_GLOBAL
    blo: np.ndarray      # (num_leaves,) or (1,) int64 signed lo offsets
    bhi: np.ndarray      # (num_leaves,) or (1,) int64 signed hi offsets

    @property
    def num_layers(self) -> int:
        return len(self.offsets) - 1

    def check_lengths(self) -> None:
        offsets = self.offsets
        if self.num_layers < 1 or offsets[0] != 0 \
                or np.any(offsets[1:] <= offsets[:-1]):
            raise ValueError("PackedRMI offsets must start at 0 and give "
                             "every layer a model")
        rows = int(offsets[-1])
        if len(self.codes) != rows or self.params.shape != (rows, 6) \
                or len(self.scales) != self.num_layers - 1:
            raise ValueError("PackedRMI codes, params and scales disagree "
                             "with its offsets")
        bound_rows = {BOUNDS_NONE: 0, BOUNDS_GLOBAL: 1,
                      BOUNDS_PER_MODEL: rows - int(offsets[-2])}
        if self.bkind not in bound_rows:
            raise ValueError(f"unknown PackedRMI bounds kind {self.bkind}")
        need = bound_rows[self.bkind]
        if len(self.blo) < need or len(self.bhi) < need:
            raise ValueError("PackedRMI bounds are shorter than its leaves")


def _pack_bounds(bounds, num_leaves: int):
    """Normalize an ErrorBounds instance to ``(bkind, blo, bhi)``.

    Returns ``None`` for unknown subclasses (custom bounds fall back to
    the NumPy path, whose ``intervals`` contract they implement).
    """
    from ..core.bounds import (
        GlobalAbsoluteBounds,
        GlobalIndividualBounds,
        LocalAbsoluteBounds,
        LocalIndividualBounds,
        NoBounds,
    )

    one = np.zeros(1, dtype=np.int64)
    if type(bounds) is NoBounds:
        return BOUNDS_NONE, one, one
    if type(bounds) is LocalIndividualBounds:
        return (
            BOUNDS_PER_MODEL,
            np.ascontiguousarray(bounds.min_err, dtype=np.int64),
            np.ascontiguousarray(bounds.max_err, dtype=np.int64),
        )
    if type(bounds) is LocalAbsoluteBounds:
        abs_err = np.ascontiguousarray(bounds.abs_err, dtype=np.int64)
        return BOUNDS_PER_MODEL, -abs_err, abs_err
    if type(bounds) is GlobalIndividualBounds:
        return (
            BOUNDS_GLOBAL,
            np.asarray([bounds.min_err], dtype=np.int64),
            np.asarray([bounds.max_err], dtype=np.int64),
        )
    if type(bounds) is GlobalAbsoluteBounds:
        e = int(bounds.abs_err)
        return (
            BOUNDS_GLOBAL,
            np.asarray([-e], dtype=np.int64),
            np.asarray([e], dtype=np.int64),
        )
    return None


def pack_rmi(rmi) -> "PackedRMI | None":
    """Flatten ``rmi`` into a :class:`PackedRMI`, or ``None``.

    ``None`` means "not kernel-compatible" -- the caller keeps using the
    staged NumPy batch path.  The result aliases the layer parameter
    arrays where possible; treat it as immutable (``RMI`` re-packs when
    a layer or the bounds object changes).
    """
    layer_codes = []
    layer_params = []
    for layer in rmi.layers:
        codes = getattr(layer, "codes", None)
        params = getattr(layer, "params", None)
        if codes is None or params is None:
            return None  # object-mode layer (reference build / extension)
        if len(codes) and not np.isin(
            codes, np.asarray(sorted(PACKABLE_MODEL_CODES), dtype=codes.dtype)
        ).all():
            return None  # model family outside the compiled set
        layer_codes.append(np.ascontiguousarray(codes, dtype=np.int8))
        layer_params.append(np.ascontiguousarray(params, dtype=np.float64))

    packed_bounds = _pack_bounds(rmi.bounds, rmi.layer_sizes[-1])
    if packed_bounds is None:
        return None
    bkind, blo, bhi = packed_bounds

    fanouts = [len(c) for c in layer_codes]
    offsets = np.zeros(len(fanouts) + 1, dtype=np.int64)
    np.cumsum(fanouts, out=offsets[1:])
    n = int(rmi.n)
    # Equation 3's scale factor, computed exactly as _assignments does
    # (one Python float division per layer) so kernels multiplying by
    # ``scales[d]`` reproduce the NumPy routing bit for bit.
    scales = np.asarray(
        [fanouts[d + 1] / max(n, 1) for d in range(len(fanouts) - 1)],
        dtype=np.float64,
    )
    return PackedRMI(
        codes=np.concatenate(layer_codes) if layer_codes else
        np.zeros(0, dtype=np.int8),
        params=np.concatenate(layer_params) if layer_params else
        np.zeros((0, 6), dtype=np.float64),
        offsets=offsets,
        scales=scales,
        scaled=bool(rmi.train_on_model_index),
        n=n,
        bkind=bkind,
        blo=blo,
        bhi=bhi,
    )
