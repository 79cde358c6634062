"""Model types used inside recursive model indexes.

This module implements the four model families evaluated in the paper
(Table 2):

===== ===================== ===========================================
Abrv. Method                Formula
===== ===================== ===========================================
LR    Linear regression     ``f(x) = a*x + b`` (least squares)
LS    Linear spline         ``f(x) = a*x + b`` (through the endpoints)
CS    Cubic spline          ``f(x) = a*x^3 + b*x^2 + c*x + d``
RX    Radix                 ``f(x) = (x << a) >> b``
===== ===================== ===========================================

All models map a 64-bit unsigned integer key to a (floating point)
position estimate.  Every model fitted on keys with monotonically
non-decreasing targets is itself monotonically non-decreasing, a property
the optimized RMI training algorithm (Section 4.1 of the paper) relies on:
monotonic models never produce overlapping segments, so key ranges can be
represented by ``(lo, hi)`` index pairs instead of copied arrays.

Models are fitted via :meth:`Model.fit` on ``(keys, targets)`` pairs where
``targets`` is typically either the position of the key in the sorted
array (classic RMI training) or the pre-scaled next-layer model index
(the paper's optimized inner-layer training, Section 4.1).

Two representations coexist:

* **per-model objects** -- one :class:`Model` instance per segment, the
  reference (Listing 1) representation; and
* **struct-of-arrays (SoA) parameter tables** -- one parameter matrix
  per layer.  Closed-form model families additionally provide
  ``fit_grouped(keys, targets, offsets)``, which fits *every* segment
  of a layer in a handful of array operations (sufficient statistics
  via ``np.add.reduceat``, endpoint gathers for the splines) instead of
  a Python loop over segments.  The SoA registry
  (:data:`SOA_MODEL_CODES`, :meth:`Model.soa_row`,
  :meth:`Model.eval_soa`) lets layer tables materialize individual
  model objects lazily and evaluate whole layers with gathers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, ClassVar, Type

import numpy as np

__all__ = [
    "Model",
    "ConstantModel",
    "LinearRegression",
    "LinearSpline",
    "CubicSpline",
    "Radix",
    "AutoModel",
    "MODEL_TYPES",
    "resolve_model_type",
    "SOA_PARAM_COLUMNS",
    "SOA_MODEL_CODES",
    "SOA_CODE_MODELS",
    "GROUPED_FITTERS",
    "register_soa_model",
    "grouped_fitter",
]

#: Number of bits in the key type.  The paper (and SOSD) use 64-bit
#: unsigned integer keys throughout.
KEY_BITS = 64


def _as_float(keys: np.ndarray) -> np.ndarray:
    """Convert a key array to float64 for arithmetic model evaluation."""
    return np.asarray(keys, dtype=np.float64)


#: Width of a struct-of-arrays parameter row, in float64 columns.  Wide
#: enough for the largest registered model (CubicSpline: 6 fields).
SOA_PARAM_COLUMNS = 6

#: Model class -> small integer code used in SoA layer tables (and in
#: the files of ``core/serialize.py``, which stores those tables).
SOA_MODEL_CODES: dict[Type["Model"], int] = {}

#: Inverse of :data:`SOA_MODEL_CODES`.
SOA_CODE_MODELS: dict[int, Type["Model"]] = {}

#: Code -> per-instance parameter size in bytes (Table 2 accounting).
SOA_MODEL_SIZES: dict[int, int] = {}

#: Model class -> grouped closed-form fitter.  Keyed by *exact* class so
#: subclasses with overridden ``fit`` never silently inherit a grouped
#: path that disagrees with their per-segment semantics.
GROUPED_FITTERS: dict[Type["Model"], Callable] = {}


def register_soa_model(cls: Type["Model"], code: int) -> None:
    """Register ``cls`` for struct-of-arrays layer storage.

    Requires a frozen-dataclass model with at most
    :data:`SOA_PARAM_COLUMNS` fields and an ``eval_soa`` implementation.
    """
    if code in SOA_CODE_MODELS and SOA_CODE_MODELS[code] is not cls:
        raise ValueError(f"SoA code {code} already taken by {SOA_CODE_MODELS[code]}")
    SOA_MODEL_CODES[cls] = code
    SOA_CODE_MODELS[code] = cls
    SOA_MODEL_SIZES[code] = cls().size_in_bytes()


def grouped_fitter(model_type: Type["Model"], cs_fallback: bool = True) -> "Callable | None":
    """Return the grouped fitter for ``model_type``, or ``None``.

    ``CubicSpline`` with the reference fallback enabled dispatches to
    :meth:`CubicSpline.fit_grouped_with_fallback`, matching what the
    per-segment path does via ``fit_with_fallback``.
    """
    if model_type is CubicSpline and cs_fallback:
        return CubicSpline.fit_grouped_with_fallback
    return GROUPED_FITTERS.get(model_type)


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``values`` under the ``offsets`` segmentation.

    ``offsets`` has one entry per segment boundary (``fanout + 1``
    entries, ``offsets[-1] == len(values)``); empty segments sum to 0.

    ``np.add.reduceat`` alone cannot express empty segments (for
    ``idx[i] == idx[i+1]`` it returns ``values[idx[i]]``, and clipping
    a trailing ``len(values)`` start corrupts the preceding segment),
    so we reduce only at the starts of non-empty segments: consecutive
    non-empty starts are exact segment boundaries, and the last
    non-empty segment runs to ``len(values)`` — exactly reduceat's
    final-segment rule.
    """
    counts = np.diff(offsets)
    out = np.zeros(len(counts), dtype=np.float64)
    nonempty = counts > 0
    if np.any(nonempty):
        out[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty])
    return out


def _segment_max(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment maxima of ``values``; empty segments yield 0."""
    counts = np.diff(offsets)
    out = np.zeros(len(counts), dtype=np.float64)
    nonempty = counts > 0
    if np.any(nonempty):
        out[nonempty] = np.maximum.reduceat(values, offsets[:-1][nonempty])
    return out


class Model:
    """Abstract base class of all RMI component models.

    Subclasses implement :meth:`fit` (training), :meth:`predict_batch`
    (vectorized evaluation) and :meth:`size_in_bytes` (the contribution of
    one model instance to the index size, following the accounting of
    Table 2: one IEEE double per stored coefficient).
    """

    #: Short lowercase identifier, e.g. ``"lr"`` (set by subclasses).
    abbreviation: ClassVar[str] = "?"

    #: Relative cost of evaluating the model once; consumed by the
    #: analytic cost model (``repro.cost``).  Unit: multiply-adds.
    eval_cost_units: ClassVar[float] = 1.0

    @classmethod
    def fit(cls, keys: np.ndarray, targets: np.ndarray) -> "Model":
        """Train a model on ``keys`` (sorted ``uint64``) and ``targets``.

        ``keys`` and ``targets`` must have equal length.  Fitting an empty
        segment returns a model that predicts 0 everywhere, mirroring the
        reference implementation's behaviour for empty second-layer
        models.
        """
        raise NotImplementedError

    def predict(self, key: int) -> float:
        """Evaluate the model on a single key."""
        return float(self.predict_batch(np.asarray([key], dtype=np.uint64))[0])

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        """Evaluate the model on an array of keys, returning float64."""
        raise NotImplementedError

    def size_in_bytes(self) -> int:
        """Size of this model's parameters in bytes."""
        raise NotImplementedError

    def is_monotonic(self) -> bool:
        """Whether the fitted model is monotonically non-decreasing."""
        raise NotImplementedError

    # -- struct-of-arrays interface ------------------------------------
    #
    # Registered dataclass model types (see ``register_soa_model``) can
    # round-trip through a fixed-width float64 parameter row and be
    # evaluated straight from a parameter matrix without materializing
    # per-segment objects.  The row layout is the dataclass field order,
    # zero-padded to ``SOA_PARAM_COLUMNS``.

    def soa_row(self) -> np.ndarray:
        """This model's parameters as a zero-padded float64 row."""
        row = np.zeros(SOA_PARAM_COLUMNS, dtype=np.float64)
        for i, field in enumerate(dataclasses.fields(self)):
            row[i] = float(getattr(self, field.name))
        return row

    @classmethod
    def from_soa_row(cls, row: np.ndarray) -> "Model":
        """Rebuild a model instance from its parameter row."""
        values = []
        for i, field in enumerate(dataclasses.fields(cls)):
            raw = float(row[i])
            values.append(int(raw) if field.type == "int" else raw)
        return cls(*values)

    @classmethod
    def eval_soa(cls, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Evaluate one model *per key*: ``rows[i]`` applied to ``keys[i]``.

        ``rows`` is a ``(len(keys), SOA_PARAM_COLUMNS)`` float64 gather
        of the layer's parameter table.  Must match ``predict_batch``
        bit for bit on every row/key pair.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantModel(Model):
    """Degenerate model predicting a constant.

    Used for empty segments (no keys assigned to a second-layer model)
    and as the zero-key / one-key fallback of the spline models.
    """

    value: float = 0.0

    abbreviation: ClassVar[str] = "const"
    eval_cost_units: ClassVar[float] = 0.5

    @classmethod
    def fit(cls, keys: np.ndarray, targets: np.ndarray) -> "ConstantModel":
        if len(targets) == 0:
            return cls(0.0)
        return cls(float(np.mean(targets)))

    @classmethod
    def fit_grouped(
        cls, keys: np.ndarray, targets: np.ndarray, offsets: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Fit every segment at once; returns ``(codes, params)``."""
        counts = np.diff(offsets)
        y = np.asarray(targets, dtype=np.float64)
        sums = _segment_sums(y, offsets)
        params = np.zeros((len(counts), SOA_PARAM_COLUMNS), dtype=np.float64)
        nonempty = counts > 0
        params[nonempty, 0] = sums[nonempty] / counts[nonempty]
        codes = np.full(len(counts), SOA_MODEL_CODES[cls], dtype=np.int8)
        return codes, params

    @classmethod
    def eval_soa(cls, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        return rows[:, 0].copy()

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        return np.full(len(keys), self.value, dtype=np.float64)

    def size_in_bytes(self) -> int:
        return 8

    def is_monotonic(self) -> bool:
        return True


@dataclass(frozen=True)
class LinearRegression(Model):
    """Least-squares linear model ``f(x) = slope * x + intercept``.

    Unlike the spline models, LR considers *all* keys during training
    (it minimizes the mean squared error), which the paper identifies as
    the reason for its higher training cost (Section 7, Figure 11a).

    ``trim`` optionally ignores the lowest and highest ``trim`` fraction
    of keys during fitting.  The paper (Section 6.1) attributes the good
    fb numbers of prior work to exactly such a variant (trim = 0.0001,
    i.e. 0.01 %); we expose it to reproduce that discussion.
    """

    slope: float = 0.0
    intercept: float = 0.0

    abbreviation: ClassVar[str] = "lr"
    eval_cost_units: ClassVar[float] = 1.0

    @classmethod
    def fit(
        cls,
        keys: np.ndarray,
        targets: np.ndarray,
        trim: float = 0.0,
    ) -> "LinearRegression":
        n = len(keys)
        if n == 0:
            return cls(0.0, 0.0)
        if trim > 0.0 and n > 2:
            cut = int(n * trim)
            if cut > 0 and n - 2 * cut >= 2:
                keys = keys[cut : n - cut]
                targets = targets[cut : n - cut]
                n = len(keys)
        if n == 1:
            return cls(0.0, float(targets[0]))
        x = _as_float(keys)
        y = np.asarray(targets, dtype=np.float64)
        # Center x for numerical stability: 64-bit keys squared overflow
        # the exactly-representable range of float64 by a wide margin.
        mx = x.mean()
        my = y.mean()
        dx = x - mx
        denom = float(np.dot(dx, dx))
        if denom == 0.0:
            # All keys identical (duplicates collapse): constant model.
            return cls(0.0, my)
        slope = float(np.dot(dx, y - my) / denom)
        intercept = my - slope * mx
        return cls(slope, intercept)

    @classmethod
    def fit_grouped(
        cls, keys: np.ndarray, targets: np.ndarray, offsets: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Least-squares fit of every segment from grouped statistics.

        Uses the same centered normal equations as :meth:`fit`, with all
        per-segment sums taken by ``np.add.reduceat``, which adds a
        segment's first element to NumPy's pairwise sum of the rest.
        Parameters agree with the per-segment path up to summation order
        (``np.mean`` sums the whole segment pairwise, ``np.dot`` in
        BLAS's order), i.e. to within a few ulp — cumsum differencing is
        deliberately *not* used because cancellation on ~2^63-magnitude
        keys would bias the OLS denominator.  The C backend's leaf-fit
        kernel replays reduceat's order exactly, so its parameters are
        bit-identical to these.
        """
        counts = np.diff(offsets)
        fanout = len(counts)
        x = _as_float(keys)
        y = np.asarray(targets, dtype=np.float64)
        nonempty = counts > 0
        codes = np.where(
            nonempty, SOA_MODEL_CODES[cls], SOA_MODEL_CODES[ConstantModel]
        ).astype(np.int8)
        params = np.zeros((fanout, SOA_PARAM_COLUMNS), dtype=np.float64)
        if not np.any(nonempty):
            return codes, params
        safe = np.maximum(counts, 1).astype(np.float64)
        mx = _segment_sums(x, offsets) / safe
        my = _segment_sums(y, offsets) / safe
        seg = np.repeat(np.arange(fanout), counts)
        dx = x - mx[seg]
        dy = y - my[seg]
        denom = _segment_sums(dx * dx, offsets)
        num = _segment_sums(dx * dy, offsets)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(denom > 0.0, num / denom, 0.0)
        # All-duplicate (denom == 0) and single-key segments collapse to
        # slope 0, intercept my — exactly the scalar path's fallbacks.
        intercept = my - slope * mx
        params[nonempty, 0] = slope[nonempty]
        params[nonempty, 1] = intercept[nonempty]
        return codes, params

    @classmethod
    def eval_soa(cls, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        return rows[:, 0] * _as_float(keys) + rows[:, 1]

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        return self.slope * _as_float(keys) + self.intercept

    def size_in_bytes(self) -> int:
        return 16  # two doubles

    def is_monotonic(self) -> bool:
        return self.slope >= 0.0


@dataclass(frozen=True)
class LinearSpline(Model):
    """Linear spline segment through the leftmost and rightmost points.

    Training touches only two data points, which makes LS dramatically
    cheaper to train than LR (Section 7) at a usually small accuracy
    penalty; evaluation cost is identical to LR.
    """

    slope: float = 0.0
    intercept: float = 0.0

    abbreviation: ClassVar[str] = "ls"
    eval_cost_units: ClassVar[float] = 1.0

    @classmethod
    def fit(cls, keys: np.ndarray, targets: np.ndarray) -> "LinearSpline":
        n = len(keys)
        if n == 0:
            return cls(0.0, 0.0)
        x0 = float(keys[0])
        y0 = float(targets[0])
        if n == 1 or float(keys[-1]) == x0:
            return cls(0.0, y0)
        x1 = float(keys[-1])
        y1 = float(targets[-1])
        slope = (y1 - y0) / (x1 - x0)
        return cls(slope, y0 - slope * x0)

    @classmethod
    def fit_grouped(
        cls, keys: np.ndarray, targets: np.ndarray, offsets: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Endpoint fit of every segment via two gathers.

        Elementwise identical formulas to :meth:`fit`, so the grouped
        parameters are bit-exact equal to the per-segment ones.
        """
        counts = np.diff(offsets)
        fanout = len(counts)
        x = _as_float(keys)
        y = np.asarray(targets, dtype=np.float64)
        nonempty = counts > 0
        codes = np.where(
            nonempty, SOA_MODEL_CODES[cls], SOA_MODEL_CODES[ConstantModel]
        ).astype(np.int8)
        params = np.zeros((fanout, SOA_PARAM_COLUMNS), dtype=np.float64)
        if not np.any(nonempty):
            return codes, params
        first = offsets[:-1][nonempty]
        last = offsets[1:][nonempty] - 1
        x0, y0 = x[first], y[first]
        x1, y1 = x[last], y[last]
        degenerate = x1 == x0  # single-key and all-duplicate segments
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(degenerate, 0.0, (y1 - y0) / (x1 - x0))
        intercept = np.where(degenerate, y0, y0 - slope * x0)
        params[nonempty, 0] = slope
        params[nonempty, 1] = intercept
        return codes, params

    @classmethod
    def eval_soa(cls, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        return rows[:, 0] * _as_float(keys) + rows[:, 1]

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        return self.slope * _as_float(keys) + self.intercept

    def size_in_bytes(self) -> int:
        return 16

    def is_monotonic(self) -> bool:
        return self.slope >= 0.0


@dataclass(frozen=True)
class CubicSpline(Model):
    """Monotone cubic Hermite segment through the endpoints.

    Follows the reference implementation: a cubic is fit through the
    leftmost and rightmost data points with endpoint tangents estimated
    from the adjacent points; tangents are limited (Fritsch–Carlson) so
    that the segment remains monotone.  Keys are normalized to ``[0, 1]``
    before fitting to keep the cubic numerically sane on 64-bit keys.

    The reference implementation additionally trains a linear spline and
    falls back to it when the cubic has a higher maximum error (paper,
    footnote 1); that logic lives in :meth:`fit_with_fallback`.
    """

    # f(t) = a3*t^3 + a2*t^2 + a1*t + a0 on normalized t = (x-x0)/(x1-x0)
    a3: float = 0.0
    a2: float = 0.0
    a1: float = 0.0
    a0: float = 0.0
    x_offset: float = 0.0
    x_scale: float = 0.0  # 1 / (x1 - x0); zero means degenerate/constant

    abbreviation: ClassVar[str] = "cs"
    eval_cost_units: ClassVar[float] = 2.0

    @classmethod
    def fit(cls, keys: np.ndarray, targets: np.ndarray) -> "CubicSpline":
        n = len(keys)
        if n == 0:
            return cls()
        x0 = float(keys[0])
        y0 = float(targets[0])
        if n == 1 or float(keys[-1]) == x0:
            return cls(a0=y0, x_offset=x0, x_scale=0.0)
        x1 = float(keys[-1])
        y1 = float(targets[-1])
        scale = 1.0 / (x1 - x0)
        dy = y1 - y0
        # Endpoint tangents from the immediately adjacent interior points,
        # expressed in normalized coordinates (dt per unit t).
        m0 = cls._endpoint_slope(keys, targets, 0, x0, x1, scale)
        m1 = cls._endpoint_slope(keys, targets, n - 1, x0, x1, scale)
        # Fritsch-Carlson limiting keeps the Hermite segment monotone.
        if dy == 0.0:
            m0 = m1 = 0.0
        else:
            limit = 3.0 * dy
            m0 = min(max(m0, 0.0), limit) if dy > 0 else max(min(m0, 0.0), limit)
            m1 = min(max(m1, 0.0), limit) if dy > 0 else max(min(m1, 0.0), limit)
        # Hermite basis on t in [0, 1]:
        #   f(t) = y0*h00 + m0*h10 + y1*h01 + m1*h11
        a3 = 2.0 * y0 + m0 - 2.0 * y1 + m1
        a2 = -3.0 * y0 - 2.0 * m0 + 3.0 * y1 - m1
        a1 = m0
        a0 = y0
        return cls(a3, a2, a1, a0, x_offset=x0, x_scale=scale)

    @staticmethod
    def _endpoint_slope(
        keys: np.ndarray,
        targets: np.ndarray,
        at: int,
        x0: float,
        x1: float,
        scale: float,
    ) -> float:
        """Tangent estimate at the first or last point, in t-space."""
        n = len(keys)
        neighbour = 1 if at == 0 else n - 2
        xa = float(keys[at])
        xb = float(keys[neighbour])
        if xa == xb:
            # Fall back to the secant of the whole segment.
            return float(targets[-1]) - float(targets[0])
        secant = (float(targets[neighbour]) - float(targets[at])) / (xb - xa)
        return secant / scale  # d/dt = (d/dx) * (x1 - x0)

    @classmethod
    def fit_with_fallback(
        cls, keys: np.ndarray, targets: np.ndarray
    ) -> "Model":
        """Fit a cubic and a linear spline; keep whichever errs less.

        Mirrors the reference implementation (paper footnote 1).  The
        comparison uses the maximum absolute error over the training
        keys.
        """
        cubic = cls.fit(keys, targets)
        linear = LinearSpline.fit(keys, targets)
        if len(keys) == 0:
            return cubic
        y = np.asarray(targets, dtype=np.float64)
        err_cubic = float(np.max(np.abs(cubic.predict_batch(keys) - y)))
        err_linear = float(np.max(np.abs(linear.predict_batch(keys) - y)))
        return cubic if err_cubic <= err_linear else linear

    @classmethod
    def fit_grouped(
        cls, keys: np.ndarray, targets: np.ndarray, offsets: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Monotone Hermite fit of every segment via endpoint gathers.

        Replicates :meth:`fit` operation for operation (endpoint-slope
        estimates, whole-segment secant fallback, Fritsch–Carlson
        limiting, Hermite coefficients), so parameters are bit-exact
        equal to the per-segment path.
        """
        counts = np.diff(offsets)
        fanout = len(counts)
        x = _as_float(keys)
        y = np.asarray(targets, dtype=np.float64)
        nonempty = counts > 0
        codes = np.where(
            nonempty, SOA_MODEL_CODES[cls], SOA_MODEL_CODES[ConstantModel]
        ).astype(np.int8)
        params = np.zeros((fanout, SOA_PARAM_COLUMNS), dtype=np.float64)
        if not np.any(nonempty):
            return codes, params
        first = offsets[:-1][nonempty]
        last = offsets[1:][nonempty] - 1
        x0, y0 = x[first], y[first]
        x1, y1 = x[last], y[last]
        # Degenerate (single-key / all-duplicate) segments: constant
        # cubic ``a0 = y0`` anchored at x0 with zero scale, like fit().
        rows = np.zeros((len(first), SOA_PARAM_COLUMNS), dtype=np.float64)
        rows[:, 3] = y0
        rows[:, 4] = x0
        proper = x1 != x0
        if np.any(proper):
            pf, pl = first[proper], last[proper]
            px0, py0 = x0[proper], y0[proper]
            px1, py1 = x1[proper], y1[proper]
            scale = 1.0 / (px1 - px0)
            dy = py1 - py0
            # Endpoint tangents from the adjacent interior points, with
            # the whole-segment secant (in t-space) as the duplicate-key
            # fallback — cf. _endpoint_slope().
            xb0, yb0 = x[pf + 1], y[pf + 1]
            xb1, yb1 = x[pl - 1], y[pl - 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                m0 = np.where(
                    px0 == xb0, py1 - py0, ((yb0 - py0) / (xb0 - px0)) / scale
                )
                m1 = np.where(
                    px1 == xb1, py1 - py0, ((yb1 - py1) / (xb1 - px1)) / scale
                )
            limit = 3.0 * dy
            rising = dy > 0.0
            m0 = np.where(
                dy == 0.0,
                0.0,
                np.where(
                    rising,
                    np.minimum(np.maximum(m0, 0.0), limit),
                    np.maximum(np.minimum(m0, 0.0), limit),
                ),
            )
            m1 = np.where(
                dy == 0.0,
                0.0,
                np.where(
                    rising,
                    np.minimum(np.maximum(m1, 0.0), limit),
                    np.maximum(np.minimum(m1, 0.0), limit),
                ),
            )
            rows[proper, 0] = 2.0 * py0 + m0 - 2.0 * py1 + m1
            rows[proper, 1] = -3.0 * py0 - 2.0 * m0 + 3.0 * py1 - m1
            rows[proper, 2] = m0
            rows[proper, 3] = py0
            rows[proper, 4] = px0
            rows[proper, 5] = scale
        params[nonempty] = rows
        return codes, params

    @classmethod
    def fit_grouped_with_fallback(
        cls, keys: np.ndarray, targets: np.ndarray, offsets: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Grouped :meth:`fit_with_fallback`: per-segment CS-vs-LS choice.

        Both families are fit grouped, evaluated on the training keys
        with one gather each, and compared on per-segment maximum
        absolute error (``np.maximum.reduceat``) — the same tie-break
        (``err_cubic <= err_linear`` keeps the cubic) as the scalar
        path.  Max is order-independent, so the choice is exact.
        """
        codes_c, params_c = cls.fit_grouped(keys, targets, offsets)
        codes_l, params_l = LinearSpline.fit_grouped(keys, targets, offsets)
        counts = np.diff(offsets)
        if len(keys) == 0:
            return codes_c, params_c
        seg = np.repeat(np.arange(len(counts)), counts)
        y = np.asarray(targets, dtype=np.float64)
        err_c = _segment_max(
            np.abs(cls.eval_soa(params_c[seg], keys) - y), offsets
        )
        err_l = _segment_max(
            np.abs(LinearSpline.eval_soa(params_l[seg], keys) - y), offsets
        )
        keep_cubic = err_c <= err_l
        codes = np.where(keep_cubic, codes_c, codes_l).astype(np.int8)
        params = np.where(keep_cubic[:, None], params_c, params_l)
        return codes, params

    @classmethod
    def eval_soa(cls, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        t = (_as_float(keys) - rows[:, 4]) * rows[:, 5]
        return ((rows[:, 0] * t + rows[:, 1]) * t + rows[:, 2]) * t + rows[:, 3]

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        t = (_as_float(keys) - self.x_offset) * self.x_scale
        return ((self.a3 * t + self.a2) * t + self.a1) * t + self.a0

    def size_in_bytes(self) -> int:
        return 32  # four doubles (normalization params fold into them)

    def is_monotonic(self) -> bool:
        # By construction (Fritsch-Carlson limited Hermite) the segment is
        # monotone between the endpoints; verify via the derivative's
        # critical points as a safety net.
        if self.x_scale == 0.0:
            return True
        # f'(t) = 3*a3*t^2 + 2*a2*t + a1 must not change sign on [0, 1].
        ts = np.linspace(0.0, 1.0, 17)
        d = (3.0 * self.a3 * ts + 2.0 * self.a2) * ts + self.a1
        return bool(np.all(d >= -1e-9) or np.all(d <= 1e-9))


@dataclass(frozen=True)
class Radix(Model):
    """Radix model ``f(x) = (x << a) >> b``.

    Eliminates the common bit prefix of the training keys (left shift)
    and maps the most significant remaining bits onto the target range
    (right shift).  Training inspects only the smallest and largest key;
    evaluation is two shifts, making RX the cheapest model to both train
    and evaluate (Section 7, Figure 11a).

    Note that RX only ever outputs the value of a bit prefix: its range
    is ``[0, 2^bits)`` for ``bits = left-shift-adjusted`` significant
    bits, which generally covers only a fraction of the target positions
    and explains the high share of empty segments it produces
    (Section 5.1, Figure 4).
    """

    left_shift: int = 0
    right_shift: int = KEY_BITS

    abbreviation: ClassVar[str] = "rx"
    eval_cost_units: ClassVar[float] = 0.5

    @classmethod
    def fit(cls, keys: np.ndarray, targets: np.ndarray) -> "Radix":
        n = len(keys)
        if n == 0:
            return cls(0, KEY_BITS)
        max_target = float(np.max(targets)) if n else 0.0
        if max_target < 1.0:
            return cls(0, KEY_BITS)
        lo = int(keys[0])
        hi = int(keys[-1])
        common = lo ^ hi
        prefix_bits = KEY_BITS - common.bit_length() if common else KEY_BITS
        significant = KEY_BITS - prefix_bits
        # Output bits: the bit length of the largest integral target,
        # like the reference implementation -- for a 2^k-model layer
        # this is k bits, so the radix output never exceeds the layer
        # (using k+1 bits would funnel every key with its top
        # significant bit set into the clamped last model).
        bits_needed = max(1, int(max_target).bit_length())
        bits = min(significant, bits_needed)
        if bits <= 0:
            return cls(0, KEY_BITS)
        return cls(prefix_bits, KEY_BITS - bits)

    @classmethod
    def eval_soa(cls, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        x = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(x), dtype=np.float64)
        # Rows with right_shift >= 64 predict 0 (see predict_batch);
        # masking them out also keeps the uint64 shifts well-defined.
        active = rows[:, 1] < float(KEY_BITS)
        if np.any(active):
            shifted = np.left_shift(x[active], rows[active, 0].astype(np.uint64))
            out[active] = np.right_shift(
                shifted, rows[active, 1].astype(np.uint64)
            ).astype(np.float64)
        return out

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        x = np.asarray(keys, dtype=np.uint64)
        if self.right_shift >= KEY_BITS:
            return np.zeros(len(x), dtype=np.float64)
        shifted = np.left_shift(x, np.uint64(self.left_shift))
        out = np.right_shift(shifted, np.uint64(self.right_shift))
        return out.astype(np.float64)

    def predict(self, key: int) -> float:
        if self.right_shift >= KEY_BITS:
            return 0.0
        mask = (1 << KEY_BITS) - 1
        return float(((key << self.left_shift) & mask) >> self.right_shift)

    def size_in_bytes(self) -> int:
        return 16  # two shift amounts, stored as 8-byte words

    def is_monotonic(self) -> bool:
        return True


class AutoModel(Model):
    """Per-segment best-of selection over {LR, LS, CS}.

    An extension in the spirit of CDFShop [23]: instead of fixing one
    model type for a whole layer, each segment gets whichever candidate
    has the smallest *maximum* training error -- the quantity that
    drives LAbs-bounded search intervals.  ``fit`` returns the chosen
    concrete model, so evaluation, serialization, and size accounting
    are those of the winner; only training pays for the tournament.
    """

    abbreviation: ClassVar[str] = "auto"
    #: Average of the candidates, used only by planning heuristics.
    eval_cost_units: ClassVar[float] = 1.5

    _CANDIDATES: ClassVar[tuple] = ()  # filled below (classes defined)

    @classmethod
    def fit(cls, keys: np.ndarray, targets: np.ndarray) -> "Model":
        if len(keys) == 0:
            return ConstantModel(0.0)
        y = np.asarray(targets, dtype=np.float64)
        best: Model | None = None
        best_err = np.inf
        for candidate in cls._CANDIDATES:
            model = candidate.fit(keys, targets)
            err = float(np.max(np.abs(model.predict_batch(keys) - y)))
            if err < best_err:
                best, best_err = model, err
        assert best is not None
        return best


AutoModel._CANDIDATES = (LinearRegression, LinearSpline, CubicSpline)


#: Registry of model type abbreviations (lowercase) to classes, matching
#: the abbreviations of Table 2 in the paper (plus extensions registered
#: by their modules: nn, logl, normal, lognorm).
MODEL_TYPES: dict[str, Type[Model]] = {
    "lr": LinearRegression,
    "ls": LinearSpline,
    "cs": CubicSpline,
    "rx": Radix,
    "const": ConstantModel,
    "auto": AutoModel,
}


# Extension modules (models_more) register codes from 5 upward.
register_soa_model(ConstantModel, 0)
register_soa_model(LinearRegression, 1)
register_soa_model(LinearSpline, 2)
register_soa_model(CubicSpline, 3)
register_soa_model(Radix, 4)

# Radix deliberately has no grouped fitter: its training is two integer
# bit_length computations per segment — already O(1), awkward to
# vectorize, and only ever used for fanout-1 root layers in practice.
GROUPED_FITTERS[ConstantModel] = ConstantModel.fit_grouped
GROUPED_FITTERS[LinearRegression] = LinearRegression.fit_grouped
GROUPED_FITTERS[LinearSpline] = LinearSpline.fit_grouped
GROUPED_FITTERS[CubicSpline] = CubicSpline.fit_grouped


def resolve_model_type(spec: "str | Type[Model]") -> Type[Model]:
    """Resolve a model type from an abbreviation string or a class.

    Accepts ``"lr"``, ``"LS"``, a :class:`Model` subclass, etc.  Raises
    ``ValueError`` for unknown abbreviations to fail fast on typos in
    experiment configurations.
    """
    if isinstance(spec, type) and issubclass(spec, Model):
        return spec
    key = str(spec).strip().lower()
    try:
        return MODEL_TYPES[key]
    except KeyError:
        known = ", ".join(sorted(MODEL_TYPES))
        raise ValueError(f"unknown model type {spec!r}; known types: {known}")
