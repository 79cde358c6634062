"""Error-bound strategies for RMIs.

After an RMI is trained, its prediction error on every key can be
measured.  Storing (an aggregate of) these errors lets the lookup
procedure restrict the error-correction search to a small interval
around the prediction instead of the full array.  The paper evaluates
five strategies (Table 3):

===== ========================= =========== ===================
Abrv. Method                    Granularity Stored bounds
===== ========================= =========== ===================
LInd  Local individual          per model   max +/- error
LAbs  Local absolute            per model   max absolute error
GInd  Global individual         whole RMI   max +/- error
GAbs  Global absolute           whole RMI   max absolute error
NB    No bounds                 --          none
===== ========================= =========== ===================

The *guarantee* all bounded strategies provide: if a key is present in
the indexed array, its position lies within the computed interval
(Section 2.2).  Local strategies are robust to outliers (a single bad
prediction only widens one model's interval); global strategies are not
(Section 5.3).

Sign convention: the signed error of a prediction is
``err = position - prediction``.  An *overestimating* model has negative
errors, an *underestimating* one positive errors.  Individual bounds
store both extremes separately, which pays off for models with a
one-sided bias such as linear splines (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "ErrorBounds",
    "LocalIndividualBounds",
    "LocalAbsoluteBounds",
    "GlobalIndividualBounds",
    "GlobalAbsoluteBounds",
    "NoBounds",
    "BOUND_TYPES",
    "resolve_bound_type",
    "compute_bounds",
]


class ErrorBounds:
    """Abstract base class of error-bound strategies.

    A bounds object answers one question: given a (clamped, integral)
    prediction and the last-layer model that produced it, which inclusive
    index interval ``[lo, hi]`` must be searched?
    """

    abbreviation: ClassVar[str] = "?"
    #: Whether intervals are derived from stored bounds (False for NB).
    provides_bounds: ClassVar[bool] = True

    @classmethod
    def compute(
        cls,
        predictions: np.ndarray,
        positions: np.ndarray,
        model_ids: np.ndarray,
        num_models: int,
        n: int,
    ) -> "ErrorBounds":
        """Compute bounds from per-key predictions and true positions.

        ``predictions`` must already be clamped to ``[0, n-1]`` and
        rounded, exactly as the lookup procedure will produce them --
        otherwise the containment guarantee would not transfer to
        lookups.  ``model_ids[i]`` is the last-layer model that produced
        ``predictions[i]``.
        """
        raise NotImplementedError

    @classmethod
    def from_extremes(
        cls, min_err: np.ndarray, max_err: np.ndarray
    ) -> "ErrorBounds":
        """Bounds from each model's minimum and maximum signed error.

        ``min_err``/``max_err`` are :func:`_per_model_extremes`'s output
        over the build's own keys (``(0, 0)`` for a model no key maps
        to), the form the RMI build kernels produce.  Equal to
        :meth:`compute` on the same predictions.
        """
        raise NotImplementedError

    def interval(self, prediction: int, model_id: int) -> tuple[int, int]:
        """Inclusive search interval for one prediction (unclamped)."""
        raise NotImplementedError

    def intervals(
        self, predictions: np.ndarray, model_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`interval` over arrays of predictions."""
        raise NotImplementedError

    def size_in_bytes(self) -> int:
        """Memory footprint of the stored bounds (8 bytes per bound)."""
        raise NotImplementedError


def _signed_errors(predictions: np.ndarray, positions: np.ndarray) -> np.ndarray:
    return positions.astype(np.int64) - predictions.astype(np.int64)


def _per_model_extremes(
    errors: np.ndarray, model_ids: np.ndarray, num_models: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-model minimum and maximum signed error.

    Extremes are taken over the keys actually assigned to each model,
    so a model with one-sided bias gets a one-sided (tighter) interval
    -- the advantage of individual over absolute bounds the paper
    highlights in Section 5.3.  Models with no assigned key get
    ``(0, 0)``: their predictions are never produced for present keys.
    """
    lo = np.full(num_models, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(num_models, np.iinfo(np.int64).min, dtype=np.int64)
    if len(errors):
        diffs = np.diff(model_ids)
        if not np.any(diffs < 0):
            # Sorted model ids (the common case: monotone-root no-copy
            # builds route keys in order): take run-wise extremes with
            # ``reduceat`` instead of the much slower scatter ``.at``
            # ufuncs.  Min/max are order-independent, so the results
            # are identical.
            starts = np.flatnonzero(np.r_[True, diffs != 0])
            ids = model_ids[starts]
            lo[ids] = np.minimum.reduceat(errors, starts)
            hi[ids] = np.maximum.reduceat(errors, starts)
        else:
            np.minimum.at(lo, model_ids, errors)
            np.maximum.at(hi, model_ids, errors)
    untouched = lo > hi  # no key ever mapped to this model
    lo[untouched] = 0
    hi[untouched] = 0
    return lo, hi


@dataclass(frozen=True)
class LocalIndividualBounds(ErrorBounds):
    """Per-model maximum positive and negative error (LInd, [20])."""

    min_err: np.ndarray  # most negative signed error per model (<= 0)
    max_err: np.ndarray  # most positive signed error per model (>= 0)

    abbreviation: ClassVar[str] = "lind"

    @classmethod
    def compute(cls, predictions, positions, model_ids, num_models, n):
        errors = _signed_errors(predictions, positions)
        return cls.from_extremes(
            *_per_model_extremes(errors, model_ids, num_models)
        )

    @classmethod
    def from_extremes(cls, min_err, max_err):
        return cls(min_err, max_err)

    def interval(self, prediction: int, model_id: int) -> tuple[int, int]:
        return (
            prediction + int(self.min_err[model_id]),
            prediction + int(self.max_err[model_id]),
        )

    def intervals(self, predictions, model_ids):
        p = predictions.astype(np.int64)
        return p + self.min_err[model_ids], p + self.max_err[model_ids]

    def size_in_bytes(self) -> int:
        return 16 * len(self.min_err)


@dataclass(frozen=True)
class LocalAbsoluteBounds(ErrorBounds):
    """Per-model maximum absolute error (LAbs, default of [23])."""

    abs_err: np.ndarray  # max |signed error| per model (>= 0)

    abbreviation: ClassVar[str] = "labs"

    @classmethod
    def compute(cls, predictions, positions, model_ids, num_models, n):
        errors = _signed_errors(predictions, positions)
        return cls.from_extremes(
            *_per_model_extremes(errors, model_ids, num_models)
        )

    @classmethod
    def from_extremes(cls, min_err, max_err):
        return cls(np.maximum(-min_err, max_err))

    def interval(self, prediction: int, model_id: int) -> tuple[int, int]:
        e = int(self.abs_err[model_id])
        return prediction - e, prediction + e

    def intervals(self, predictions, model_ids):
        p = predictions.astype(np.int64)
        e = self.abs_err[model_ids]
        return p - e, p + e

    def size_in_bytes(self) -> int:
        return 8 * len(self.abs_err)


@dataclass(frozen=True)
class GlobalIndividualBounds(ErrorBounds):
    """RMI-wide maximum positive and negative error (GInd)."""

    min_err: int
    max_err: int

    abbreviation: ClassVar[str] = "gind"

    @classmethod
    def compute(cls, predictions, positions, model_ids, num_models, n):
        errors = _signed_errors(predictions, positions)
        if len(errors) == 0:
            return cls(0, 0)
        return cls(int(errors.min()), int(errors.max()))

    @classmethod
    def from_extremes(cls, min_err, max_err):
        # A model without keys contributes (0, 0), which never moves the
        # global extremes of a build: the first key's error is <= 0 (its
        # clamped prediction is >= 0) and the last key's is >= 0.
        return cls(int(min_err.min()), int(max_err.max()))

    def interval(self, prediction: int, model_id: int) -> tuple[int, int]:
        return prediction + self.min_err, prediction + self.max_err

    def intervals(self, predictions, model_ids):
        p = predictions.astype(np.int64)
        return p + self.min_err, p + self.max_err

    def size_in_bytes(self) -> int:
        return 16


@dataclass(frozen=True)
class GlobalAbsoluteBounds(ErrorBounds):
    """RMI-wide maximum absolute error (GAbs)."""

    abs_err: int

    abbreviation: ClassVar[str] = "gabs"

    @classmethod
    def compute(cls, predictions, positions, model_ids, num_models, n):
        errors = _signed_errors(predictions, positions)
        if len(errors) == 0:
            return cls(0)
        return cls(int(np.max(np.abs(errors))))

    @classmethod
    def from_extremes(cls, min_err, max_err):
        return cls(int(max(-min_err.min(), max_err.max())))

    def interval(self, prediction: int, model_id: int) -> tuple[int, int]:
        return prediction - self.abs_err, prediction + self.abs_err

    def intervals(self, predictions, model_ids):
        p = predictions.astype(np.int64)
        return p - self.abs_err, p + self.abs_err

    def size_in_bytes(self) -> int:
        return 8


@dataclass(frozen=True)
class NoBounds(ErrorBounds):
    """No stored bounds (NB, [20]).

    The search interval degenerates to the whole array; only search
    algorithms that exploit the prediction (model-biased linear and
    exponential search) remain sensible with this strategy.
    """

    n: int

    abbreviation: ClassVar[str] = "nb"
    provides_bounds: ClassVar[bool] = False

    @classmethod
    def compute(cls, predictions, positions, model_ids, num_models, n):
        return cls(n)

    def interval(self, prediction: int, model_id: int) -> tuple[int, int]:
        return 0, self.n - 1

    def intervals(self, predictions, model_ids):
        lo = np.zeros(len(predictions), dtype=np.int64)
        hi = np.full(len(predictions), self.n - 1, dtype=np.int64)
        return lo, hi

    def size_in_bytes(self) -> int:
        return 0


#: Registry mapping Table 3 abbreviations (lowercase) to classes.
BOUND_TYPES: dict[str, type[ErrorBounds]] = {
    "lind": LocalIndividualBounds,
    "labs": LocalAbsoluteBounds,
    "gind": GlobalIndividualBounds,
    "gabs": GlobalAbsoluteBounds,
    "nb": NoBounds,
}


def resolve_bound_type(spec: "str | type[ErrorBounds]") -> type[ErrorBounds]:
    """Resolve a bound strategy from an abbreviation string or class."""
    if isinstance(spec, type) and issubclass(spec, ErrorBounds):
        return spec
    key = str(spec).strip().lower()
    try:
        return BOUND_TYPES[key]
    except KeyError:
        known = ", ".join(sorted(BOUND_TYPES))
        raise ValueError(f"unknown bound type {spec!r}; known types: {known}")


def compute_bounds(
    spec: "str | type[ErrorBounds]",
    predictions: np.ndarray,
    positions: np.ndarray,
    model_ids: np.ndarray,
    num_models: int,
    n: int,
) -> ErrorBounds:
    """Compute bounds of the requested strategy; see Table 3."""
    return resolve_bound_type(spec).compute(
        predictions, positions, model_ids, num_models, n
    )
