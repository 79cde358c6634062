"""Recursive model indexes (RMIs).

Implements the index described in Section 2 of the paper: a fixed-depth
hierarchy of models approximating the cumulative distribution function
(CDF) of a sorted key array.  A lookup proceeds in two steps:

1. **Prediction** -- the root model is evaluated on the key; its output
   selects a model of the next layer (Equation 3), and so on, until the
   last layer produces a position estimate (Equation 4).
2. **Error correction** -- the estimate is refined to the true lower
   bound by searching the sorted array, optionally restricted to an
   interval derived from stored error bounds (Section 2.2).

Both training variants discussed in the paper are implemented:

* the *reference* algorithm (Listing 1) which materializes per-model key
  arrays (``copy_keys=True``), and
* the paper's *optimized* algorithm (Section 4.1) which exploits that
  all supported models are monotonic -- key ranges are represented as
  ``(start, end)`` offsets into the sorted array and inner layers are
  trained directly on pre-scaled next-layer model indexes
  (``copy_keys=False``, ``train_on_model_index=True``).  The paper
  credits this optimization with a 2x build-time improvement.

The two-layer configuration studied throughout the paper's evaluation is
the default; arbitrary layer counts are supported (the paper's future
work).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import kernels as _kernels
from ..kernels.base import NO_QUERIES, run_steps, serve_by_lookup
from .bounds import (
    BOUND_TYPES,
    ErrorBounds,
    NoBounds,
    compute_bounds,
    resolve_bound_type,
)
from .layers import LayerTable
from .models import (
    MODEL_TYPES,
    SOA_MODEL_CODES,
    ConstantModel,
    CubicSpline,
    LinearRegression,
    LinearSpline,
    Model,
    grouped_fitter,
    resolve_model_type,
)
from .search import resolve_search_algorithm

__all__ = ["RMI", "BuildStats", "LookupTrace", "build_rmi_layers"]

#: Version of the :meth:`RMI.snapshot_state` layout.  2: the snapshot
#: records the configuration the RMI was built with.
SNAPSHOT_FORMAT = 2

#: The boolean build parameters, as :meth:`RMI.snapshot_state` records
#: them.
_BUILD_FLAGS = ("copy_keys", "train_on_model_index", "cs_fallback",
                "grouped_fit")


@dataclass
class BuildStats:
    """Timings and work counters of one RMI build.

    The four steps match the paper's Section 7 decomposition: (1) train
    the root model, (2) create segments based on the root model, (3)
    train the second-layer models, and (4) compute error bounds.  For
    RMIs with more than two layers, steps (1)-(3) aggregate over layers.
    """

    train_root_seconds: float = 0.0
    segment_seconds: float = 0.0
    train_leaves_seconds: float = 0.0
    bounds_seconds: float = 0.0
    keys_copied: int = 0  # keys physically copied (reference algorithm only)
    keys_touched: int = 0  # model-evaluation count during the build
    #: Which code path trained the (multi-model) leaf layer:
    #: ``"grouped"`` for the closed-form all-segments-at-once fit,
    #: ``"per_segment"`` for the Listing-1 style Python loop.
    fit_path: str = "grouped"

    @property
    def total_seconds(self) -> float:
        return (
            self.train_root_seconds
            + self.segment_seconds
            + self.train_leaves_seconds
            + self.bounds_seconds
        )

    def describe(self) -> str:
        """One-line summary, e.g. ``0.012s total (grouped fit)``."""
        return (
            f"{self.total_seconds:.4f}s total "
            f"(root {self.train_root_seconds:.4f}s, "
            f"segment {self.segment_seconds:.4f}s, "
            f"leaves {self.train_leaves_seconds:.4f}s, "
            f"bounds {self.bounds_seconds:.4f}s; {self.fit_path} fit)"
        )


@dataclass(frozen=True)
class LookupTrace:
    """Per-lookup instrumentation used by the analytic cost model."""

    position: int
    model_evaluations: int
    comparisons: int
    interval_size: int
    prediction: int


def _fit_model(model_type: type[Model], keys: np.ndarray, targets: np.ndarray,
               cs_fallback: bool) -> Model:
    """Fit one model, handling empty segments and the CS→LS fallback."""
    if len(keys) == 0:
        return ConstantModel(0.0)
    if model_type is CubicSpline and cs_fallback:
        return CubicSpline.fit_with_fallback(keys, targets)
    return model_type.fit(keys, targets)


def _assignments(predictions: np.ndarray, fanout: int, n: int,
                 scaled: bool) -> np.ndarray:
    """Map raw model outputs to next-layer model indexes (Equation 3).

    When ``scaled`` is true the model was trained to emit indexes
    directly; otherwise its position estimate is scaled by
    ``fanout / n`` first.
    """
    if scaled:
        est = predictions
    else:
        est = predictions * (fanout / max(n, 1))
    # Clamp in float space: casting a float beyond int64 range first
    # would wrap to the wrong end of the layer.
    est = np.clip(np.nan_to_num(est), 0.0, float(fanout - 1))
    return np.floor(est).astype(np.int64)


class RMI:
    """A recursive model index over a sorted ``uint64`` key array.

    Parameters mirror the paper's hyperparameters (Section 2.4):

    ``layer_sizes``
        Sizes of layers 1..k-1 (the root layer always has size 1), e.g.
        ``[2**10]`` for the two-layer RMIs studied in the paper.
    ``model_types``
        One model type per layer, root first, e.g. ``("ls", "lr")``.
    ``bound_type``
        Error-bound strategy of Table 3 (``"labs"`` is the reference
        implementation's default and the paper's recommendation).
    ``search``
        Error-correction algorithm of Table 4.
    ``copy_keys``
        Use the reference training algorithm that materializes per-model
        key arrays instead of the paper's no-copy optimization.
    ``train_on_model_index``
        Train inner layers directly on scaled next-layer model indexes
        (Section 4.1), saving a multiply+divide per lookup.
    ``cs_fallback``
        Replace a cubic-spline model by a linear spline when the linear
        spline has the lower maximum training error (footnote 1).
    ``grouped_fit``
        Train multi-model layers with the grouped closed-form fitters
        (all segments at once, NumPy reductions) instead of the
        per-segment Python loop.  Both paths produce the same models —
        bit-exact for the spline families, up to summation order (a few
        ulp) for the mean-based ones, whose grouped sums are
        ``np.add.reduceat``'s (first element plus the pairwise sum of
        the rest) rather than ``np.mean``'s; disable for the
        per-segment Listing-1 reference semantics.

    Builds and batch calls run on the process's kernel backend
    (:func:`repro.kernels.get_backend`), as every index's do: a
    compiled backend serves ``lookup_batch``/``predict_batch``/
    ``serve_batch`` through the fused packed-array kernels, and the
    ``cext`` backend builds the default two-layer grouped LR
    configuration with its build kernels (see :meth:`_build_kernels`).
    All backends are bit-identical, so the backend only affects speed.
    """

    def __init__(
        self,
        keys: np.ndarray,
        layer_sizes: Sequence[int] = (1024,),
        model_types: Sequence[str | type[Model]] = ("ls", "lr"),
        bound_type: "str | type[ErrorBounds]" = "labs",
        search: str = "bin",
        copy_keys: bool = False,
        train_on_model_index: bool = True,
        cs_fallback: bool = True,
        grouped_fit: bool = True,
    ) -> None:
        self._configure(keys, layer_sizes, model_types, bound_type, search,
                        copy_keys, train_on_model_index, cs_fallback,
                        grouped_fit)
        run_steps(self._build_steps())

    @classmethod
    def build_steps(cls, keys: np.ndarray, **params):
        """The build of ``RMI(keys, **params)`` in bounded steps.

        A generator whose every ``next()`` runs one step of at most the
        backend's ``step_keys`` key visits (a leaf's fit resumes across
        steps) and yields the visits it made; it returns the
        RMI, which equals ``RMI(keys, **params)`` bit for bit (the
        constructor runs the same steps back to back).  ``None`` when
        the build has no bounded steps: the backend's build kernel does
        not cover it, or its root fit reads every key (only an LS root
        is fitted on the two end keys).
        """
        rmi = cls.__new__(cls)
        rmi._configure(keys, **params)
        kernels = rmi._build_kernels()
        if kernels is None or rmi.model_types[0] is not LinearSpline:
            return None
        return rmi._steps_to_self()

    def _steps_to_self(self):
        yield from self._build_steps()
        return self

    def _configure(
        self,
        keys: np.ndarray,
        layer_sizes: Sequence[int] = (1024,),
        model_types: Sequence[str | type[Model]] = ("ls", "lr"),
        bound_type: "str | type[ErrorBounds]" = "labs",
        search: str = "bin",
        copy_keys: bool = False,
        train_on_model_index: bool = True,
        cs_fallback: bool = True,
        grouped_fit: bool = True,
    ) -> None:
        """Check and store the parameters (O(1); the key order is
        checked by the build's first steps)."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            raise ValueError("cannot build an RMI over an empty key array")
        if len(model_types) != len(layer_sizes) + 1:
            raise ValueError(
                "need one model type per layer: "
                f"{len(layer_sizes) + 1} layers but {len(model_types)} types"
            )
        if any(s < 1 for s in layer_sizes):
            raise ValueError("layer sizes must be positive")

        self.keys = keys
        self.n = len(keys)
        self.layer_sizes = [1, *map(int, layer_sizes)]
        self.model_types = [resolve_model_type(t) for t in model_types]
        self.search_name = search
        self._search = resolve_search_algorithm(search)
        self.bound_type = resolve_bound_type(bound_type)
        self.copy_keys = copy_keys
        self.train_on_model_index = train_on_model_index
        self.cs_fallback = cs_fallback
        self.grouped_fit = grouped_fit
        self._packed_cache: "tuple | None" = None

        self.layers: list[LayerTable] = []
        self.bounds: ErrorBounds = NoBounds(self.n)
        self.build_stats = BuildStats()
        self._leaf_model_ids: np.ndarray | None = None
        self._leaf_counts: np.ndarray | None = None
        self._leaf_linear: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def _build_steps(self):
        """Train: on the backend's build kernel in bounded steps when it
        covers this build (its pass checks the key order), else -- or
        when it gives up -- the staged NumPy build (the reference),
        after the order check, in one step."""
        kernels = self._build_kernels()
        if kernels is not None and (yield from self._kernel_build(kernels)):
            return
        if np.any(self.keys[1:] < self.keys[:-1]):
            raise ValueError("keys must be sorted in non-decreasing order")
        self._build()
        yield self.n

    def _kernel_build(self, kernels):
        """The two-layer build on ``kernels``' build kernel, in its
        steps: the staged root fit, then the fused segment, leaves and
        bounds pass, bit-identical to the staged steps it replaces.  In
        :attr:`build_stats` the pass is booked as the segment step (it
        routes); the leaves and bounds steps assemble its output.  Returns
        ``False``, having built nothing, when the root is not monotone or
        does not route the keys in order; the staged build then runs.
        The seconds in :attr:`build_stats` are wall time, which for a
        build run between other work includes that work."""
        stats = BuildStats(fit_path="grouped")
        keys, n = self.keys, self.n
        fanout = self.layer_sizes[1]
        t0 = time.perf_counter()
        model_type = self.model_types[0]
        if model_type is LinearSpline:
            # LinearSpline.fit reads the first and last point only, so
            # it is fitted on those two, not n targets.
            ends = np.array([0, n - 1])
            fit_keys, targets = keys[ends], ends.astype(np.float64)
        else:
            fit_keys, targets = keys, np.arange(n, dtype=np.float64)
        targets *= fanout / n
        root = LayerTable.from_models(
            [_fit_model(model_type, fit_keys, targets, self.cs_fallback)],
            soa=self.grouped_fit,
        )
        t1 = time.perf_counter()
        stats.train_root_seconds = t1 - t0
        if not root[0].is_monotonic():
            return False
        built = yield from kernels.rmi_build_leaves_steps(keys, root,
                                                          fanout)
        if built is None:
            return False
        counts, codes, params, lo, hi = built
        t2 = time.perf_counter()
        stats.segment_seconds = t2 - t1
        self.layers = [root, LayerTable(codes, params)]
        self._leaf_counts = counts
        self._cache_linear_leaves()
        t3 = time.perf_counter()
        stats.train_leaves_seconds = t3 - t2
        self.bounds = self.bound_type.from_extremes(lo, hi)
        stats.bounds_seconds = time.perf_counter() - t3
        stats.keys_touched = 2 * n
        self.build_stats = stats
        return True

    def _build(self) -> None:
        """The staged NumPy build: Figure 11's steps, layer by layer."""
        stats = BuildStats(
            fit_path="grouped" if self.grouped_fit else "per_segment"
        )
        n = self.n
        num_layers = len(self.layer_sizes)
        self.layers = []

        # Current key->model assignment, non-decreasing when the no-copy
        # path applies.  ``order`` maps the training order back to array
        # positions; it stays ``None`` (the identity) unless a
        # non-monotonic model interleaved segments or copy_keys forced
        # the reference path, and the per-layer gathers/scatters through
        # it are skipped while it does.  The root takes every key, so
        # the first assignment is all zeros; only the copy_keys argsort
        # and a one-layer RMI's leaf ids read it before the root's
        # routing replaces it.
        assign = (np.zeros(n, dtype=np.int64)
                  if self.copy_keys or num_layers == 1 else None)
        order: "np.ndarray | None" = None

        for depth in range(num_layers):
            fanout = self.layer_sizes[depth]
            model_type = self.model_types[depth]
            last_layer = depth == num_layers - 1
            next_fanout = None if last_layer else self.layer_sizes[depth + 1]

            # --- gather keys per model -------------------------------
            t0 = time.perf_counter()
            # A monotonic single-model previous layer produces
            # non-decreasing assignments by construction, letting both
            # the O(n) ordering scan and the stable argsort be skipped.
            # Multi-model layers do not qualify even when every model
            # is monotone: independently fitted neighbours can still
            # cross at segment boundaries.
            ordered_known = depth == 0 or (
                len(self.layers[depth - 1]) == 1
                and self.layers[depth - 1][0].is_monotonic()
            )
            if self.copy_keys or (
                not ordered_known and np.any(np.diff(assign) < 0)
            ):
                perm = np.argsort(assign, kind="stable")
                order = perm if order is None else order[perm]
                assign = assign[perm]
            ordered_keys = self.keys if order is None else self.keys[order]
            if self.copy_keys:
                # Reference algorithm: physically materialize per-model
                # key arrays (Listing 1, line 11).
                ordered_keys = ordered_keys.copy()
                stats.keys_copied += n
            if fanout == 1:
                counts = np.asarray([n], dtype=np.int64)
            else:
                counts = np.bincount(assign, minlength=fanout)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            t1 = time.perf_counter()
            if depth > 0:
                stats.segment_seconds += t1 - t0

            # --- choose targets --------------------------------------
            # Each key's array position in training order, scaled to
            # next-layer model indexes for inner layers trained on them.
            fit_keys, fit_offsets = ordered_keys, offsets
            if fanout == 1 and model_type is LinearSpline:
                # LinearSpline.fit reads the first and last point only,
                # so it is fitted on those two, not n targets.
                ends = np.array([0, n - 1])
                fit_keys, fit_offsets = ordered_keys[ends], [0, 2]
                targets = (ends if order is None
                           else order[ends]).astype(np.float64)
            elif order is None:
                targets = np.arange(n, dtype=np.float64)
            else:
                targets = order.astype(np.float64)
            if not last_layer and self.train_on_model_index:
                targets *= next_fanout / n

            # --- train models ----------------------------------------
            t2 = time.perf_counter()
            fitter = (
                grouped_fitter(model_type, self.cs_fallback)
                if self.grouped_fit and fanout > 1
                else None
            )
            if fitter is not None:
                codes, params = fitter(fit_keys, targets, fit_offsets)
                layer = LayerTable(codes, params)
                layer_fit_path = "grouped"
            else:
                # Per-segment reference path: fanout-1 layers (nothing
                # to group — and fitting the root per segment keeps it
                # bit-identical to the reference, so downstream segment
                # assignments match exactly), model families without a
                # grouped fitter, and the grouped_fit=False escape.
                # grouped_fit=False also keeps the layer in object form,
                # so whole-layer evaluation runs the reference per-model
                # loops rather than the SoA gathers.
                layer = LayerTable.from_models(
                    [
                        _fit_model(
                            model_type,
                            fit_keys[fit_offsets[j] : fit_offsets[j + 1]],
                            targets[fit_offsets[j] : fit_offsets[j + 1]],
                            self.cs_fallback,
                        )
                        for j in range(fanout)
                    ],
                    soa=self.grouped_fit,
                )
                layer_fit_path = "per_segment"
            if fanout > 1:
                stats.fit_path = layer_fit_path
            self.layers.append(layer)
            t3 = time.perf_counter()
            if depth == 0:
                stats.train_root_seconds += t3 - t2
            else:
                stats.train_leaves_seconds += t3 - t2

            # --- assign keys to the next layer ------------------------
            if not last_layer:
                t4 = time.perf_counter()
                if fanout == 1:
                    preds = layer.predict_routed(ordered_keys, None)
                else:
                    seg_ids = np.repeat(
                        np.arange(fanout, dtype=np.int64), counts
                    )
                    preds = layer.predict_routed(ordered_keys, seg_ids)
                assign = _assignments(
                    preds, next_fanout, n, self.train_on_model_index
                )
                stats.keys_touched += n
                stats.segment_seconds += time.perf_counter() - t4
            elif order is None:
                self._leaf_model_ids = assign
            else:
                leaf_ids = np.empty(n, dtype=np.int64)
                leaf_ids[order] = assign
                self._leaf_model_ids = leaf_ids

        self._cache_linear_leaves()

        # --- error bounds --------------------------------------------
        # With NB the last layer is never evaluated during the build
        # (paper Section 7: "the second layer is never evaluated
        # because we do not compute bounds"), which is what makes NB
        # builds cheaper in Figure 11c.
        if self.bound_type is NoBounds:
            self.bounds = NoBounds(n)
        else:
            t5 = time.perf_counter()
            preds = self._predict_positions(self.keys, self._leaf_model_ids)
            self.bounds = compute_bounds(
                self.bound_type,
                preds,
                np.arange(n, dtype=np.int64),
                self._leaf_model_ids,
                self.layer_sizes[-1],
                n,
            )
            stats.keys_touched += n
            stats.bounds_seconds += time.perf_counter() - t5
        self.build_stats = stats

    def _build_kernels(self):
        """The backend whose build kernels run this build, or ``None``.

        The kernels cover the build the serving stack uses: two layers,
        grouped LR leaves over more than one leaf (a one-leaf layer is
        fitted per segment), a root trained on model indexes, no copied
        keys, and a stock bound type other than NB.  The root must also
        turn out monotone and route the keys in order, which ``_build``
        checks once it is trained.  Every other configuration, and every
        backend without build kernels, takes the staged NumPy steps.
        """
        if not (
            len(self.layer_sizes) == 2
            and self.layer_sizes[1] > 1
            and self.model_types[1] is LinearRegression
            and self.grouped_fit
            and self.train_on_model_index
            and not self.copy_keys
            and self.bound_type is not NoBounds
            and self.bound_type in BOUND_TYPES.values()
        ):
            return None
        try:
            backend = _kernels.get_backend()
        except (RuntimeError, ValueError):
            # An unloadable ``REPRO_KERNELS`` backend is reported by the
            # first lookup; the build does not need it.
            return None
        return backend if backend.build_kernels else None

    def _cache_linear_leaves(self) -> None:
        """Cache leaf parameters as arrays when all leaves are linear.

        The paper restricts last-layer models to LR and LS (both linear),
        so batch lookups can evaluate the whole last layer with two
        gathers and a fused multiply-add.  Only models that are linear
        *in the key* qualify — LogLinear also carries a slope/intercept
        pair but is linear in ``log1p(x)`` and must not be fused here.
        """
        self._leaf_linear = self.layers[-1].linear_params()

    # ------------------------------------------------------------------
    # Kernel backend dispatch
    # ------------------------------------------------------------------

    def _packed_rmi(self):
        """Kernel-ready packing of this RMI, cached until mutation.

        The cache token is the bounds object's identity plus
        :attr:`LayerTable.mutations`, which every in-place model
        replacement (``rmi.layers[d][j] = model``) bumps, so a mutated
        layer or a bounds swap re-packs on the next batch call.  Returns
        ``None`` for representations the kernels cannot evaluate
        (object-mode layers, extension model families, custom bounds)
        -- callers then stay on the staged NumPy path.
        """
        cached = self._packed_cache
        token = LayerTable.mutations
        if (
            cached is not None
            and cached[0] is self.bounds
            and cached[1] == token
        ):
            return cached[2]
        packed = _kernels.pack_rmi(self)
        self._packed_cache = (self.bounds, token, packed)
        return packed

    def __getstate__(self) -> dict:
        """Pickles and copies leave the packed form behind: its cache
        token, :attr:`LayerTable.mutations`, counts this process's
        mutations only, so it could match a stale pack elsewhere."""
        state = self.__dict__.copy()
        state["_packed_cache"] = None
        return state

    def _kernel_state(self):
        """``(backend, packed)`` when a compiled backend serves this RMI.

        ``None`` keeps the staged NumPy batch path: the active backend
        is not compiled, or this RMI is not packable.  Unlike the
        packable baselines, the RMI keeps its staged path on NumPy:
        it is faster than the ``rmi_*`` replay, which stays the
        reference the compiled kernels are tested against.
        """
        backend = _kernels.get_backend()
        if not backend.compiled:
            return None
        packed = self._packed_rmi()
        if packed is None:
            return None
        return backend, packed

    def warm_kernels(self) -> None:
        """Compile/load the active backend's kernels off the hot path.

        Idempotent.  Runs a one-element ``serve_batch`` probe so every
        kernel entry point (routing, prediction, bounded search, fused
        serve) is loaded before live traffic arrives.
        """
        _kernels.get_backend().warmup()
        probe = self.keys[:1]
        self.serve_batch(probe, probe, probe)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, np.ndarray]":
        """The built RMI as a dict of arrays (keys excluded).

        The hook every :class:`~repro.baselines.interfaces.OrderedIndex`
        has, and the member layout of :mod:`repro.core.serialize`'s
        files: the configuration (model-type abbreviations, inner layer
        sizes, bound type, search algorithm, build flags), each layer's
        SoA ``codes``/``params`` rows, the bounds' fields and the
        training routing (a kernel build's per-leaf counts, else the
        per-key leaf ids).  An object-mode layer is written through
        :meth:`LayerTable.from_models`.  Raises ``TypeError`` for a
        layer with no SoA form (the neural extension) and for a model
        or bounds type its abbreviation does not name.
        """
        bound = type(self.bounds)
        for registry, cls in [*((MODEL_TYPES, t) for t in self.model_types),
                              (BOUND_TYPES, bound)]:
            if registry.get(cls.abbreviation) is not cls:
                raise TypeError(f"{cls.__name__} is not serializable: "
                                f"{cls.abbreviation!r} does not name it")
        state = {
            "format_version": np.array([SNAPSHOT_FORMAT]),
            "n": np.array([self.n], dtype=np.int64),
            "model_types": np.array([t.abbreviation
                                     for t in self.model_types]),
            "layer_sizes": np.asarray(self.layer_sizes[1:], dtype=np.int64),
            "bound_type": np.array([bound.abbreviation]),
            "search": np.array([self.search_name]),
        }
        for flag in _BUILD_FLAGS:
            state[flag] = np.array([bool(getattr(self, flag))])
        for i, layer in enumerate(self.layers):
            if layer.codes is None:
                layer = LayerTable.from_models(layer)
            if layer.codes is None:
                bad = next(type(m) for m in layer
                           if type(m) not in SOA_MODEL_CODES)
                raise TypeError(f"{bad.__name__} is not serializable: it "
                                "has no struct-of-arrays form")
            state[f"layer{i}_codes"] = layer.codes
            state[f"layer{i}_params"] = layer.params
        for field in dataclasses.fields(self.bounds):
            state[f"bounds_{field.name}"] = np.asarray(
                getattr(self.bounds, field.name), dtype=np.int64)
        if self._leaf_model_ids is None:
            state["leaf_counts"] = self._leaf_counts
        else:
            state["leaf_model_ids"] = self._leaf_model_ids
        return state

    @classmethod
    def restore_state(cls, keys: np.ndarray,
                      state: "dict[str, np.ndarray]") -> "RMI":
        """Reattach a :meth:`snapshot_state` payload to ``keys`` without
        retraining.  ``keys`` must be the training keys: their number is
        checked, their order is not."""
        version = int(state["format_version"][0])
        if version != SNAPSHOT_FORMAT:
            raise ValueError(f"RMI snapshot format {version} is not "
                             f"{SNAPSHOT_FORMAT}")
        rmi = cls.__new__(cls)
        rmi._configure(
            keys,
            layer_sizes=state["layer_sizes"].tolist(),
            model_types=state["model_types"].tolist(),
            bound_type=str(state["bound_type"][0]),
            search=str(state["search"][0]),
            **{flag: bool(state[flag][0]) for flag in _BUILD_FLAGS},
        )
        n = int(state["n"][0])
        if rmi.n != n:
            raise ValueError(f"key array has {rmi.n} keys but the RMI was "
                             f"trained on {n}")
        for i in range(len(rmi.layer_sizes)):
            layer = LayerTable(state[f"layer{i}_codes"],
                               state[f"layer{i}_params"])
            rmi.layers.append(layer if rmi.grouped_fit else
                              LayerTable.from_models(layer, soa=False))
        bounds = {}
        for field in dataclasses.fields(rmi.bound_type):
            value = np.asarray(state[f"bounds_{field.name}"], dtype=np.int64)
            bounds[field.name] = int(value) if value.ndim == 0 else value
        rmi.bounds = rmi.bound_type(**bounds)
        if "leaf_counts" in state:
            rmi._leaf_counts = np.asarray(state["leaf_counts"],
                                          dtype=np.int64)
        else:
            rmi._leaf_model_ids = np.asarray(state["leaf_model_ids"],
                                             dtype=np.int64)
        rmi._cache_linear_leaves()
        return rmi

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _route_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vectorized Equation 3: map queries to last-layer model ids."""
        assign = np.zeros(len(queries), dtype=np.int64)
        for depth in range(len(self.layer_sizes) - 1):
            layer = self.layers[depth]
            next_fanout = self.layer_sizes[depth + 1]
            preds = layer.predict_routed(queries, assign)
            assign = _assignments(
                preds, next_fanout, self.n, self.train_on_model_index
            )
        return assign

    def _predict_positions(
        self, queries: np.ndarray, model_ids: np.ndarray
    ) -> np.ndarray:
        """Clamped integral position estimates for given leaf routing."""
        if self._leaf_linear is not None:
            slopes, intercepts = self._leaf_linear
            est = slopes[model_ids] * queries.astype(np.float64) + intercepts[
                model_ids
            ]
        else:
            est = self.layers[-1].predict_routed(queries, model_ids)
        est = np.clip(np.nan_to_num(est), 0.0, float(self.n - 1))
        return est.astype(np.int64)

    def predict_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized prediction: ``(model_ids, position_estimates)``."""
        queries = np.asarray(queries, dtype=np.uint64)
        state = self._kernel_state()
        if state is not None:
            backend, packed = state
            return backend.rmi_predict(packed, queries)
        model_ids = self._route_batch(queries)
        return model_ids, self._predict_positions(queries, model_ids)

    def predict(self, key: int) -> tuple[int, int]:
        """Predict ``(leaf model id, position estimate)`` for one key."""
        ids, preds = self.predict_batch(np.asarray([key], dtype=np.uint64))
        return int(ids[0]), int(preds[0])

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, key: int) -> int:
        """Lower-bound lookup: smallest index with ``keys[i] >= key``."""
        return self.lookup_traced(key).position

    def lookup_traced(self, key: int) -> LookupTrace:
        """Lookup returning instrumentation for the cost model."""
        model_id, pred = self.predict(int(key))
        lo, hi = self.bounds.interval(pred, model_id)
        lo = max(lo, 0)
        hi = min(hi, self.n - 1)
        result = self._search(self.keys, key, lo, hi, pred)
        position, comparisons = result.position, result.comparisons
        # Containment is only guaranteed for keys present in the array;
        # fall back to an unrestricted search when a miss escapes the
        # interval (possible for absent keys under tight bounds).
        if self.bounds.provides_bounds:
            position, comparisons = self._escape_interval(
                key, position, comparisons, lo, hi
            )
        return LookupTrace(
            position=position,
            model_evaluations=len(self.layer_sizes),
            comparisons=comparisons,
            interval_size=hi - lo + 1,
            prediction=pred,
        )

    def _escape_interval(
        self, key: int, position: int, comparisons: int, lo: int, hi: int
    ) -> tuple[int, int]:
        """Repair interval-relative results for out-of-bounds misses."""
        if position == lo and lo > 0 and self.keys[lo - 1] >= key:
            # The key left of the interval is still >= key, so the true
            # lower bound lies further left (absent key or duplicates
            # spilling over the interval edge).
            result = self._search(self.keys, key, 0, lo - 1, lo - 1)
            return result.position, comparisons + result.comparisons
        if position == hi + 1 and hi + 1 < self.n:
            # Everything in the interval is < key; continue right.
            result = self._search(self.keys, key, hi + 1, self.n - 1, hi + 1)
            return result.position, comparisons + result.comparisons
        return position, comparisons

    def range_query(self, low: int, high: int) -> tuple[int, int]:
        """Keys in ``[low, high)`` as ``(start position, count)``."""
        if high < low:
            raise ValueError("range_query requires low <= high")
        start = self.lookup(low)
        end = self.lookup(high)
        return start, end - start

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vectorized lower-bound lookup (binary error correction).

        Used by the workload runner for wall-clock throughput; performs
        the same window-restricted work as scalar lookups with ``bin``
        search, batched across queries.
        """
        queries = np.asarray(queries, dtype=np.uint64)
        state = self._kernel_state()
        if state is not None:
            backend, packed = state
            return backend.rmi_lookup(packed, self.keys, queries)
        model_ids, preds = self.predict_batch(queries)
        lo, hi = self.bounds.intervals(preds, model_ids)
        lo = np.clip(lo, 0, self.n - 1)
        hi = np.clip(hi, 0, self.n - 1)
        # The shared completion repairs misses that escaped their
        # interval (absent keys or duplicate runs crossing the edge),
        # the batch counterpart of _escape_interval.
        return _kernels.get_backend().lower_bound_window(
            self.keys, queries, lo, hi
        )

    def range_query_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`range_query`: ``(start positions, counts)``,
        the :meth:`serve_batch` of no points."""
        return self.serve_batch(NO_QUERIES, lows, highs)[1:]

    def serve_batch(
        self,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused serving unit: ``(positions, range_starts, range_counts)``.

        Same contract as ``OrderedIndex.serve_batch``, range check
        included.  On a compiled backend the whole batch -- routing,
        prediction, bounded search with escape repair, for points and
        both range boundaries -- runs in one kernel call without
        returning to Python between stages; otherwise one staged
        :meth:`lookup_batch` ranks them all.
        """
        state = self._kernel_state()
        if state is not None:
            backend, packed = state
            return backend.rmi_serve(packed, self.keys, point_queries,
                                     range_lows, range_highs)
        return serve_by_lookup(self.lookup_batch, point_queries,
                               range_lows, range_highs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def leaf_model_ids(self) -> np.ndarray:
        """Last-layer model id of every indexed key (training routing).

        A kernel build keeps only the per-leaf counts of its sorted
        routing; the per-key ids are derived from them on first access.
        """
        if self._leaf_model_ids is None:
            counts = self._leaf_counts
            assert counts is not None
            self._leaf_model_ids = np.repeat(
                np.arange(len(counts), dtype=np.int64), counts
            )
        return self._leaf_model_ids

    def size_in_bytes(self) -> int:
        """Index size: all model parameters plus stored error bounds.

        Matches the paper's accounting: the sorted data array itself is
        not part of the index.
        """
        model_bytes = sum(layer.size_in_bytes() for layer in self.layers)
        return model_bytes + self.bounds.size_in_bytes()

    def describe(self) -> str:
        """Human-readable configuration string, e.g. ``LS→LR (2^10), LAbs``."""
        arrow = "→".join(t.abbreviation.upper() for t in self.model_types)
        sizes = ",".join(str(s) for s in self.layer_sizes[1:])
        return f"{arrow} ({sizes}), {self.bounds.abbreviation.upper()}, {self.search_name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RMI {self.describe()} over {self.n} keys>"


def build_rmi_layers(
    keys: np.ndarray,
    root: str = "ls",
    leaf: str = "lr",
    num_leaf_models: int = 1024,
    **kwargs,
) -> RMI:
    """Convenience constructor for the two-layer RMIs of the paper."""
    return RMI(
        keys,
        layer_sizes=[num_leaf_models],
        model_types=(root, leaf),
        **kwargs,
    )
