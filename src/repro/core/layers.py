"""Struct-of-arrays (SoA) layer tables for RMIs.

A trained RMI layer is logically a list of models, but storing it as one
Python object per segment makes every whole-layer operation (training,
routing, bounds, size accounting) a Python loop.  :class:`LayerTable`
stores a layer as two arrays instead:

``codes``
    ``int8`` model-family code per segment (:data:`SOA_MODEL_CODES`);
``params``
    ``(fanout, SOA_PARAM_COLUMNS)`` float64 parameter matrix, rows laid
    out in dataclass field order — the same layout ``core/serialize.py``
    writes to disk.

Individual :class:`~repro.core.models.Model` objects are materialized
lazily on ``layer[j]`` access and cached, so code written against the
list-of-models interface (``layers[d][j]``, iteration, ``len``) keeps
working unchanged.  Layers containing model types outside the SoA
registry (e.g. the neural extension) fall back to plain object storage
with the same interface.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .models import (
    SOA_CODE_MODELS,
    SOA_MODEL_CODES,
    SOA_MODEL_SIZES,
    SOA_PARAM_COLUMNS,
    ConstantModel,
    LinearRegression,
    LinearSpline,
    Model,
)

__all__ = ["LayerTable"]

_CONST_CODE = SOA_MODEL_CODES[ConstantModel]
_LR_CODE = SOA_MODEL_CODES[LinearRegression]
_LS_CODE = SOA_MODEL_CODES[LinearSpline]


class LayerTable:
    """One RMI layer as a struct-of-arrays parameter table.

    Construct either from SoA arrays (``LayerTable(codes, params)``,
    the grouped-fit output) or from model objects
    (:meth:`from_models`).  The table behaves like a read-mostly list
    of models; assigning ``layer[j] = model`` updates the underlying
    parameter row (or demotes the table to object storage for
    unregistered model types).
    """

    #: Mutation counter of every table: bumped by ``__setitem__`` so
    #: consumers caching derived views (the kernels' ``PackedRMI``) can
    #: detect staleness with one read.
    mutations = 0

    def __init__(self, codes: np.ndarray, params: np.ndarray) -> None:
        codes = np.asarray(codes, dtype=np.int8)
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (len(codes), SOA_PARAM_COLUMNS):
            raise ValueError(
                f"params shape {params.shape} does not match "
                f"({len(codes)}, {SOA_PARAM_COLUMNS})"
            )
        self.codes: "np.ndarray | None" = codes
        self.params: "np.ndarray | None" = params
        self._cache: dict[int, Model] = {}
        self._objects: "list[Model] | None" = None

    @classmethod
    def from_models(
        cls, models: Sequence[Model], soa: bool = True
    ) -> "LayerTable":
        """Wrap a list of models, extracting SoA arrays when possible.

        Falls back to object storage if any model's type is not in the
        SoA registry.  ``soa=False`` skips the extraction and stores
        objects unconditionally — the reference representation, whose
        whole-layer operations run the per-model Python loops (used by
        ``grouped_fit=False`` builds to preserve pre-SoA semantics).
        """
        models = list(models)
        if soa and all(type(m) in SOA_MODEL_CODES for m in models):
            codes = np.asarray(
                [SOA_MODEL_CODES[type(m)] for m in models], dtype=np.int8
            )
            params = (
                np.asarray([m.soa_row() for m in models], dtype=np.float64)
                if models
                else np.zeros((0, SOA_PARAM_COLUMNS), dtype=np.float64)
            )
            table = cls(codes, params)
            table._cache = dict(enumerate(models))
            return table
        table = cls.__new__(cls)
        table.codes = None
        table.params = None
        table._cache = {}
        table._objects = list(models)
        return table

    # -- list-of-models interface --------------------------------------

    def __len__(self) -> int:
        if self._objects is not None:
            return len(self._objects)
        assert self.codes is not None
        return len(self.codes)

    def __getitem__(self, j: int) -> Model:
        if self._objects is not None:
            return self._objects[j]
        assert self.codes is not None and self.params is not None
        j = int(j)
        if j < 0:
            j += len(self.codes)
        if not 0 <= j < len(self.codes):
            raise IndexError(j)
        model = self._cache.get(j)
        if model is None:
            model = SOA_CODE_MODELS[int(self.codes[j])].from_soa_row(
                self.params[j]
            )
            self._cache[j] = model
        return model

    def __setitem__(self, j: int, model: Model) -> None:
        LayerTable.mutations += 1
        if self._objects is not None:
            self._objects[j] = model
            return
        assert self.codes is not None and self.params is not None
        j = int(j)
        if j < 0:
            j += len(self.codes)
        if type(model) in SOA_MODEL_CODES:
            self.codes[j] = SOA_MODEL_CODES[type(model)]
            self.params[j] = model.soa_row()
            self._cache[j] = model
        else:
            # Unregistered type: demote the whole layer to object mode.
            self._objects = [self[i] for i in range(len(self))]
            self._objects[j] = model
            self.codes = None
            self.params = None
            self._cache = {}

    def __iter__(self) -> Iterator[Model]:
        for j in range(len(self)):
            yield self[j]

    # -- whole-layer operations ----------------------------------------

    def predict_routed(
        self, queries: np.ndarray, model_ids: np.ndarray
    ) -> np.ndarray:
        """Evaluate model ``model_ids[i]`` on ``queries[i]`` for all i.

        The SoA path is one parameter gather plus one ``eval_soa`` call
        per distinct model family present among the routed rows (at
        most a handful); results are bit-identical to calling each
        model's ``predict_batch``.
        """
        if len(self) == 1:
            return self[0].predict_batch(queries)
        if self._objects is not None:
            out = np.empty(len(queries), dtype=np.float64)
            for j in np.unique(model_ids):
                mask = model_ids == j
                out[mask] = self._objects[j].predict_batch(queries[mask])
            return out
        assert self.codes is not None and self.params is not None
        rows = self.params[model_ids]
        row_codes = self.codes[model_ids]
        present = np.unique(row_codes)
        if len(present) == 1:
            return SOA_CODE_MODELS[int(present[0])].eval_soa(rows, queries)
        out = np.empty(len(queries), dtype=np.float64)
        for code in present:
            mask = row_codes == code
            out[mask] = SOA_CODE_MODELS[int(code)].eval_soa(
                rows[mask], queries[mask]
            )
        return out

    def linear_params(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """``(slopes, intercepts)`` when every model is linear in x.

        Only ConstantModel / LinearRegression / LinearSpline qualify —
        notably *not* LogLinear, which also stores a slope/intercept
        pair but is linear in ``log1p(x)``.  Returns ``None`` for mixed
        layers.
        """
        if self._objects is not None:
            slopes = np.empty(len(self._objects), dtype=np.float64)
            intercepts = np.empty(len(self._objects), dtype=np.float64)
            for j, m in enumerate(self._objects):
                if isinstance(m, (LinearRegression, LinearSpline)):
                    slopes[j] = m.slope
                    intercepts[j] = m.intercept
                elif isinstance(m, ConstantModel):
                    slopes[j] = 0.0
                    intercepts[j] = m.value
                else:
                    return None
            return slopes, intercepts
        assert self.codes is not None and self.params is not None
        if not bool(
            np.isin(self.codes, (_CONST_CODE, _LR_CODE, _LS_CODE)).all()
        ):
            return None
        is_const = self.codes == _CONST_CODE
        slopes = np.where(is_const, 0.0, self.params[:, 0])
        intercepts = np.where(is_const, self.params[:, 0], self.params[:, 1])
        return slopes, intercepts

    def size_in_bytes(self) -> int:
        """Parameter bytes of the whole layer (Table 2 accounting)."""
        if self._objects is not None:
            return sum(m.size_in_bytes() for m in self._objects)
        assert self.codes is not None
        values, counts = np.unique(self.codes, return_counts=True)
        return int(
            sum(SOA_MODEL_SIZES[int(c)] * int(k) for c, k in zip(values, counts))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "objects" if self._objects is not None else "soa"
        return f"<LayerTable {len(self)} models, {mode}>"
