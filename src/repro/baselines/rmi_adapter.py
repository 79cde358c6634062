"""Adapter presenting an RMI through the common index interface.

Lets the comparison experiments (Figures 12-14) treat the RMI exactly
like every baseline: the evaluation phase yields a
:class:`~repro.baselines.interfaces.SearchBounds` (the error-bound
interval around the prediction) and the shared binary-search completion
performs the error correction -- matching the paper's Section 8 setup
where "we use binary search to find keys in that search range" for all
indexes.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

from ..core.builder import RMIConfig
from ..core.rmi import RMI
from .interfaces import OrderedIndex, SearchBounds

__all__ = ["RMIAsIndex"]


def _resolve_config(layer2_size: "int | None",
                    config: "RMIConfig | None") -> RMIConfig:
    """``config`` (default ``RMIConfig()``) with ``layer2_size``, when
    given, overriding its leaf count (1024 for the default config)."""
    cfg = config or RMIConfig()
    return cfg if layer2_size is None else cfg.with_layer2_size(layer2_size)


class RMIAsIndex(OrderedIndex):
    """The paper's fixed comparison RMI (LS→LR, LAbs) as an OrderedIndex."""

    name = "rmi"

    def __init__(self, keys: np.ndarray, layer2_size: "int | None" = None,
                 config: RMIConfig | None = None):
        # No OrderedIndex.__init__: the RMI rejects empty and unsorted
        # keys itself, and checking them twice costs every rebuild a
        # second O(n) pass (about 2.6 ms at 2M keys).
        self.config = _resolve_config(layer2_size, config)
        self._adopt(self.config.build(keys))

    @classmethod
    def build_steps(cls, keys: np.ndarray, layer2_size: "int | None" = None,
                    config: RMIConfig | None = None):
        """``RMIAsIndex(keys, layer2_size, config)`` in bounded steps, or
        ``None`` when the build has none (:meth:`RMI.build_steps`)."""
        cfg = _resolve_config(layer2_size, config)
        steps = cfg.build_steps(keys)
        return None if steps is None else cls._adopting(cfg, steps)

    @classmethod
    def _adopting(cls, cfg: RMIConfig, steps):
        rmi = yield from steps
        index = cls.__new__(cls)
        index.config = cfg
        index._adopt(rmi)
        return index

    def _adopt(self, rmi: RMI) -> None:
        self.rmi = rmi
        self.keys = rmi.keys
        self.n = rmi.n

    def search_bounds(self, key: int) -> SearchBounds:
        model_id, pred = self.rmi.predict(int(key))
        lo, hi = self.rmi.bounds.interval(pred, model_id)
        return SearchBounds(
            lo=max(lo, 0),
            hi=min(hi, self.n - 1),
            hint=pred,
            evaluation_steps=len(self.rmi.layer_sizes),
        )

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        return self.rmi.lookup_batch(np.asarray(queries, dtype=np.uint64))

    def serve_batch(
        self,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        # Delegate to the RMI's fused path: on a compiled kernel
        # backend the whole micro-batch (points + both range
        # boundaries) runs in a single kernel call.
        return self.rmi.serve_batch(point_queries, range_lows, range_highs)

    def warm_kernels(self) -> None:
        self.rmi.warm_kernels()

    def size_in_bytes(self) -> int:
        return self.rmi.size_in_bytes()

    def snapshot_state(self) -> "dict[str, np.ndarray]":
        # The RMI's own snapshot (keys excluded -- restore reattaches
        # them); only the small frozen config rides along as a byte blob.
        state = self.rmi.snapshot_state()
        state["config_pickle"] = np.frombuffer(
            pickle.dumps(self.config, protocol=pickle.HIGHEST_PROTOCOL),
            dtype=np.uint8,
        )
        return state

    @classmethod
    def restore_state(
        cls, keys: np.ndarray, state: "dict[str, np.ndarray]"
    ) -> "RMIAsIndex":
        obj = cls.__new__(cls)
        OrderedIndex.__init__(obj, keys)
        blob = np.asarray(state["config_pickle"], dtype=np.uint8)
        obj.config = pickle.loads(blob.tobytes())
        obj.rmi = RMI.restore_state(obj.keys, state)
        return obj

    def stats(self) -> dict[str, Any]:
        base = super().stats()
        base.update(config=self.config.describe())
        return base
