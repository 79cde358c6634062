"""Configuration objects and convenience constructors for RMIs.

Encodes the paper's hyperparameter space (Section 4.2) and its final
recommendations (Section 9.1) as first-class, validated configuration
values, so experiments and user code share one vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .bounds import resolve_bound_type
from .models import resolve_model_type
from .rmi import RMI
from .search import resolve_search_algorithm

__all__ = [
    "RMIConfig",
    "build_rmi",
    "DEFAULT_CONFIG",
    "guideline_config",
    "ROOT_MODEL_TYPES",
    "LEAF_MODEL_TYPES",
    "LAYER2_SIZE_SWEEP",
]

#: Root model types evaluated in the paper (Table 2).
ROOT_MODEL_TYPES: tuple[str, ...] = ("lr", "ls", "cs", "rx")

#: Last-layer model types evaluated in the paper ("For the last layer,
#: we only consider LR and LS", Section 4.2).
LEAF_MODEL_TYPES: tuple[str, ...] = ("lr", "ls")

#: The paper sweeps the second-layer size between 2^8 and 2^24 in
#: power-of-two steps (Section 4.2).  Callers slice this to their scale.
LAYER2_SIZE_SWEEP: tuple[int, ...] = tuple(2**e for e in range(8, 25))


@dataclass(frozen=True)
class RMIConfig:
    """A fully specified two-or-more-layer RMI configuration.

    Defaults follow the paper's Section 8 comparison configuration:
    ``LS→LR with LAbs`` and binary search, which "achieved optimal or
    near-optimal lookup performance" in the paper's experiments.
    """

    model_types: tuple[str, ...] = ("ls", "lr")
    layer_sizes: tuple[int, ...] = (1024,)
    bound_type: str = "labs"
    search: str = "bin"
    copy_keys: bool = False
    train_on_model_index: bool = True
    cs_fallback: bool = True
    #: Train multi-model layers with the grouped closed-form fitters and
    #: store them as struct-of-arrays tables.  ``False`` selects the
    #: per-segment reference path (Listing 1 semantics): one ``fit``
    #: call per segment and object-mode layers.
    grouped_fit: bool = True

    def __post_init__(self) -> None:
        # Fail fast on invalid names/shapes; the resolvers raise
        # ValueError with the known alternatives.
        for t in self.model_types:
            resolve_model_type(t)
        resolve_bound_type(self.bound_type)
        resolve_search_algorithm(self.search)
        if len(self.model_types) != len(self.layer_sizes) + 1:
            raise ValueError(
                "model_types must have exactly one more entry than layer_sizes"
            )
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")

    @property
    def num_layers(self) -> int:
        return len(self.model_types)

    def describe(self) -> str:
        """Paper-style description, e.g. ``LS→LR (2^10), LAbs, bin``."""
        arrow = "→".join(t.upper() for t in self.model_types)
        sizes = ",".join(
            f"2^{int(np.log2(s))}" if s & (s - 1) == 0 else str(s)
            for s in self.layer_sizes
        )
        return f"{arrow} ({sizes}), {self.bound_type.upper()}, {self.search}"

    def with_layer2_size(self, size: int) -> "RMIConfig":
        """Copy of this config with a different (two-layer) second layer."""
        return replace(self, layer_sizes=(int(size),) + self.layer_sizes[1:])

    def build(self, keys: np.ndarray) -> RMI:
        """Train an RMI with this configuration over ``keys``."""
        return RMI(keys, **self._rmi_params())

    def build_steps(self, keys: np.ndarray):
        """:meth:`build` in bounded steps, or ``None`` when it has none
        (:meth:`RMI.build_steps`)."""
        return RMI.build_steps(keys, **self._rmi_params())

    def _rmi_params(self) -> dict:
        return dict(
            layer_sizes=self.layer_sizes,
            model_types=self.model_types,
            bound_type=self.bound_type,
            search=self.search,
            copy_keys=self.copy_keys,
            train_on_model_index=self.train_on_model_index,
            cs_fallback=self.cs_fallback,
            grouped_fit=self.grouped_fit,
        )


#: The fixed configuration used in the paper's Section 8 comparison.
DEFAULT_CONFIG = RMIConfig()


def guideline_config(num_keys: int) -> RMIConfig:
    """The paper's Section 9.1 guideline configuration for a dataset.

    * spline root, ``LS`` preferred;
    * ``LR`` on the second layer;
    * second-layer size of at least 0.01 % of the number of keys
      (rounded up to the next power of two, clamped to [2^8, 2^24]);
    * local absolute bounds with binary search.
    """
    minimum = max(int(num_keys * 0.0001), 1)
    size = 1 << (minimum - 1).bit_length()  # next power of two
    size = min(max(size, 2**8), 2**24)
    return RMIConfig(layer_sizes=(size,))


def build_rmi(
    keys: np.ndarray, config: RMIConfig | None = None, **overrides
) -> RMI:
    """Build an RMI from a config (default: the paper's Section 8 config).

    Keyword overrides are applied on top of the config, e.g.
    ``build_rmi(keys, bound_type="lind")``.
    """
    cfg = config or DEFAULT_CONFIG
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.build(keys)


def sweep_configs(
    base: RMIConfig, layer2_sizes: Iterable[int]
) -> list[RMIConfig]:
    """Expand a base config over a second-layer size sweep."""
    return [base.with_layer2_size(s) for s in layer2_sizes]
