"""Candidate enumeration and cost-model scoring for the autotuner.

The planner answers one question: *given the traffic we actually see,
which servable config should this index be?*  Candidates come from the
advisor's eligible families (:func:`repro.core.advisor.
eligible_families`) plus an RMI tuning grid (layer2 size, bound type,
search algorithm); each is scored with the calibrated analytic
:class:`~repro.cost.model.CostModel` against the observed
:class:`~repro.autotune.sampler.WorkloadProfile`.

**Miniature probing.**  Scoring a candidate does not build it at full
scale.  Instead the planner builds a scaled-down twin on a bounded key
sample, answers the profile's own sampled queries through it while
tracing per-query operation counts (model evaluations, comparisons,
search-interval widths -- the same counters the workload runner
traces), and scales the counts to full size before pricing them:

* RMI twins keep *keys-per-leaf* constant (the mini layer2 is scaled
  down with the sample), so the traced intervals transfer directly;
* tree/PLA descent depths scale by ``log(n) / log(n_sample)``;
* a plain binary search's interval is the array, scaling by
  ``n / n_sample``;
* structure bytes scale linearly with ``n`` for cache-residency
  pricing, and the profile's ``coverage`` (access skew) shrinks the
  *effective* resident bytes -- hot-key traffic runs out of cache even
  when the structure does not fit.

Per-query nanosecond estimates then roll up into predicted p50/p99 via
plain quantiles, which makes the ranking provably invariant to the
order of the profile's sample (a property the test suite pins).  The
fixed dispatch overhead of the executing kernel backend comes from the
per-``(backend, family)`` calibration
(:func:`repro.cost.calibrate.cached_kernel_overhead`), served through
the artifact cache so no pair is ever re-probed on a machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from ..baselines import INDEX_TYPES, RMIAsIndex, UnsupportedDataError
from ..core.advisor import WorkloadRequirements, eligible_families
from ..core.builder import RMIConfig
from ..cost.model import CostModel
from ..writable.rebuild import IndexFactory
from .sampler import WorkloadProfile

__all__ = [
    "CandidateConfig",
    "CandidateScore",
    "Plan",
    "Planner",
    "DEFAULT_FAMILIES",
    "kernel_family",
]

#: Families the planner considers by default: every family the serving
#: tier can build quickly from a key array and answer the batch
#: contract with.  (The scalar-heavy tries are advisory-only here.)
DEFAULT_FAMILIES = (
    "rmi", "pgm-index", "radix-spline", "b-tree", "hist-tree",
    "binary-search",
)

#: Index family -> calibration kernel family (the per-(backend, family)
#: dispatch-overhead probe of :mod:`repro.cost.calibrate`).
_KERNEL_FAMILY = {
    "rmi": "rmi",
    "pgm-index": "pla",
    "compressed-pgm": "pla",
    "radix-spline": "pla",
    "fiting-tree": "pla",
    "b-tree": "tree",
    "hist-tree": "tree",
}

#: Families whose evaluation phase is a depth-logarithmic descent, so
#: mini-probe evaluation steps scale by log(n)/log(n_sample).
_LOG_DEPTH_FAMILIES = frozenset((
    "pgm-index", "compressed-pgm", "b-tree", "hist-tree", "art", "alex",
    "fast", "fiting-tree",
))


def kernel_family(family: str) -> str:
    """The calibration family whose dispatch overhead prices ``family``."""
    return _KERNEL_FAMILY.get(family, "search")


@dataclass(frozen=True)
class CandidateConfig:
    """One servable configuration the planner can score and build."""

    family: str
    #: RMI grid knobs (``None`` for non-RMI families).
    layer2_size: "int | None" = None
    bound_type: str = "labs"
    search: str = "bin"
    #: Kernel backend name the candidate would serve under.
    backend: str = "numpy"

    def key(self) -> str:
        """Stable identity string (journal/streak bookkeeping)."""
        if self.family == "rmi":
            return (f"rmi[l2={self.layer2_size},{self.bound_type},"
                    f"{self.search}]@{self.backend}")
        return f"{self.family}@{self.backend}"

    def describe(self) -> str:
        if self.family == "rmi":
            return (f"rmi layer2={self.layer2_size} "
                    f"{self.bound_type}/{self.search}")
        return self.family

    def rmi_config(self) -> RMIConfig:
        if self.family != "rmi":
            raise ValueError(f"{self.family} has no RMI config")
        return RMIConfig(
            layer_sizes=(int(self.layer2_size or 1024),),
            bound_type=self.bound_type,
            search=self.search,
        )

    def factory(self) -> "IndexFactory":
        """Picklable ``factory(keys)`` building this candidate; it carries
        the whole configuration, so every later rebuild keeps it."""
        if self.family == "rmi":
            return IndexFactory(RMIAsIndex, self.rmi_config())
        return IndexFactory(INDEX_TYPES[self.family])


@dataclass
class CandidateScore:
    """One scored candidate: the ranking entry of a :class:`Plan`."""

    config: CandidateConfig
    predicted_p50_ns: float
    predicted_p99_ns: float
    predicted_mean_ns: float
    index_bytes: int
    #: Estimated full-scale build seconds (mini build time scaled).
    estimated_build_s: float
    #: Explanations: advisor sentences plus scoring notes.
    reasons: "list[str]" = field(default_factory=list)

    def finite(self) -> bool:
        return all(np.isfinite(v) for v in (
            self.predicted_p50_ns, self.predicted_p99_ns,
            self.predicted_mean_ns,
        ))

    def to_json(self) -> "dict[str, Any]":
        return {
            "config": self.config.key(),
            "family": self.config.family,
            "describe": self.config.describe(),
            "predicted_p50_ns": round(self.predicted_p50_ns, 2),
            "predicted_p99_ns": round(self.predicted_p99_ns, 2),
            "predicted_mean_ns": round(self.predicted_mean_ns, 2),
            "index_bytes": int(self.index_bytes),
            "estimated_build_s": round(self.estimated_build_s, 4),
            "reasons": list(self.reasons),
        }


@dataclass
class Plan:
    """An explainable ranked plan over the candidate set."""

    ranked: "list[CandidateScore]"
    profile: WorkloadProfile
    n: int
    sample_n: int
    backend: str
    skipped: "dict[str, str]" = field(default_factory=dict)

    @property
    def winner(self) -> "CandidateScore | None":
        return self.ranked[0] if self.ranked else None

    def score_of(self, key: str) -> "CandidateScore | None":
        for cand in self.ranked:
            if cand.config.key() == key:
                return cand
        return None

    def finite(self) -> bool:
        return bool(self.ranked) and all(c.finite() for c in self.ranked)

    def to_json(self) -> "dict[str, Any]":
        return {
            "n": int(self.n),
            "sample_n": int(self.sample_n),
            "backend": self.backend,
            "profile": self.profile.to_json(),
            "ranked": [c.to_json() for c in self.ranked],
            "skipped": dict(self.skipped),
        }

    def explain(self) -> str:
        """Human-readable plan: ranking, predictions, reasoning."""
        prof = self.profile
        lines = [
            f"plan over n={self.n:,} keys (mini sample {self.sample_n:,}, "
            f"backend {self.backend}): "
            f"{prof.requests:,} requests observed, "
            f"{prof.range_fraction * 100:.1f}% ranges, "
            f"coverage {prof.coverage:.2f}, "
            f"absent {prof.absent_fraction * 100:.1f}%",
        ]
        for rank, cand in enumerate(self.ranked, start=1):
            lines.append(
                f"{rank:2}. {cand.config.describe():<34} "
                f"p50 {cand.predicted_p50_ns:9.1f}ns  "
                f"p99 {cand.predicted_p99_ns:9.1f}ns  "
                f"{cand.index_bytes:12,}B"
            )
            for reason in cand.reasons:
                lines.append(f"      - {reason}")
        for family, why in self.skipped.items():
            lines.append(f"    (skipped {family}: {why})")
        return "\n".join(lines)


class Planner:
    """Score candidate configs against an observed workload profile."""

    def __init__(
        self,
        *,
        families: "tuple[str, ...] | None" = None,
        rmi_layer2_sizes: "tuple[int, ...]" = (1024, 16384),
        rmi_bound_types: "tuple[str, ...]" = ("labs",),
        rmi_searches: "tuple[str, ...]" = ("bin",),
        requirements: "WorkloadRequirements | None" = None,
        backend: "str | None" = None,
        sample_keys: int = 8192,
        probe_queries: int = 512,
        cost_model: "CostModel | None" = None,
        calibrate: bool = True,
        seed: int = 0,
    ) -> None:
        self.families = tuple(families) if families else DEFAULT_FAMILIES
        self.rmi_layer2_sizes = tuple(int(s) for s in rmi_layer2_sizes)
        self.rmi_bound_types = tuple(rmi_bound_types)
        self.rmi_searches = tuple(rmi_searches)
        self.requirements = requirements or WorkloadRequirements()
        self.sample_keys = max(int(sample_keys), 256)
        self.probe_queries = max(int(probe_queries), 16)
        self.cost_model = cost_model or CostModel()
        self.calibrate = calibrate
        self.seed = seed
        from ..kernels import get_backend

        self.backend = get_backend(backend).name
        self._overhead_memo: "dict[str, float]" = {}

    # -- calibration -----------------------------------------------------

    def _overhead_ns(self, family: str) -> float:
        """Calibrated per-lookup dispatch overhead for this backend and
        the candidate's kernel family (cached; probed at most once)."""
        if not self.calibrate:
            return float(self.cost_model.per_lookup_overhead_ns)
        kfam = kernel_family(family)
        hit = self._overhead_memo.get(kfam)
        if hit is None:
            from ..cost.calibrate import cached_kernel_overhead

            try:
                result = cached_kernel_overhead(self.backend, family=kfam)
                hit = float(result["per_lookup_overhead_ns"])
            except Exception:
                hit = float(self.cost_model.per_lookup_overhead_ns)
            self._overhead_memo[kfam] = hit
        return hit

    # -- candidate enumeration -------------------------------------------

    def candidates(
        self,
        key_sample: np.ndarray,
        current: "CandidateConfig | None" = None,
    ) -> "tuple[list[CandidateConfig], dict[str, str]]":
        """The candidate set plus the skip map (family -> reason)."""
        eligible = eligible_families(self.requirements, key_sample)
        out: "list[CandidateConfig]" = []
        skipped: "dict[str, str]" = {}
        for family in self.families:
            if family not in INDEX_TYPES:
                skipped[family] = "no registered index type"
                continue
            if family not in eligible:
                skipped[family] = ("excluded by the advisor for these "
                                   "requirements/data")
                continue
            if family == "rmi":
                for layer2 in self.rmi_layer2_sizes:
                    for bound in self.rmi_bound_types:
                        for search in self.rmi_searches:
                            out.append(CandidateConfig(
                                family="rmi", layer2_size=int(layer2),
                                bound_type=bound, search=search,
                                backend=self.backend,
                            ))
            else:
                out.append(CandidateConfig(family=family,
                                           backend=self.backend))
        if current is not None:
            current = replace(current, backend=self.backend)
            if all(c.key() != current.key() for c in out):
                # The incumbent is always scored, even when the advisor
                # would exclude it -- improvement is measured against it.
                out.append(current)
        return out, skipped

    # -- scoring ---------------------------------------------------------

    def plan(
        self,
        keys: np.ndarray,
        profile: WorkloadProfile,
        current: "CandidateConfig | None" = None,
    ) -> Plan:
        """Rank every candidate for ``keys`` under ``profile``."""
        keys = np.asarray(keys)
        n = len(keys)
        if n == 0:
            raise ValueError("cannot plan over an empty key array")
        # Evenly strided sorted sample: the mini twins' training data.
        stride = max(n // self.sample_keys, 1)
        key_sample = np.ascontiguousarray(keys[::stride][:self.sample_keys],
                                          dtype=np.uint64)
        n_s = len(key_sample)
        probes = self._probe_queries(keys, profile)
        eligibility = eligible_families(self.requirements, key_sample)
        candidates, skipped = self.candidates(key_sample, current)
        scored: "list[CandidateScore]" = []
        for config in candidates:
            try:
                score = self._score(config, key_sample, probes, n, n_s,
                                    profile)
            except UnsupportedDataError as exc:
                skipped[config.key()] = f"unsupported data: {exc}"
                continue
            advisor_notes = eligibility.get(config.family)
            if advisor_notes:
                score.reasons = list(advisor_notes) + score.reasons
            scored.append(score)
        scored.sort(key=lambda c: (c.predicted_p99_ns,
                                   c.predicted_p50_ns, c.config.key()))
        return Plan(ranked=scored, profile=profile, n=n, sample_n=n_s,
                    backend=self.backend, skipped=skipped)

    def _probe_queries(self, keys: np.ndarray,
                       profile: WorkloadProfile) -> np.ndarray:
        """The query set candidates are probed with.

        The profile's reservoir *is* the workload (skew and absent keys
        included); sorted so the result depends only on the sample's
        multiset, never its order.  An empty profile falls back to an
        evenly strided key sample -- a uniform synthetic stand-in.
        """
        if len(profile.sample):
            probes = np.sort(np.asarray(profile.sample, dtype=np.uint64))
        else:
            stride = max(len(keys) // self.probe_queries, 1)
            probes = np.ascontiguousarray(
                keys[::stride][:self.probe_queries], dtype=np.uint64
            )
        if len(probes) > self.probe_queries:
            take = np.linspace(0, len(probes) - 1, self.probe_queries,
                               dtype=np.int64)
            probes = probes[take]
        return probes

    def _score(
        self,
        config: CandidateConfig,
        key_sample: np.ndarray,
        probes: np.ndarray,
        n: int,
        n_s: int,
        profile: WorkloadProfile,
    ) -> CandidateScore:
        """Score one candidate via its miniature twin."""
        reasons: "list[str]" = []
        t0 = time.perf_counter()
        mini = self._build_mini(config, key_sample, n, n_s)
        build_s = time.perf_counter() - t0
        evals, comps, intervals = _trace(mini, probes)
        scale = float(n) / float(n_s)
        if config.family == "rmi":
            # Keys-per-leaf preserved: intervals and depth transfer.
            eval_note = "RMI depth is layer count; intervals transfer " \
                        "at constant keys-per-leaf"
            index_bytes = int(mini.size_in_bytes() * scale)
        elif config.family == "binary-search":
            intervals = intervals * scale
            eval_note = "binary search: interval is the whole array"
            index_bytes = mini.size_in_bytes()
        else:
            if config.family in _LOG_DEPTH_FAMILIES:
                depth_scale = (np.log2(max(n, 2))
                               / np.log2(max(n_s, 2)))
                evals = evals * depth_scale
                eval_note = (f"descent depth scaled by log(n)/log(n_s) "
                             f"= {depth_scale:.2f}")
            else:
                eval_note = "evaluation steps transfer unscaled"
            index_bytes = int(mini.size_in_bytes() * scale)
        algo = config.search if config.family == "rmi" else "bin"
        coverage = max(min(float(profile.coverage), 1.0), 1e-3)
        index_res = max(int(index_bytes * coverage), 1)
        data_res = max(int(n * 8 * coverage), 1)
        cm = self.cost_model
        per_query = np.empty(len(probes), dtype=np.float64)
        for i in range(len(probes)):
            e = cm.evaluation_ns(float(evals[i]), index_res)
            s = cm.search_ns(algo, float(comps[i]), float(intervals[i]),
                             data_res)
            per_query[i] = e + s
        overhead = self._overhead_ns(config.family)
        # A range query is two lower-bound lookups.
        range_mult = 1.0 + profile.range_fraction
        per_query = per_query * range_mult + overhead
        reasons.append(eval_note)
        reasons.append(
            f"scored on {len(probes)} profiled queries; coverage "
            f"{coverage:.2f} -> effective resident "
            f"{data_res / 1e6:.1f}MB data + {index_res / 1e6:.2f}MB index"
        )
        if overhead:
            reasons.append(
                f"+{overhead:.1f}ns calibrated "
                f"{self.backend}/{kernel_family(config.family)} dispatch "
                "overhead per lookup"
            )
        return CandidateScore(
            config=config,
            predicted_p50_ns=float(np.percentile(per_query, 50)),
            predicted_p99_ns=float(np.percentile(per_query, 99)),
            predicted_mean_ns=float(np.mean(per_query)),
            index_bytes=int(index_bytes),
            estimated_build_s=build_s * scale,
            reasons=reasons,
        )

    def _build_mini(self, config: CandidateConfig,
                    key_sample: np.ndarray, n: int, n_s: int) -> Any:
        if config.family != "rmi":
            return INDEX_TYPES[config.family](key_sample)
        layer2 = int(config.layer2_size or 1024)
        mini_layer2 = int(np.clip(round(layer2 * n_s / max(n, 1)), 4, n_s))
        cfg = RMIConfig(layer_sizes=(mini_layer2,),
                        bound_type=config.bound_type,
                        search=config.search)
        return RMIAsIndex(key_sample, layer2_size=mini_layer2, config=cfg)


def _trace(mini: Any, probes: np.ndarray):
    """Per-query (evaluation steps, comparisons, interval widths)."""
    m = len(probes)
    evals = np.empty(m, dtype=np.float64)
    comps = np.empty(m, dtype=np.float64)
    intervals = np.empty(m, dtype=np.float64)
    rmi = getattr(mini, "rmi", None)
    if rmi is not None:
        for i in range(m):
            t = rmi.lookup_traced(int(probes[i]))
            evals[i] = t.model_evaluations
            comps[i] = t.comparisons
            intervals[i] = max(t.interval_size, 1)
    else:
        for i in range(m):
            b = mini.search_bounds(int(probes[i]))
            width = max(b.hi - b.lo + 1, 1)
            evals[i] = b.evaluation_steps
            comps[i] = np.ceil(np.log2(width + 1))
            intervals[i] = width
    return evals, comps, intervals
