"""Self-tuning serving: the closed-loop autotuner control plane.

The serving tier answers queries; this package decides *what should be
serving them*.  A near-zero-overhead :class:`~repro.autotune.sampler.
WorkloadSampler` taps live traffic into a bounded reservoir; the
:class:`~repro.autotune.planner.Planner` scores candidate index
configurations (families, RMI tuning grid, kernel backends) with the
calibrated cost model against the observed profile; the
:class:`~repro.autotune.controller.AutoTuner` applies hysteresis, then
swaps the winner in through the served index's one rebuild path (built
off-thread over the live keys, probe-checked before it is published,
zero request loss) and rolls back -- another rebuild, with the previous
factory -- if the measured p99 regresses.  Every
decision is auditable through the :class:`~repro.autotune.report.
DecisionJournal`, including how each swap's predicted improvement held
up against the measured one.
"""

from .controller import (
    AutoTuner,
    TunerConfig,
    TunerTarget,
    infer_config,
)
from .planner import (
    DEFAULT_FAMILIES,
    CandidateConfig,
    CandidateScore,
    Plan,
    Planner,
    kernel_family,
)
from .report import DecisionJournal
from .sampler import WorkloadProfile, WorkloadSampler

__all__ = [
    "WorkloadSampler",
    "WorkloadProfile",
    "Planner",
    "Plan",
    "CandidateConfig",
    "CandidateScore",
    "DEFAULT_FAMILIES",
    "kernel_family",
    "AutoTuner",
    "TunerConfig",
    "TunerTarget",
    "infer_config",
    "DecisionJournal",
]
