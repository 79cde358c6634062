"""The autotuner's control loop: observe, plan, hysteresis, swap, watch.

One :class:`AutoTuner` closes the loop around one serving target -- a
single-process :class:`~repro.serve.server.IndexServer` or one shard of
a :class:`~repro.serve.router.ShardRouter` cluster (per-shard tuners
see per-shard traffic, so shards legitimately converge to different
configs).  Each control window it:

1. diffs the target's metrics (:func:`~repro.serve.metrics.
   window_between`) to get the *window's* completed count and p99;
2. if a swap is pending measurement, attaches the post-swap p99 to the
   journal's swap record and **rolls back** when the measured p99
   regressed past the configured threshold -- within one window of the
   swap, by construction;
3. otherwise profiles the sampled traffic, asks the
   :class:`~repro.autotune.planner.Planner` for a ranked plan, and acts
   only when the winner's *predicted* p99 beats the incumbent's by the
   improvement threshold for ``hysteresis_windows`` consecutive windows
   (transient traffic shifts don't churn the index);
4. acting means one rebuild of the target with the winner's factory
   (:meth:`~repro.serve.server.IndexServer.rebuild`, in a cluster
   worker for a shard): the winner is built once, off the event loop,
   over the live keys, and checked against a ``searchsorted`` oracle on
   a probe set before it is published (a wrong index is journaled
   ``verify_failed`` and never swapped in), then hot-swapped -- zero
   in-flight requests dropped, and a writable index keeps its writes.
   The rebuild returns the previous factory; a rollback is another
   rebuild with it, over the keys live at that moment (one that raises
   is journaled ``rollback_failed`` and the swap keeps serving).

``dry_run`` stops at step 3: the ranked plan is journaled as a ``plan``
record and nothing is built or swapped.  Every decision (including the
quiet ``idle`` windows and thresholded ``hold``\\ s) lands in the
:class:`~repro.autotune.report.DecisionJournal`.

The loop is synchronous-testable: :meth:`AutoTuner.step` performs
exactly one control window and can be awaited directly with a test's
own clock and injected metrics; :meth:`AutoTuner.run` is just ``step``
on an ``interval_s`` timer.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..baselines import INDEX_TYPES, RMIAsIndex
from ..serve.metrics import window_between
from ..serve.router import ShardDeadError, answer_shard
from ..writable import IndexFactory, WritableIndex
from .planner import CandidateConfig, Plan, Planner
from .report import DecisionJournal

__all__ = [
    "TunerConfig",
    "AutoTuner",
    "TunerTarget",
    "ProbedFactory",
    "infer_config",
]


def infer_config(index: Any, backend: "str | None" = None) \
        -> "CandidateConfig | None":
    """Reverse-map a served index, or the ``IndexFactory`` that builds
    it, to its :class:`CandidateConfig`.

    Lets the controller score the incumbent without being told what it
    is.  A writable index is scored by its base, which is what the
    tuner swaps.  Returns ``None`` for indexes outside the registry --
    the tuner then takes the first planned winner at exactly the
    improvement threshold.
    """
    from ..kernels import get_backend

    be = get_backend(backend).name
    if not isinstance(index, IndexFactory):
        if isinstance(index, WritableIndex):
            index = index.base
        index = IndexFactory.of(index)
    if index.cls is RMIAsIndex:
        cfg = index.config
        return CandidateConfig(
            family="rmi",
            layer2_size=int(cfg.layer_sizes[-1]),
            bound_type=cfg.bound_type,
            search=cfg.search,
            backend=be,
        )
    for name, cls in INDEX_TYPES.items():
        if index.cls is cls:
            return CandidateConfig(family=name, backend=be)
    return None


@dataclass
class TunerConfig:
    """Knobs of the control loop (hysteresis and rollback in one place)."""

    #: Seconds between control windows in :meth:`AutoTuner.run`.
    interval_s: float = 5.0
    #: Minimum predicted p99 improvement to consider acting: the winner
    #: must satisfy ``winner_p99 <= incumbent_p99 * (1 - threshold)``.
    improvement_threshold: float = 0.10
    #: Consecutive windows the *same* winner must clear the threshold
    #: before a swap happens.
    hysteresis_windows: int = 2
    #: Measured post-swap regression that triggers rollback:
    #: ``post_p99 > pre_p99 * (1 + rollback_threshold)`` undoes the swap.
    rollback_threshold: float = 0.25
    #: Windows with fewer completed requests than this are ``idle`` --
    #: too quiet to profile or to judge a pending swap.
    min_window_requests: int = 256
    #: Probe set size for pre-swap correctness verification.
    probe_set_size: int = 512
    #: Plan and journal, but never build or swap.
    dry_run: bool = False
    #: Optional cap on lifetime swaps (``None`` = unlimited).
    max_swaps: "int | None" = None
    #: Windows to keep waiting for a measurable post-swap window before
    #: giving up on the measurement (quiet-traffic safety valve).
    measure_patience: int = 5


class TunerTarget:
    """The tuner's handle on an :class:`~repro.serve.server.IndexServer`
    or on shard ``shard_id`` of a :class:`~repro.serve.router.ShardRouter`.

    It asks the target the shard calls of
    :func:`~repro.serve.router.answer_shard`: ``describe`` (what it
    serves, over which live keys), ``metrics`` and ``swap`` -- on the
    server directly, or through the router wherever the shard lives (a
    cluster shard answers in its worker).  Swap and rollback are both
    :meth:`rebuild`, the server's
    :meth:`~repro.serve.server.IndexServer.rebuild`, which returns the
    previous factory -- the rollback token.
    """

    def __init__(self, front: Any, shard_id: "int | None" = None,
                 sampler: Any = None) -> None:
        self.front = front
        self.shard_id = shard_id
        self.name = "server" if shard_id is None else f"shard{shard_id}"
        if sampler is None and shard_id is None:
            sampler = front.sampler
        elif sampler is None and front.samplers is not None:
            sampler = front.samplers[shard_id]
        if sampler is None:
            raise ValueError(f"{self.name} has no workload sampler (pass "
                             "one here or construct the front with one)")
        self.sampler = sampler

    async def _call(self, kind: str, payload: Any = None) -> Any:
        if self.shard_id is None:
            return await answer_shard(self.front, kind, payload)
        return await self.front.call_shard(self.shard_id, kind, payload)

    async def describe(self) -> "tuple[Any, np.ndarray]":
        """``(IndexFactory of the served base, live keys)``."""
        return await self._call("describe")

    async def metrics_state(self) -> "dict[str, Any] | None":
        try:
            return await self._call("metrics")
        except ShardDeadError:
            return None

    async def rebuild(self, factory: Any) -> Any:
        if self.shard_id is None:
            return await self._call("swap", factory)
        return await self.front.swap_shard(self.shard_id, factory)


class ProbedFactory:
    """Picklable ``factory(keys)`` that raises unless its build answers
    ``probes`` exactly over ``keys``: the tuner's check, run where the
    rebuild runs, on the index it built, before anything is published."""

    def __init__(self, factory: Any, probes: np.ndarray) -> None:
        self.factory = factory
        self.probes = np.ascontiguousarray(probes, dtype=np.uint64)

    def __call__(self, keys: np.ndarray) -> Any:
        built = self.factory(keys)
        expect = np.searchsorted(keys, self.probes, side="left")
        bad = int(np.count_nonzero(
            np.asarray(built.lookup_batch(self.probes)) != expect))
        if bad:
            raise ValueError(f"built index mis-answered {bad} of "
                             f"{len(self.probes)} probe queries")
        return built


class AutoTuner:
    """Closed-loop controller over one serving target."""

    def __init__(
        self,
        target: Any,
        planner: "Planner | None" = None,
        config: "TunerConfig | None" = None,
        journal: "DecisionJournal | None" = None,
    ) -> None:
        self.target = target
        self.planner = planner or Planner()
        self.config = config or TunerConfig()
        self.journal = journal or DecisionJournal()
        #: The served configuration, learned from the target in the
        #: first window (:meth:`describe_target`).
        self.current: "CandidateConfig | None" = None
        self.swaps_done = 0
        self.last_plan: "Plan | None" = None
        self._prev_state: "dict[str, Any] | None" = None
        self._streak_key: "str | None" = None
        self._streak = 0
        #: Pending swap awaiting its post-swap window measurement:
        #: ``{"record", "token", "pre_p99_ms", "prev_config", "age"}``.
        self._pending: "dict[str, Any] | None" = None
        self._task: "asyncio.Task | None" = None
        self._stopping = False

    @property
    def pending_swap(self) -> bool:
        """True while a swap awaits its post-swap window measurement."""
        return self._pending is not None

    # -- one control window ----------------------------------------------

    async def step(self) -> "dict[str, Any] | None":
        """Run exactly one control window; returns the journal record
        it produced (``None`` only when a pending swap measured clean)."""
        cfg = self.config
        state = await self.target.metrics_state()
        if state is None:
            return self.journal.record("idle", target=self.target.name,
                                       reason="target metrics unavailable")
        if self._prev_state is None:
            self._prev_state = state
            await self.describe_target()
            return self.journal.record(
                "idle", target=self.target.name,
                reason="first window establishes the baseline",
            )
        window = window_between(self._prev_state, state)
        self._prev_state = state
        completed = int(window.completed)
        p99_ms = (window.latency_s.percentile(99) * 1e3
                  if window.latency_s.count else None)
        if self._pending is not None:
            return await self._watch_pending(completed, p99_ms)
        if completed < cfg.min_window_requests:
            return self.journal.record(
                "idle", target=self.target.name, completed=completed,
                reason=f"window below min_window_requests "
                       f"({completed} < {cfg.min_window_requests})",
            )
        return await self._plan_and_act(completed, p99_ms)

    async def describe_target(self) -> np.ndarray:
        """Ask the target what it serves: the live keys to plan over,
        and, while it is unknown, the incumbent configuration."""
        factory, keys = await self.target.describe()
        if self.current is None:
            self.current = infer_config(
                factory, getattr(self.planner, "backend", None))
        return np.asarray(keys)

    async def _watch_pending(self, completed: int,
                             p99_ms: "float | None") -> "dict | None":
        """Measure the post-swap window; roll back on regression."""
        cfg = self.config
        pending = self._pending
        assert pending is not None
        if p99_ms is None or completed < max(cfg.min_window_requests // 4,
                                             1):
            pending["age"] += 1
            if pending["age"] < cfg.measure_patience:
                return self.journal.record(
                    "idle", target=self.target.name, completed=completed,
                    reason="awaiting a measurable post-swap window",
                )
            # Quiet since the swap: accept it unmeasured.
            self._pending = None
            return self.journal.record(
                "hold", target=self.target.name,
                reason="post-swap window never became measurable; "
                       "keeping the swap",
            )
        record = pending["record"]
        record["measured_post_p99_ms"] = round(p99_ms, 4)
        pre = pending["pre_p99_ms"]
        self._pending = None
        if pre and p99_ms > pre * (1.0 + cfg.rollback_threshold):
            self._streak_key, self._streak = None, 0
            fields = {"target": self.target.name, "frm": record.get("to"),
                      "to": record.get("frm"), "measured_pre_p99_ms": pre,
                      "measured_post_p99_ms": round(p99_ms, 4)}
            reason = (f"measured p99 regressed {p99_ms / pre:.2f}x > "
                      f"1+{cfg.rollback_threshold}")
            try:
                await self.target.rebuild(pending["token"])
            except Exception as exc:  # the swap keeps serving
                return self.journal.record(
                    "rollback_failed", reason=f"{reason}; rebuild raised "
                                              f"{type(exc).__name__}: {exc}",
                    **fields)
            self.current = pending["prev_config"]
            return self.journal.record("rollback", reason=reason, **fields)
        return None  # swap confirmed; its record now carries both sides

    async def _plan_and_act(self, completed: int,
                            p99_ms: "float | None") -> "dict[str, Any]":
        cfg = self.config
        keys = await self.describe_target()
        profile = self.target.sampler.profile(keys)
        plan = await asyncio.to_thread(self.planner.plan, keys, profile,
                                       self.current)
        self.last_plan = plan
        winner = plan.winner
        if winner is None:
            return self.journal.record(
                "hold", target=self.target.name,
                reason="planner produced no candidates",
            )
        current_key = self.current.key() if self.current else None
        incumbent = (plan.score_of(current_key)
                     if current_key is not None else None)
        if incumbent is not None:
            ratio = winner.predicted_p99_ns / incumbent.predicted_p99_ns
        else:
            ratio = 1.0 - cfg.improvement_threshold  # unknown incumbent:
            # the winner is taken at exactly the threshold, no better.
        base = {
            "target": self.target.name,
            "window_completed": completed,
            "window_p99_ms": round(p99_ms, 4) if p99_ms else None,
            "profile": profile.to_json(),
            "winner": winner.to_json(),
            "incumbent": incumbent.to_json() if incumbent else None,
            "predicted_ratio": round(ratio, 4),
        }
        if winner.config.key() == current_key \
                or ratio > 1.0 - cfg.improvement_threshold:
            self._streak_key, self._streak = None, 0
            return self.journal.record(
                "hold", reason="winner does not clear the improvement "
                               f"threshold ({ratio:.3f} > "
                               f"{1 - cfg.improvement_threshold:.3f})"
                if winner.config.key() != current_key
                else "incumbent already wins the ranking", **base)
        if winner.config.key() == self._streak_key:
            self._streak += 1
        else:
            self._streak_key, self._streak = winner.config.key(), 1
        if self._streak < cfg.hysteresis_windows:
            return self.journal.record(
                "hold", reason=f"hysteresis {self._streak}/"
                               f"{cfg.hysteresis_windows} windows", **base)
        if cfg.max_swaps is not None and self.swaps_done >= cfg.max_swaps:
            return self.journal.record(
                "hold", reason=f"swap budget exhausted "
                               f"({cfg.max_swaps})", **base)
        if cfg.dry_run:
            self._streak_key, self._streak = None, 0
            return self.journal.record(
                "plan", reason="dry run: winner cleared hysteresis; "
                               "swap suppressed",
                ranking=[c.to_json() for c in plan.ranked], **base)
        return await self._build_verify_swap(winner, keys, p99_ms, base)

    async def _build_verify_swap(self, winner, keys, p99_ms,
                                 base) -> "dict[str, Any]":
        self._streak_key, self._streak = None, 0
        factory = ProbedFactory(winner.config.factory(), self._probes(keys))
        try:
            token = await self.target.rebuild(factory)
        except Exception as exc:  # the probe check, or the build itself
            return self.journal.record(
                "verify_failed", reason=f"built winner not swapped in: "
                                        f"{type(exc).__name__}: {exc}",
                **base)
        prev_config = self.current
        self.current = winner.config
        self.swaps_done += 1
        record = self.journal.record(
            "swap", frm=prev_config.key() if prev_config else None,
            to=winner.config.key(),
            measured_pre_p99_ms=round(p99_ms, 4) if p99_ms else None,
            measured_post_p99_ms=None, **base)
        self._pending = {
            "record": record,
            "token": token,
            "pre_p99_ms": p99_ms,
            "prev_config": prev_config,
            "age": 0,
        }
        return record

    def _probes(self, keys: np.ndarray) -> np.ndarray:
        """The probe set a built winner must answer exactly: keys spread
        over the key space plus a slice of the sampled traffic."""
        n = len(keys)
        take = np.linspace(0, n - 1, min(self.config.probe_set_size, n),
                           dtype=np.int64)
        sampled = np.asarray(self.target.sampler.sample, dtype=np.uint64)
        return np.concatenate((np.asarray(keys, dtype=np.uint64)[take],
                               sampled[: self.config.probe_set_size]))

    # -- the loop ---------------------------------------------------------

    async def run(self) -> None:
        """``step()`` every ``interval_s`` seconds until :meth:`stop`."""
        self._stopping = False
        while not self._stopping:
            try:
                await asyncio.sleep(self.config.interval_s)
            except asyncio.CancelledError:
                return
            if self._stopping:
                return
            await self.step()

    def start(self) -> "AutoTuner":
        if self._task is not None and not self._task.done():
            raise RuntimeError("tuner is already running")
        self._task = asyncio.create_task(
            self.run(), name=f"repro-tune-{self.target.name}"
        )
        return self

    async def stop(self) -> None:
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
