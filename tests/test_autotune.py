"""Tests for the self-tuning control plane (`repro.autotune`).

Four layers, mirroring the package split:

* **Sampler**: the reservoir is bounded and uniform-ish, the profile's
  absent/coverage estimates react to the traffic shape, and ``reset``
  forgets a regime.
* **Planner**: rankings are explainable, finite, include the incumbent,
  and -- the property the journal's ranking semantics rely on -- are
  *invariant to the order of the profile's reservoir sample* (the
  sample is a multiset by contract).
* **Controller**: full closed-loop against a fake target with injected
  window metrics: hysteresis holds, swap, post-swap measurement, and a
  deliberately injected post-swap regression must roll back within one
  control window.  ``dry_run`` plans but never builds or swaps.
* **Journal / bench report**: predicted-vs-measured aggregation and the
  structural check of the committed ``BENCH_tune.json``.

No pytest-asyncio in the container, so async tests drive their own
event loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.autotune import (
    AutoTuner,
    CandidateConfig,
    Planner,
    TunerConfig,
    TunerTarget,
    WorkloadSampler,
    infer_config,
)
from repro.autotune.report import DecisionJournal
from repro.baselines import BinarySearchIndex, BTreeIndex, RMIAsIndex
from repro.core.advisor import WorkloadRequirements, eligible_families
from repro.serve import IndexServer, LocalBackend, ShardRouter, plan_shards
from repro.serve.metrics import ServeMetrics
from repro.writable import IndexFactory

REPO_ROOT = Path(__file__).resolve().parent.parent

EMPTY = np.array([], dtype=np.uint64)


@pytest.fixture(scope="module")
def tune_keys():
    """Lognormal-ish keys: skewed CDF, so RMI layer2 genuinely matters."""
    rng = np.random.default_rng(7)
    raw = (np.exp(rng.normal(20, 2.5, size=60_000)) // 1).astype(np.uint64)
    return np.sort(np.unique(raw))


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------


def test_reservoir_is_bounded_and_counts_everything():
    sampler = WorkloadSampler(capacity=512, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(50):
        sampler.observe(rng.integers(0, 1 << 40, 2_000).astype(np.uint64),
                        EMPTY, EMPTY)
    assert len(sampler.sample) == 512
    assert sampler.observed == 100_000
    assert sampler.points == 100_000 and sampler.ranges == 0
    assert sampler.batches == 50


def test_reservoir_is_a_fair_sample_of_the_stream():
    """Late stream items must still land in the reservoir (Algorithm R),
    in roughly their share of the stream."""
    sampler = WorkloadSampler(capacity=1_000, seed=3)
    first = np.zeros(10_000, dtype=np.uint64)
    second = np.ones(10_000, dtype=np.uint64)
    sampler.observe(first, EMPTY, EMPTY)
    sampler.observe(second, EMPTY, EMPTY)
    share = float(np.mean(sampler.sample == 1))
    assert 0.35 < share < 0.65  # expectation 0.5; the reservoir is random


def test_profile_absent_fraction_and_mix(tune_keys):
    sampler = WorkloadSampler(capacity=2_048, seed=5)
    present = tune_keys[np.random.default_rng(2).integers(
        0, len(tune_keys), 1_000)]
    absent = np.full(1_000, np.uint64(3))  # below every generated key
    sampler.observe(np.concatenate([present, absent]), EMPTY, EMPTY)
    sampler.observe(EMPTY, tune_keys[:100], tune_keys[100:200])
    profile = sampler.profile(tune_keys)
    assert profile.requests == 2_100
    assert profile.points == 2_000 and profile.ranges == 100
    assert profile.range_fraction == pytest.approx(100 / 2_100)
    assert 0.35 < profile.absent_fraction < 0.65
    js = profile.to_json()
    assert js["sample_size"] == len(profile.sample)
    assert "sample" not in js  # the raw reservoir stays out of reports


def test_profile_coverage_collapses_under_hot_key_traffic(tune_keys):
    uniform = WorkloadSampler(capacity=2_048, seed=6)
    uniform.observe(tune_keys[np.random.default_rng(3).integers(
        0, len(tune_keys), 4_000)], EMPTY, EMPTY)
    hot = WorkloadSampler(capacity=2_048, seed=6)
    hot.observe(np.repeat(tune_keys[5], 4_000), EMPTY, EMPTY)
    cov_uniform = uniform.profile(tune_keys).coverage
    cov_hot = hot.profile(tune_keys).coverage
    assert cov_uniform > 0.8
    assert cov_hot < 0.1
    assert cov_hot < cov_uniform


def test_sampler_reset_forgets_the_regime(tune_keys):
    sampler = WorkloadSampler(capacity=64, seed=0)
    sampler.observe(tune_keys[:500], EMPTY, EMPTY)
    sampler.reset()
    assert sampler.observed == 0
    assert len(sampler.sample) == 0
    profile = sampler.profile(tune_keys)
    assert profile.requests == 0
    assert profile.coverage == 1.0


# ----------------------------------------------------------------------
# Advisor API (satellite): machine-usable eligibility
# ----------------------------------------------------------------------


def test_eligible_families_reacts_to_requirements():
    static = eligible_families(WorkloadRequirements())
    updatable = eligible_families(WorkloadRequirements(needs_updates=True))
    assert "rmi" in static and "b-tree" in static
    # Read-only structures drop out when updates are required...
    assert set(updatable) < set(static)
    # ...and every surviving family carries explanatory sentences.
    for reasons in updatable.values():
        assert reasons and all(isinstance(r, str) for r in reasons)


def test_planner_skips_advisor_excluded_families(tune_keys):
    planner = Planner(
        families=("rmi", "b-tree", "binary-search"),
        rmi_layer2_sizes=(256,),
        requirements=WorkloadRequirements(needs_updates=True),
        calibrate=False,
        sample_keys=1_024,
        probe_queries=64,
    )
    candidates, skipped = planner.candidates(tune_keys[:1_024])
    families = {c.family for c in candidates}
    assert "rmi" not in families
    assert "excluded by the advisor" in skipped["rmi"]


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------


def _profile_for(keys, num=3_000, seed=11, capacity=1_024):
    sampler = WorkloadSampler(capacity=capacity, seed=seed)
    rng = np.random.default_rng(seed)
    sampler.observe(keys[rng.integers(0, len(keys), num)], EMPTY, EMPTY)
    return sampler.profile(keys)


def test_plan_is_finite_ranked_and_explainable(tune_keys):
    planner = Planner(
        families=("rmi", "b-tree", "binary-search"),
        rmi_layer2_sizes=(256, 4_096),
        calibrate=False,
        sample_keys=2_048,
        probe_queries=128,
    )
    plan = planner.plan(tune_keys, _profile_for(tune_keys))
    assert plan.finite()
    assert len(plan.ranked) == 4  # 2 rmi grid points + 2 baselines
    p99s = [c.predicted_p99_ns for c in plan.ranked]
    assert p99s == sorted(p99s)
    assert all(c.reasons for c in plan.ranked)
    assert "plan over" in plan.explain()


def test_plan_scores_the_incumbent_even_off_grid(tune_keys):
    planner = Planner(
        families=("rmi",),
        rmi_layer2_sizes=(4_096,),
        calibrate=False,
        sample_keys=2_048,
        probe_queries=128,
    )
    incumbent = CandidateConfig(family="rmi", layer2_size=16,
                                backend=planner.backend)
    plan = planner.plan(tune_keys, _profile_for(tune_keys),
                        current=incumbent)
    assert plan.score_of(incumbent.key()) is not None


def test_mis_tuned_rmi_ranks_below_a_reasonable_one(tune_keys):
    """On skewed data a 16-leaf RMI has huge error intervals; the
    planner must predict it slower than a 4096-leaf one."""
    planner = Planner(
        families=("rmi",),
        rmi_layer2_sizes=(16, 4_096),
        calibrate=False,
        sample_keys=4_096,
        probe_queries=256,
    )
    plan = planner.plan(tune_keys, _profile_for(tune_keys))
    coarse = plan.score_of(CandidateConfig(
        family="rmi", layer2_size=16, backend=planner.backend).key())
    fine = plan.score_of(CandidateConfig(
        family="rmi", layer2_size=4_096, backend=planner.backend).key())
    assert fine.predicted_p99_ns < coarse.predicted_p99_ns


def test_planner_ranking_is_invariant_to_sample_order(tune_keys):
    """Property (ISSUE): the profile reservoir is a multiset by
    contract -- permuting it must not change the ranking or a single
    predicted latency."""
    planner = Planner(
        families=("rmi", "b-tree", "binary-search"),
        rmi_layer2_sizes=(256, 4_096),
        calibrate=False,
        sample_keys=2_048,
        probe_queries=128,
    )
    profile = _profile_for(tune_keys)
    rng = np.random.default_rng(99)
    for trial in range(3):
        shuffled = dataclasses.replace(
            profile, sample=rng.permutation(profile.sample))
        a = planner.plan(tune_keys, profile)
        b = planner.plan(tune_keys, shuffled)
        assert [c.config.key() for c in a.ranked] \
            == [c.config.key() for c in b.ranked]
        assert [c.predicted_p99_ns for c in a.ranked] \
            == [c.predicted_p99_ns for c in b.ranked]
        assert [c.predicted_p50_ns for c in a.ranked] \
            == [c.predicted_p50_ns for c in b.ranked]


def test_infer_config_round_trips(tune_keys):
    rmi = RMIAsIndex(tune_keys, layer2_size=512)
    cfg = infer_config(rmi, "numpy")
    assert cfg.family == "rmi" and cfg.layer2_size == 512
    btree = BTreeIndex(tune_keys)
    assert infer_config(btree, "numpy").family == "b-tree"
    assert infer_config(object(), "numpy") is None


def test_candidate_factory_is_picklable_and_builds(tune_keys):
    import pickle

    cfg = CandidateConfig(family="rmi", layer2_size=512)
    factory = pickle.loads(pickle.dumps(cfg.factory()))
    built = factory(tune_keys)
    # The grid knob must survive the round trip into the built index
    # (RMIAsIndex re-applies layer2_size over any provided config).
    assert built.config.layer_sizes[-1] == 512
    queries = tune_keys[::977]
    want = np.searchsorted(tune_keys, queries, side="left")
    assert np.array_equal(built.lookup_batch(queries), want)


# ----------------------------------------------------------------------
# Controller (fake target: injected metrics, scripted windows)
# ----------------------------------------------------------------------


class FakeTarget:
    """A serving target whose window metrics the test scripts."""

    name = "fake"

    def __init__(self, keys: np.ndarray, start_layer2: int = 16) -> None:
        self._keys = np.asarray(keys, dtype=np.uint64)
        self._index = RMIAsIndex(self._keys, layer2_size=start_layer2)
        self.metrics = ServeMetrics()
        self.sampler = WorkloadSampler(capacity=1_024, seed=4)
        self.factory = None
        #: Layer-2 size of every index a rebuild published, in order.
        self.built: list = []

    def current_index(self):
        return self._index

    async def describe(self):
        return IndexFactory.of(self._index), self._keys

    async def metrics_state(self):
        return self.metrics.state()

    async def rebuild(self, factory):
        previous = self.factory or IndexFactory.of(self._index)
        self._index = factory(self._keys)  # a raise publishes nothing
        self.factory = factory
        self.built.append(self._index.config.layer_sizes[-1])
        return previous

    # -- window scripting ---------------------------------------------

    def traffic(self, completed: int, latency_ms: float) -> None:
        """Inject one window's worth of served traffic."""
        rng = np.random.default_rng(completed)
        self.sampler.observe(
            self._keys[rng.integers(0, len(self._keys), completed)],
            EMPTY, EMPTY)
        for _ in range(completed):
            self.metrics.completed.inc()
            self.metrics.latency_s.observe(latency_ms * 1e-3)


def _tuner_parts(**cfg_kw) -> "tuple[Planner, TunerConfig]":
    planner = Planner(
        families=("rmi",),
        rmi_layer2_sizes=(4_096,),
        calibrate=False,
        sample_keys=2_048,
        probe_queries=128,
    )
    defaults = dict(improvement_threshold=0.05, hysteresis_windows=2,
                    rollback_threshold=0.25, min_window_requests=64)
    defaults.update(cfg_kw)
    return planner, TunerConfig(**defaults)


def _tuner(target, keys, **cfg_kw) -> AutoTuner:
    planner, config = _tuner_parts(**cfg_kw)
    return AutoTuner(target, planner, config)


def test_controller_hysteresis_then_swap_then_measure(tune_keys):
    async def run():
        target = FakeTarget(tune_keys, start_layer2=16)
        tuner = _tuner(target, tune_keys)

        records = []
        target.traffic(200, 2.0)
        records.append(await tuner.step())  # baseline window
        assert tuner.current.key().startswith("rmi[l2=16,")
        for _ in range(2):  # hysteresis: 1 hold, then the swap
            target.traffic(200, 2.0)
            records.append(await tuner.step())
        target.traffic(200, 1.0)  # post-swap window: faster
        post = await tuner.step()
        return target, tuner, records, post

    target, tuner, records, post = asyncio.run(run())
    assert [r["kind"] for r in records] == ["idle", "hold", "swap"]
    assert "hysteresis" in records[1]["reason"]
    assert records[2]["to"] == "rmi[l2=4096,labs,bin]@" \
        + tuner.planner.backend
    assert target.built == [4_096]
    assert tuner.current.layer2_size == 4_096
    # The post-swap window measured clean: step() returned None and the
    # swap record now carries both sides of the measurement.
    assert post is None and not tuner.pending_swap
    swap = tuner.journal.swaps[0]
    assert swap["measured_pre_p99_ms"] == pytest.approx(2.0, rel=0.15)
    assert swap["measured_post_p99_ms"] == pytest.approx(1.0, rel=0.15)
    pvm = tuner.journal.predicted_vs_measured()
    assert pvm["swaps_measured"] == 1
    assert pvm["entries"][0]["measured_ratio"] < 1.0


def test_controller_rolls_back_an_injected_regression(tune_keys):
    """ISSUE acceptance: a post-swap regression triggers rollback within
    one control window."""
    async def run():
        target = FakeTarget(tune_keys, start_layer2=16)
        tuner = _tuner(target, tune_keys, hysteresis_windows=1)
        target.traffic(200, 2.0)
        await tuner.step()  # baseline
        target.traffic(200, 2.0)
        swap_rec = await tuner.step()
        assert swap_rec["kind"] == "swap"
        # The very next window regresses hard (2ms -> 10ms >> 1.25x).
        target.traffic(200, 10.0)
        rollback_rec = await tuner.step()
        return target, tuner, swap_rec, rollback_rec

    target, tuner, swap_rec, rollback_rec = asyncio.run(run())
    assert rollback_rec["kind"] == "rollback"
    assert target.built == [4_096, 16]  # the swap, then its rollback
    # Rolled back to the incumbent, and the journal shows one window
    # between swap and rollback.
    assert tuner.current.layer2_size == 16
    assert target.current_index().config.layer_sizes[-1] == 16
    assert rollback_rec["seq"] == swap_rec["seq"] + 1
    assert len(tuner.journal.rollbacks) == 1
    # The regressed measurement is still attached to the swap record.
    assert swap_rec["measured_post_p99_ms"] == pytest.approx(10.0, rel=0.15)


def test_controller_journals_a_rollback_whose_rebuild_raises(tune_keys):
    """A rollback is a rebuild; one that raises is journaled
    ``rollback_failed``, the swap keeps serving, and the next window
    plans from it instead of the tuner dying inside ``step``."""
    async def run():
        target = FakeTarget(tune_keys, start_layer2=16)
        tuner = _tuner(target, tune_keys, hysteresis_windows=1)
        target.traffic(200, 2.0)
        await tuner.step()  # baseline
        target.traffic(200, 2.0)
        assert (await tuner.step())["kind"] == "swap"

        async def broken(factory):
            raise RuntimeError("rollback build failed")

        target.rebuild = broken
        target.traffic(200, 10.0)
        failed = await tuner.step()
        target.traffic(200, 10.0)
        after = await tuner.step()
        return target, tuner, failed, after

    target, tuner, failed, after = asyncio.run(run())
    assert failed["kind"] == "rollback_failed"
    assert "RuntimeError: rollback build failed" in failed["reason"]
    assert failed["frm"].startswith("rmi[l2=4096,")
    assert not tuner.pending_swap and tuner.journal.rollbacks == []
    assert tuner.current.layer2_size == 4_096
    assert target.built == [4_096]
    assert target.current_index().config.layer_sizes[-1] == 4_096
    assert after["kind"] == "hold"


def test_controller_dry_run_plans_but_never_swaps(tune_keys):
    async def run():
        target = FakeTarget(tune_keys, start_layer2=16)
        tuner = _tuner(target, tune_keys, hysteresis_windows=1,
                       dry_run=True)
        target.traffic(200, 2.0)
        await tuner.step()
        recs = []
        for _ in range(3):
            target.traffic(200, 2.0)
            recs.append(await tuner.step())
        return target, tuner, recs

    target, tuner, recs = asyncio.run(run())
    assert all(r["kind"] == "plan" for r in recs)
    assert all("ranking" in r and r["ranking"] for r in recs)
    assert target.built == [] and tuner.swaps_done == 0
    assert tuner.current.layer2_size == 16


def test_controller_holds_when_incumbent_already_wins(tune_keys):
    async def run():
        target = FakeTarget(tune_keys, start_layer2=4_096)
        tuner = _tuner(target, tune_keys, hysteresis_windows=1)
        target.traffic(200, 1.0)
        await tuner.step()
        target.traffic(200, 1.0)
        return await tuner.step()

    rec = asyncio.run(run())
    assert rec["kind"] == "hold"
    assert "incumbent already wins" in rec["reason"]


def test_controller_idles_on_quiet_windows(tune_keys):
    async def run():
        target = FakeTarget(tune_keys)
        tuner = _tuner(target, tune_keys, min_window_requests=500)
        target.traffic(50, 1.0)
        await tuner.step()
        target.traffic(50, 1.0)
        return await tuner.step()

    rec = asyncio.run(run())
    assert rec["kind"] == "idle"
    assert "min_window_requests" in rec["reason"]


def test_controller_never_swaps_in_a_wrong_index(tune_keys):
    """A built winner that mis-answers the probe set is journaled as
    verify_failed and the serving index is left alone."""

    class LyingFactory:
        def __init__(self, config):
            self.config = config

        def __call__(self, keys):
            built = BinarySearchIndex(keys)
            real = built.lookup_batch

            class Liar:
                config = self.config

                def lookup_batch(self, queries):
                    return real(queries) + 1

            return Liar()

    async def run():
        target = FakeTarget(tune_keys, start_layer2=16)
        tuner = _tuner(target, tune_keys, hysteresis_windows=1)
        target.traffic(200, 2.0)
        await tuner.step()
        # Sabotage the winner's factory.
        import repro.autotune.controller as controller_mod
        orig = controller_mod.CandidateConfig.factory
        controller_mod.CandidateConfig.factory = \
            lambda self: LyingFactory(self)
        try:
            target.traffic(200, 2.0)
            rec = await tuner.step()
        finally:
            controller_mod.CandidateConfig.factory = orig
        return target, rec

    target, rec = asyncio.run(run())
    assert rec["kind"] == "verify_failed"
    assert target.built == []
    assert target.current_index().config.layer_sizes[-1] == 16


# ----------------------------------------------------------------------
# Live targets: single server and one shard of a router
# ----------------------------------------------------------------------


def test_server_target_end_to_end_swap(tune_keys):
    """The real wiring: traffic through IndexServer feeds the sampler,
    the tuner swaps the live index, zero requests are lost."""
    async def run():
        sampler = WorkloadSampler(capacity=1_024, seed=8)
        server = IndexServer(RMIAsIndex(tune_keys, layer2_size=16),
                             max_batch_size=64, max_wait_s=0.0005,
                             shed_policy="block", sampler=sampler)
        planner, config = _tuner_parts(hysteresis_windows=1,
                                       min_window_requests=32)
        rng = np.random.default_rng(12)
        async with server:
            tuner = AutoTuner(TunerTarget(server), planner, config)
            await tuner.step()  # baseline
            for _ in range(2):
                qs = tune_keys[rng.integers(0, len(tune_keys), 300)]
                want = np.searchsorted(tune_keys, qs, side="left")
                got = await asyncio.gather(
                    *(server.lookup(int(q)) for q in qs))
                assert [r.position for r in got] == list(want)
                rec = await tuner.step()
                if rec is not None and rec["kind"] == "swap":
                    break
            return tuner, server.metrics.swaps.value

    tuner, server_swaps = asyncio.run(run())
    assert tuner.swaps_done == 1
    assert server_swaps == 1
    assert tuner.current.layer2_size == 4_096


def test_shard_target_swaps_one_shard_only(tune_keys):
    """Cluster wiring: per-shard samplers disagree, and tuning one
    shard swaps that shard's index without touching its neighbor."""
    async def run():
        plan = plan_shards(tune_keys, 2)
        backend = LocalBackend(
            [RMIAsIndex(plan.slice_keys(tune_keys, i), layer2_size=16)
             for i in range(2)],
            plan,
        )
        samplers = [WorkloadSampler(capacity=512, seed=i)
                    for i in range(2)]
        async with ShardRouter(backend, samplers=samplers) as router:
            shard0_keys = plan.slice_keys(tune_keys, 0)
            # Traffic lands only on shard 0's key range.
            rng = np.random.default_rng(13)
            qs = shard0_keys[rng.integers(0, len(shard0_keys), 600)]
            want = np.searchsorted(tune_keys, qs, side="left")
            got = await router.lookup_batch(qs)
            assert np.array_equal(np.asarray(got), want)
            assert samplers[0].observed > 0
            assert samplers[1].observed == 0  # per-shard profiles differ

            target = TunerTarget(router, 0)
            planner, config = _tuner_parts(hysteresis_windows=1,
                                           min_window_requests=1)
            tuner = AutoTuner(target, planner, config)
            await tuner.step()  # baseline
            qs2 = shard0_keys[rng.integers(0, len(shard0_keys), 600)]
            await router.lookup_batch(qs2)
            rec = await tuner.step()
            assert rec["kind"] == "swap"

            # Shard 0 rebuilt on the winner; shard 1 untouched.
            l2_of = [backend._servers[i].index.config.layer_sizes[-1]
                     if isinstance(backend._servers[i].index, RMIAsIndex)
                     else None for i in range(2)]
            # Answers still correct after the swap.
            got2 = await router.lookup_batch(qs)
            assert np.array_equal(np.asarray(got2), want)
            return l2_of, tuner

    l2_of, tuner = asyncio.run(run())
    assert l2_of[0] == 4_096
    assert l2_of[1] == 16
    assert tuner.current.layer2_size == 4_096


def test_shard_target_rollback_reships_previous_config(tune_keys):
    async def run():
        plan = plan_shards(tune_keys, 2)
        backend = LocalBackend(
            [RMIAsIndex(plan.slice_keys(tune_keys, i), layer2_size=16)
             for i in range(2)],
            plan,
        )
        samplers = [WorkloadSampler(capacity=512, seed=i)
                    for i in range(2)]
        async with ShardRouter(backend, samplers=samplers) as router:
            target = TunerTarget(router, 0)
            factory = CandidateConfig(family="rmi",
                                      layer2_size=2_048).factory()
            token = await target.rebuild(factory)
            assert backend._servers[0].index.config.layer_sizes[-1] == 2_048
            await target.rebuild(token)
            assert backend._servers[0].index.config.layer_sizes[-1] == 16

    asyncio.run(run())


# ----------------------------------------------------------------------
# Journal and the committed benchmark report
# ----------------------------------------------------------------------


def test_journal_predicted_vs_measured_math():
    journal = DecisionJournal(clock=lambda: 0.0)
    journal.record("swap", to="a", predicted_ratio=0.5,
                   measured_pre_p99_ms=2.0, measured_post_p99_ms=1.2)
    journal.record("swap", to="b", predicted_ratio=0.9,
                   measured_pre_p99_ms=2.0, measured_post_p99_ms=None)
    pvm = journal.predicted_vs_measured()
    assert pvm["swaps_measured"] == 1  # the unmeasured swap is excluded
    entry = pvm["entries"][0]
    assert entry["measured_ratio"] == pytest.approx(0.6)
    assert entry["abs_error"] == pytest.approx(0.1)
    assert entry["direction_agrees"]
    assert pvm["max_abs_error"] == pytest.approx(0.1)


def test_journal_rejects_unknown_kinds_and_bounds_length():
    journal = DecisionJournal(maxlen=3, clock=lambda: 0.0)
    with pytest.raises(ValueError):
        journal.record("nonsense")
    for i in range(5):
        journal.record("idle", i=i)
    assert len(journal) == 3
    assert [r["i"] for r in journal.records] == [2, 3, 4]


def test_committed_bench_tune_report_is_sound():
    """The committed BENCH_tune.json must satisfy the structural check
    the CI gate re-runs (gates passed, every swap measured)."""
    from repro.bench.tune import check_tune_report

    path = REPO_ROOT / "BENCH_tune.json"
    assert path.exists(), "BENCH_tune.json must be committed"
    problems = check_tune_report(path)
    assert problems == []


def test_check_tune_report_flags_a_gutted_report(tmp_path):
    from repro.bench.tune import check_tune_report

    bad = tmp_path / "bad.json"
    bad.write_text('{"gates": {"passed": false}}')
    problems = check_tune_report(bad)
    assert any("did not pass" in p for p in problems)
    assert any("no per-swap entries" in p for p in problems)
