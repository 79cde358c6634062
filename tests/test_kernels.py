"""The pluggable kernel backends: registry, packing, and parity.

Three layers of coverage:

* the registry (``repro.kernels``): selection precedence (explicit >
  process default > ``REPRO_KERNELS`` > auto), loud failures for
  explicitly requested backends, silent fallback on the auto path;
* ``PackedRMI``/``pack_rmi``: what packs, what falls back (object-mode
  layers, custom bounds), and the mutation-driven cache invalidation
  inside :class:`~repro.core.rmi.RMI`;
* bit-identity: every loadable backend pins routing, bounded search,
  fused lookup, and fused serve to the staged NumPy reference and the
  ``searchsorted`` oracle (the deeper adversarial sweeps live in the
  backend-parametrized conformance suite).

The cext legs skip automatically where no C compiler is available;
everything else runs everywhere.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import kernels
from repro.baselines import INDEX_TYPES
from repro.cache.fingerprint import (
    calibration_fingerprint,
    fingerprint_digest,
)
from repro.core.bounds import ErrorBounds, LocalAbsoluteBounds
from repro.core.layers import LayerTable
from repro.core.models import ConstantModel
from repro.core.rmi import RMI
from repro.core.search import batch_lower_bound_window
from repro.cost.calibrate import calibrate_kernel_overhead

from .conftest import lower_bound_oracle


@pytest.fixture
def smoke_rmi(books_keys):
    return RMI(books_keys, layer_sizes=[256], bound_type="labs")


@pytest.fixture
def queries(books_keys, mixed_queries):
    return mixed_queries(books_keys, 400)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_numpy_always_loads(self):
        backend = kernels.get_backend("numpy")
        assert backend.name == "numpy"
        assert backend.compiled is False

    def test_instances_are_cached(self):
        assert kernels.get_backend("numpy") is kernels.get_backend("numpy")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("sse-handrolled")

    def test_explicitly_requested_unavailable_backend_raises(self, monkeypatch):
        def boom():
            raise ImportError("nope")

        monkeypatch.setitem(kernels._LOADERS, "broken", boom)
        monkeypatch.delitem(kernels._instances, "broken", raising=False)
        with pytest.raises(RuntimeError, match="not available"):
            kernels.get_backend("broken")

    def test_auto_skips_failing_backends(self, monkeypatch):
        """Auto-detection degrades silently to the next candidate."""
        monkeypatch.setattr(kernels, "KNOWN_BACKENDS", ("broken", "numpy"))

        def boom():
            raise ImportError("nope")

        monkeypatch.setitem(kernels._LOADERS, "broken", boom)
        monkeypatch.delitem(kernels._instances, "broken", raising=False)
        assert kernels.get_backend("auto").name == "numpy"

    def test_backend_instance_passes_through(self):
        backend = kernels.get_backend("numpy")
        assert kernels.get_backend(backend) is backend

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        monkeypatch.setattr(kernels, "_default", None)
        assert kernels.get_backend().name == "numpy"

    def test_env_var_bogus_name_raises(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "bogus")
        monkeypatch.setattr(kernels, "_default", None)
        with pytest.raises(ValueError):
            kernels.get_backend()

    def test_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "bogus")
        with kernels.use_backend("numpy") as backend:
            assert kernels.get_backend() is backend

    def test_use_backend_restores_previous(self):
        before = kernels._default
        with kernels.use_backend("numpy"):
            assert kernels._default is not None
        assert kernels._default is before

    def test_available_backends_contains_numpy(self):
        assert "numpy" in kernels.available_backends()
        assert kernels.backend_available("numpy")
        assert not kernels.backend_available("bogus")


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------


class _OpaqueBounds(ErrorBounds):
    """A bounds subclass the kernels have never heard of."""

    def size_in_bytes(self) -> int:  # pragma: no cover - never measured
        return 0


class TestPacking:
    def test_grouped_build_packs(self, smoke_rmi):
        packed = kernels.pack_rmi(smoke_rmi)
        assert packed is not None
        assert packed.num_layers == 2
        assert packed.offsets[-1] == len(packed.codes) == len(packed.params)
        assert packed.n == smoke_rmi.n
        # labs bounds normalize to symmetric per-model offsets.
        assert packed.bkind == 1
        np.testing.assert_array_equal(packed.blo, -packed.bhi)

    def test_reference_build_falls_back(self, books_keys):
        rmi = RMI(books_keys, layer_sizes=[64], grouped_fit=False)
        assert kernels.pack_rmi(rmi) is None
        # The staged path still answers correctly.
        queries = books_keys[:64]
        np.testing.assert_array_equal(
            rmi.lookup_batch(queries), lower_bound_oracle(books_keys, queries)
        )

    def test_custom_bounds_fall_back(self, smoke_rmi):
        smoke_rmi.bounds = _OpaqueBounds()
        assert kernels.pack_rmi(smoke_rmi) is None
        assert smoke_rmi._kernel_state() is None

    def test_packed_cache_hits_until_layer_mutation(self, smoke_rmi):
        first = smoke_rmi._packed_rmi()
        assert smoke_rmi._packed_rmi() is first
        smoke_rmi.layers[-1][0] = ConstantModel(0.0)
        second = smoke_rmi._packed_rmi()
        assert second is not first
        assert second.codes[second.offsets[-2]] == 0  # const code

    def test_packed_cache_stays_behind_in_pickles(self, smoke_rmi,
                                                  monkeypatch):
        # Packed at one mutation count, mutated, then pickled: however
        # the receiving process's count stands, it re-packs.
        token = LayerTable.mutations
        smoke_rmi._packed_rmi()
        smoke_rmi.layers[-1][0] = ConstantModel(0.0)
        data = pickle.dumps(smoke_rmi)
        monkeypatch.setattr(LayerTable, "mutations", token)
        restored = pickle.loads(data)
        assert restored._packed_cache is None
        packed = restored._packed_rmi()
        assert packed.codes[packed.offsets[-2]] == 0  # the mutated leaf

    def test_packed_cache_invalidated_by_bounds_swap(self, smoke_rmi):
        first = smoke_rmi._packed_rmi()
        smoke_rmi.bounds = LocalAbsoluteBounds(
            np.asarray(smoke_rmi.bounds.abs_err, dtype=np.int64).copy()
        )
        assert smoke_rmi._packed_rmi() is not first


# ----------------------------------------------------------------------
# Bit-identity across backends
# ----------------------------------------------------------------------


class TestBackendParity:
    """Each leg runs once per available backend (kernel_backend)."""

    def test_kernel_entry_points_match_reference(
        self, kernel_backend, smoke_rmi, books_keys, queries
    ):
        packed = kernels.pack_rmi(smoke_rmi)
        reference = kernels.get_backend("numpy")
        oracle = lower_bound_oracle(books_keys, queries)

        ids_r, pos_r = reference.rmi_predict(packed, queries)
        ids, pos = kernel_backend.rmi_predict(packed, queries)
        np.testing.assert_array_equal(ids, ids_r)
        np.testing.assert_array_equal(pos, pos_r)

        lo = np.clip(pos_r - 8, 0, len(books_keys) - 1)
        hi = np.clip(pos_r + 8, 0, len(books_keys) - 1)
        np.testing.assert_array_equal(
            kernel_backend.lower_bound_window(books_keys, queries, lo, hi),
            reference.lower_bound_window(books_keys, queries, lo, hi),
        )

        np.testing.assert_array_equal(
            kernel_backend.rmi_lookup(packed, books_keys, queries), oracle
        )

        got = kernel_backend.rmi_serve(
            packed, books_keys, queries, queries, queries
        )
        want = reference.rmi_serve(
            packed, books_keys, queries, queries, queries
        )
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_delta_correct_matches_reference(self, kernel_backend):
        """The writable tier's fused dirty-read kernel is bit-identical
        to the staged ``searchsorted`` + clip + gather reference, and
        ranks every query in the whole delta, on adversarial delta
        sizes and boundary queries over a real base with duplicate
        runs: its lower bounds are the base positions, and the bucket
        table is recounted from them."""
        from repro.kernels.base import BUCKET_SHIFT, table_size

        reference = kernels.get_backend("numpy")
        rng = np.random.default_rng(31337)
        grid = np.arange(0, 2**64 - 2, 2**40, dtype=np.uint64)
        for n, dn in ((1, 1), (63, 7), (5000, 2), (5000, 100),
                      (20000, 4096)):
            base = np.sort(np.concatenate([
                rng.choice(grid, n - n // 4),
                np.repeat(rng.choice(grid, 1), n // 4),  # a duplicate run
            ]))
            delta_keys = np.sort(rng.choice(grid, size=dn, replace=False))
            corr = rng.integers(-64, 64, dn + 1).astype(np.int64)
            table = np.searchsorted(
                np.searchsorted(base, delta_keys),
                np.arange(table_size(n), dtype=np.int64) << BUCKET_SHIFT)
            queries = np.concatenate([
                delta_keys, base,
                np.maximum(delta_keys, np.uint64(1)) - np.uint64(1),
                delta_keys + np.uint64(1),
                rng.integers(0, 2**64, 257, dtype=np.uint64),
                np.array([0, 2**64 - 1], dtype=np.uint64),
            ])
            base_pos = np.searchsorted(base, queries).astype(np.int64)
            got = kernel_backend.delta_correct(delta_keys, corr, base_pos,
                                               queries, table)
            np.testing.assert_array_equal(
                got, reference.delta_correct(delta_keys, corr, base_pos,
                                             queries, table),
                err_msg=f"{kernel_backend.name}/dn={dn}",
            )
            np.testing.assert_array_equal(
                got, base_pos + corr[np.searchsorted(delta_keys, queries)],
                err_msg=f"{kernel_backend.name}/dn={dn}",
            )

    def test_dispatcher_routes_search_through_backend(
        self, kernel_backend, books_keys, queries
    ):
        """core/search.batch_lower_bound_window follows the default."""
        pos = lower_bound_oracle(books_keys, queries)
        lo = np.clip(pos - 4, 0, len(books_keys) - 1)
        hi = np.clip(pos + 4, 0, len(books_keys) - 1)
        np.testing.assert_array_equal(
            batch_lower_bound_window(books_keys, queries, lo, hi), pos
        )

    def test_rmi_batch_api_is_backend_transparent(
        self, kernel_backend, smoke_rmi, books_keys, queries
    ):
        """lookup_batch/serve_batch answer identically on every backend."""
        oracle = lower_bound_oracle(books_keys, queries)
        np.testing.assert_array_equal(smoke_rmi.lookup_batch(queries), oracle)
        positions, starts, counts = smoke_rmi.serve_batch(
            queries, queries, queries
        )
        np.testing.assert_array_equal(positions, oracle)
        np.testing.assert_array_equal(starts, oracle)
        np.testing.assert_array_equal(counts, np.zeros_like(oracle))


# ----------------------------------------------------------------------
# RMI / config / serving integration
# ----------------------------------------------------------------------


class TestIntegration:
    @pytest.mark.skipif(
        not kernels.backend_available("cext"),
        reason="no compiled backend in this environment",
    )
    def test_rmi_dispatches_to_compiled_backend(self, books_keys):
        rmi = RMI(books_keys, layer_sizes=[256])  # auto -> compiled
        assert rmi._kernel_state() is not None
        backend, packed = rmi._kernel_state()
        assert backend.compiled
        assert packed is rmi._packed_rmi()

    def test_warm_kernels_is_idempotent(self, smoke_rmi, books_keys):
        smoke_rmi.warm_kernels()
        smoke_rmi.warm_kernels()
        adapter = INDEX_TYPES["b-tree"](books_keys)
        adapter.warm_kernels()  # OrderedIndex default implementation

    def test_server_warm_index_is_best_effort(self):
        from repro.serve.server import IndexServer

        class Exploding:
            def warm_kernels(self):
                raise RuntimeError("boom")

        IndexServer._warm_index(Exploding())  # must not raise
        IndexServer._warm_index(object())  # no warm_kernels: no-op


# ----------------------------------------------------------------------
# Fingerprints and calibration
# ----------------------------------------------------------------------


class TestFingerprints:
    def test_calibrations_are_backend_specific(self):
        params = {"n": 1000, "batch": 64}
        a = calibration_fingerprint("host-a", "numpy", params)
        b = calibration_fingerprint("host-a", "cext", params)
        assert a["backend"] == "numpy"
        assert fingerprint_digest(a) != fingerprint_digest(b)

    def test_calibrate_kernel_overhead_reports_backend(self):
        result = calibrate_kernel_overhead(
            "numpy", n=2_000, batch=256, repeats=2
        )
        assert result["backend"] == "numpy"
        assert result["compiled"] is False
        assert result["per_lookup_overhead_ns"] > 0.0
        assert result["params"]["batch"] == 256


# ----------------------------------------------------------------------
# The bench subcommand
# ----------------------------------------------------------------------


class TestKernelsBench:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.bench.kernels import kernels_report

        return kernels_report(
            n=4_000, queries=2_000, layer2_size=256, runs=1,
            backends=["numpy", "cext"],
        )

    def test_report_shape(self, report):
        from repro.bench.kernels import KERNELS

        assert report["kind"] == "kernels"
        numpy_entry = report["backends"]["numpy"]
        assert numpy_entry["available"]
        for kernel in KERNELS:
            assert numpy_entry["kernels"][kernel]["best_s"] > 0.0
        for name, entry in report["backends"].items():
            if entry.get("available") and name != "numpy":
                assert entry["bit_identical"]
                assert set(report["speedups"][name]) == set(KERNELS)
        # Family sections time every loaded backend, NumPy included, on
        # the packed form, each checked bit for bit before it counts.
        loaded = {n for n, s in report["backend_status"].items()
                  if s["available"]}
        for fam in report["families"].values():
            assert set(fam["backends"]) == loaded
            assert all(e["bit_identical"] for e in fam["backends"].values())

    def test_gate_resolution(self, report):
        from repro.bench.kernels import resolve_gate_backend

        assert resolve_gate_backend(report, "numpy") is None  # not compiled
        assert resolve_gate_backend(report, "no-such") is None
        best = resolve_gate_backend(report, "best-compiled")
        compiled = [
            n for n, e in report["backends"].items() if e.get("compiled")
        ]
        assert (best in compiled) if compiled else (best is None)

    def test_cli_runs_and_writes_report(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = tmp_path / "BENCH_kernels.json"
        rc = main([
            "kernels", "--n", "4000", "--queries", "2000",
            "--layer2-size", "256", "--runs", "1",
            "--backends", "numpy", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert "numpy" in capsys.readouterr().out

    def test_cli_gate_fails_without_compiled_backend(self, tmp_path):
        from repro.bench.__main__ import main

        rc = main([
            "kernels", "--n", "4000", "--queries", "2000",
            "--layer2-size", "256", "--runs", "1",
            "--backends", "numpy", "--min-speedup", "5",
        ])
        assert rc == 1  # numpy-only run has no compiled gate backend
