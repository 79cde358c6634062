"""Unit and integration tests for the RMI itself (Section 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import interval_sizes, prediction_errors
from repro.core.rmi import RMI, build_rmi_layers
from repro.kernels import backend_available, use_backend


def oracle(keys, queries):
    return np.searchsorted(keys, queries, side="left").astype(np.int64)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            RMI(np.array([], dtype=np.uint64))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            RMI(np.array([5, 3, 9], dtype=np.uint64))

    def test_rejects_mismatched_types_and_sizes(self):
        keys = np.arange(100, dtype=np.uint64)
        with pytest.raises(ValueError, match="one model type per layer"):
            RMI(keys, layer_sizes=[8], model_types=("ls",))
        with pytest.raises(ValueError, match="positive"):
            RMI(keys, layer_sizes=[0], model_types=("ls", "lr"))

    def test_accepts_duplicates(self, wiki_keys):
        rmi = RMI(wiki_keys, layer_sizes=[64])
        q = int(wiki_keys[len(wiki_keys) // 2])
        assert rmi.lookup(q) == oracle(wiki_keys, np.array([q]))[0]

    def test_single_key_dataset(self):
        rmi = RMI(np.array([42], dtype=np.uint64), layer_sizes=[4])
        assert rmi.lookup(42) == 0
        assert rmi.lookup(41) == 0
        assert rmi.lookup(43) == 1


class TestLookupCorrectness:
    @pytest.mark.parametrize("root", ["lr", "ls", "cs", "rx"])
    @pytest.mark.parametrize("leaf", ["lr", "ls"])
    def test_all_model_combos_on_books(self, books_keys, root, leaf, rng):
        rmi = RMI(books_keys, layer_sizes=[128], model_types=(root, leaf))
        queries = books_keys[rng.integers(0, len(books_keys), 300)]
        got = rmi.lookup_batch(queries)
        np.testing.assert_array_equal(got, oracle(books_keys, queries))

    @pytest.mark.parametrize("dataset", ["books", "fb", "osmc", "wiki"])
    def test_every_key_found(self, small_datasets, dataset):
        keys = small_datasets[dataset]
        rmi = RMI(keys, layer_sizes=[256])
        got = rmi.lookup_batch(keys)
        np.testing.assert_array_equal(got, oracle(keys, keys))

    def test_absent_keys(self, osmc_keys, mixed_queries):
        rmi = RMI(osmc_keys, layer_sizes=[128])
        queries = mixed_queries(osmc_keys)
        got = rmi.lookup_batch(queries)
        np.testing.assert_array_equal(got, oracle(osmc_keys, queries))
        for q in queries[:80]:
            assert rmi.lookup(int(q)) == oracle(osmc_keys, np.array([q]))[0]

    @pytest.mark.parametrize("bound", ["lind", "labs", "gind", "gabs", "nb"])
    @pytest.mark.parametrize("search", ["mbin", "mexp", "mlin"])
    def test_bound_search_matrix(self, books_keys, bound, search, rng):
        rmi = RMI(books_keys, layer_sizes=[64], bound_type=bound, search=search)
        queries = books_keys[rng.integers(0, len(books_keys), 100)]
        for q in queries:
            assert rmi.lookup(int(q)) == oracle(books_keys, np.array([q]))[0]

    def test_query_past_all_keys_returns_n(self, books_keys):
        rmi = RMI(books_keys, layer_sizes=[32])
        assert rmi.lookup(int(books_keys[-1]) + 1) == len(books_keys)

    def test_query_before_all_keys_returns_zero(self, books_keys):
        rmi = RMI(books_keys, layer_sizes=[32])
        assert rmi.lookup(0) == 0


class TestTrainingVariants:
    def test_copy_and_nocopy_agree(self, osmc_keys, rng):
        """The paper's Section 4.1 optimization must not change results."""
        a = RMI(osmc_keys, layer_sizes=[64], copy_keys=False)
        b = RMI(osmc_keys, layer_sizes=[64], copy_keys=True)
        queries = osmc_keys[rng.integers(0, len(osmc_keys), 200)]
        np.testing.assert_array_equal(
            a.lookup_batch(queries), b.lookup_batch(queries)
        )
        assert b.build_stats.keys_copied > 0
        assert a.build_stats.keys_copied == 0

    def test_model_index_vs_position_training(self, books_keys, rng):
        """Training on scaled model indexes (Section 4.1) is a
        numerically equivalent re-parameterization for linear models."""
        a = RMI(books_keys, layer_sizes=[64], train_on_model_index=True)
        b = RMI(books_keys, layer_sizes=[64], train_on_model_index=False)
        queries = books_keys[rng.integers(0, len(books_keys), 200)]
        np.testing.assert_array_equal(
            a.lookup_batch(queries), b.lookup_batch(queries)
        )
        ids_a, _ = a.predict_batch(queries)
        ids_b, _ = b.predict_batch(queries)
        # Same segmentation up to float rounding on segment edges.
        assert np.mean(ids_a == ids_b) > 0.99

    def test_cs_fallback_flag(self, fb_keys):
        with_fb = RMI(fb_keys, layer_sizes=[32], model_types=("cs", "lr"),
                      cs_fallback=True)
        without = RMI(fb_keys, layer_sizes=[32], model_types=("cs", "lr"),
                      cs_fallback=False)
        # Both must be correct regardless of which model won.
        for rmi in (with_fb, without):
            q = int(fb_keys[123])
            assert rmi.lookup(q) == 123 or fb_keys[rmi.lookup(q)] == fb_keys[123]


class TestMultiLayer:
    def test_three_layer_rmi(self, books_keys, rng):
        rmi = RMI(books_keys, layer_sizes=[16, 256],
                  model_types=("ls", "ls", "lr"))
        assert len(rmi.layers) == 3
        assert [len(l) for l in rmi.layers] == [1, 16, 256]
        queries = books_keys[rng.integers(0, len(books_keys), 300)]
        np.testing.assert_array_equal(
            rmi.lookup_batch(queries), oracle(books_keys, queries)
        )

    def test_three_layer_scalar_lookups(self, osmc_keys):
        rmi = RMI(osmc_keys, layer_sizes=[8, 64],
                  model_types=("cs", "ls", "lr"), search="mexp",
                  bound_type="lind")
        for i in range(0, len(osmc_keys), 997):
            assert rmi.lookup(int(osmc_keys[i])) == oracle(
                osmc_keys, osmc_keys[i : i + 1]
            )[0]

    def test_deeper_is_not_less_accurate_than_root_only(self, books_keys):
        two = RMI(books_keys, layer_sizes=[256])
        med2 = float(np.median(prediction_errors(two)))
        three = RMI(books_keys, layer_sizes=[16, 256],
                    model_types=("ls", "ls", "lr"))
        med3 = float(np.median(prediction_errors(three)))
        # Both should be far better than a single model over the data.
        single_like = RMI(books_keys, layer_sizes=[1])
        med1 = float(np.median(prediction_errors(single_like)))
        assert med2 < med1
        assert med3 < med1


class TestBoundsIntegration:
    def test_bounds_contain_all_training_keys(self, small_datasets):
        for name, keys in small_datasets.items():
            rmi = RMI(keys, layer_sizes=[128], bound_type="labs")
            preds = rmi._predict_positions(keys, rmi.leaf_model_ids)
            lo, hi = rmi.bounds.intervals(preds, rmi.leaf_model_ids)
            positions = np.arange(len(keys))
            assert np.all(lo <= positions), name
            assert np.all(positions <= hi), name

    def test_interval_sizes_positive(self, books_keys):
        rmi = RMI(books_keys, layer_sizes=[64])
        sizes = interval_sizes(rmi)
        assert np.all(sizes >= 1)
        assert len(sizes) == len(books_keys)


class TestAccounting:
    def test_size_grows_with_layer2(self, books_keys):
        sizes = [
            RMI(books_keys, layer_sizes=[m]).size_in_bytes()
            for m in (16, 256, 1024)
        ]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_size_components(self, books_keys):
        rmi = RMI(books_keys, layer_sizes=[100], model_types=("ls", "lr"),
                  bound_type="labs")
        # root (16) + 100 leaves (16 each) + 100 abs bounds (8 each)
        assert rmi.size_in_bytes() == 16 + 100 * 16 + 100 * 8

    @pytest.mark.parametrize("kernels", [
        "numpy",
        pytest.param("cext", marks=pytest.mark.skipif(
            not backend_available("cext"),
            reason="cext backend not available")),
    ])
    def test_build_stats_cover_all_steps(self, books_keys, kernels):
        # The cext backend builds this configuration with its build
        # kernels; the step timings and work counters keep their meaning.
        with use_backend(kernels):
            rmi = RMI(books_keys, layer_sizes=[128], bound_type="lind")
        st_ = rmi.build_stats
        assert st_.total_seconds > 0
        assert st_.train_root_seconds >= 0
        assert st_.segment_seconds > 0
        assert st_.train_leaves_seconds > 0
        assert st_.bounds_seconds > 0
        assert st_.fit_path == "grouped"
        # One root evaluation and one leaf evaluation per key.
        assert st_.keys_touched == 2 * len(books_keys)

    def test_describe_mentions_configuration(self, books_keys):
        rmi = RMI(books_keys, layer_sizes=[64], model_types=("cs", "lr"),
                  bound_type="gind", search="mexp")
        text = rmi.describe()
        assert "CS" in text and "LR" in text and "GIND" in text.upper()

    def test_build_rmi_layers_convenience(self, books_keys):
        rmi = build_rmi_layers(books_keys, root="rx", leaf="ls",
                               num_leaf_models=32)
        assert rmi.layer_sizes == [1, 32]


class TestPredictionInternals:
    def test_predict_batch_matches_scalar(self, books_keys):
        rmi = RMI(books_keys, layer_sizes=[64])
        sample = books_keys[::500]
        ids, preds = rmi.predict_batch(sample)
        for i, q in enumerate(sample):
            mid, pos = rmi.predict(int(q))
            assert (mid, pos) == (int(ids[i]), int(preds[i]))

    def test_predictions_clamped(self, fb_keys):
        rmi = RMI(fb_keys, layer_sizes=[64])
        _, preds = rmi.predict_batch(fb_keys)
        assert preds.min() >= 0
        assert preds.max() <= len(fb_keys) - 1

    def test_lookup_traced_counts(self, books_keys):
        rmi = RMI(books_keys, layer_sizes=[64], bound_type="labs")
        trace = rmi.lookup_traced(int(books_keys[777]))
        assert trace.position == 777
        assert trace.model_evaluations == 2
        assert trace.comparisons >= 1
        assert trace.interval_size >= 1


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.integers(0, 2**40), min_size=2, max_size=400),
    layer2=st.sampled_from([4, 16, 64]),
    root=st.sampled_from(["lr", "ls", "cs", "rx"]),
    bound=st.sampled_from(["lind", "labs", "gind", "gabs", "nb"]),
)
def test_rmi_lower_bound_property(data, layer2, root, bound):
    """For arbitrary key sets and configurations, RMI lookups equal the
    searchsorted oracle, for present and absent keys alike."""
    keys = np.sort(np.asarray(data, dtype=np.uint64))
    rmi = RMI(keys, layer_sizes=[layer2], model_types=(root, "lr"),
              bound_type=bound, search="mexp" if bound == "nb" else "bin")
    queries = np.concatenate([keys[:50], keys[:50] + 1, keys[:50] - 1])
    got = rmi.lookup_batch(queries)
    np.testing.assert_array_equal(
        got, np.searchsorted(keys, queries, side="left")
    )
