"""Unit and property tests for the search algorithms (Table 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import (
    SEARCH_ALGORITHMS,
    batch_binary_search,
    binary_search,
    expected_comparisons,
    exponential_search,
    linear_search,
    model_biased_binary_search,
    model_biased_exponential_search,
    model_biased_linear_search,
    resolve_search_algorithm,
)

KEYS = np.array([2, 5, 5, 9, 12, 20, 20, 20, 31, 44], dtype=np.uint64)

ALL_ALGOS = ["bin", "mbin", "mlin", "mexp", "lin", "exp", "interp"]


def oracle(query):
    return int(np.searchsorted(KEYS, query, side="left"))


class TestFullWindowCorrectness:
    """On the whole array every algorithm must equal searchsorted."""

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    @pytest.mark.parametrize("query", [0, 2, 3, 5, 8, 9, 20, 21, 44, 45, 100])
    @pytest.mark.parametrize("prediction", [0, 3, 5, 9])
    def test_matches_oracle(self, algo, query, prediction):
        fn = SEARCH_ALGORITHMS[algo]
        result = fn(KEYS, query, 0, len(KEYS) - 1, prediction)
        assert result.position == oracle(query), (algo, query, prediction)

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_duplicates_return_first_occurrence(self, algo):
        fn = SEARCH_ALGORITHMS[algo]
        for pred in range(len(KEYS)):
            assert fn(KEYS, 20, 0, len(KEYS) - 1, pred).position == 5
            assert fn(KEYS, 5, 0, len(KEYS) - 1, pred).position == 1


class TestRestrictedWindows:
    def test_binary_within_window(self):
        # Window [3, 6]: lower bound of 20 is 5 (inside window).
        assert binary_search(KEYS, 20, 3, 6).position == 5

    def test_binary_all_smaller_returns_past_window(self):
        assert binary_search(KEYS, 100, 2, 5).position == 6

    def test_binary_empty_window(self):
        assert binary_search(KEYS, 9, 4, 3).position == 4

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_window_containing_answer(self, algo):
        fn = SEARCH_ALGORITHMS[algo]
        # Query 12 has lower bound 4; window [2, 7] contains it.
        for pred in [2, 4, 7]:
            assert fn(KEYS, 12, 2, 7, pred).position == 4


class TestComparisonsCounting:
    def test_binary_is_logarithmic(self):
        big = np.arange(0, 2**16, dtype=np.uint64)
        r = binary_search(big, 12345, 0, len(big) - 1)
        assert r.comparisons <= 17

    def test_mexp_cheap_for_accurate_predictions(self):
        big = np.arange(0, 2**16, dtype=np.uint64)
        exact = model_biased_exponential_search(big, 12345, 0, len(big) - 1, 12345)
        far = model_biased_exponential_search(big, 12345, 0, len(big) - 1, 60000)
        assert exact.comparisons < far.comparisons
        assert exact.comparisons <= 3

    def test_mlin_cost_tracks_error(self):
        big = np.arange(0, 1000, dtype=np.uint64)
        near = model_biased_linear_search(big, 500, 0, 999, 498)
        far = model_biased_linear_search(big, 500, 0, 999, 450)
        assert near.comparisons < far.comparisons

    def test_plain_variants_worse_than_model_biased(self):
        """The paper's Section 4.2 claim: plain linear/exponential
        always lose to their model-biased counterparts (with a good
        prediction)."""
        big = np.arange(0, 10_000, dtype=np.uint64)
        q, pred = 7000, 7002
        plain_lin = linear_search(big, q, 6000, 8000)
        mlin = model_biased_linear_search(big, q, 6000, 8000, pred)
        assert mlin.comparisons < plain_lin.comparisons
        plain_exp = exponential_search(big, q, 6000, 8000)
        mexp = model_biased_exponential_search(big, q, 6000, 8000, pred)
        assert mexp.comparisons < plain_exp.comparisons

    def test_interpolation_fast_on_uniform_data(self):
        from repro.core.search import interpolation_search

        big = np.arange(0, 2**18, 4, dtype=np.uint64)
        interp = interpolation_search(big, 131072, 0, len(big) - 1)
        binary = binary_search(big, 131072, 0, len(big) - 1)
        assert interp.position == binary.position
        assert interp.comparisons < binary.comparisons  # log log vs log

    def test_interpolation_terminates_on_duplicates(self):
        from repro.core.search import interpolation_search

        keys = np.sort(np.repeat(np.array([5, 9], dtype=np.uint64), 100))
        r = interpolation_search(keys, 9, 0, len(keys) - 1)
        assert r.position == 100
        assert r.comparisons <= 20  # halving fallback bounds the work

    def test_expected_comparisons_formula(self):
        est = expected_comparisons(np.array([1, 7, 1023]), "bin")
        np.testing.assert_array_equal(est, [1, 3, 10])
        with pytest.raises(ValueError):
            expected_comparisons(np.array([4]), "mexp")


class TestBatchVariants:
    def test_batch_binary_matches_scalar(self, rng):
        keys = np.sort(rng.integers(0, 10**6, 2000).astype(np.uint64))
        queries = rng.integers(0, 10**6, 500).astype(np.uint64)
        lo = np.zeros(len(queries), dtype=np.int64)
        hi = np.full(len(queries), len(keys) - 1, dtype=np.int64)
        got = batch_binary_search(keys, queries, lo, hi)
        want = np.searchsorted(keys, queries, side="left")
        np.testing.assert_array_equal(got, want)

    def test_batch_binary_respects_windows(self, rng):
        keys = np.arange(0, 1000, dtype=np.uint64)
        queries = np.array([500, 700], dtype=np.uint64)
        lo = np.array([490, 690], dtype=np.int64)
        hi = np.array([510, 710], dtype=np.int64)
        got = batch_binary_search(keys, queries, lo, hi)
        np.testing.assert_array_equal(got, [500, 700])


class TestRegistry:
    def test_resolve(self):
        assert resolve_search_algorithm("Bin") is binary_search
        assert resolve_search_algorithm("MEXP") is model_biased_exponential_search
        with pytest.raises(ValueError, match="unknown search algorithm"):
            resolve_search_algorithm("quantum")

    def test_table4_complete(self):
        assert {"bin", "mbin", "mlin", "mexp"} <= set(SEARCH_ALGORITHMS)


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 80))
    values = draw(
        st.lists(st.integers(0, 500), min_size=n, max_size=n)
    )
    keys = np.sort(np.asarray(values, dtype=np.uint64))
    query = draw(st.integers(0, 520))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    pred = draw(st.integers(0, n - 1))
    return keys, query, lo, hi, pred


@settings(max_examples=200, deadline=None)
@given(case=search_cases())
@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_window_lower_bound_property(algo, case):
    """For any window and prediction, every algorithm returns the lower
    bound *restricted to the window*: the smallest in-window index with
    key >= query, or one past the window."""
    keys, query, lo, hi, pred = case
    fn = SEARCH_ALGORITHMS[algo]
    got = fn(keys, query, lo, hi, pred).position
    window = keys[lo : hi + 1]
    want = lo + int(np.searchsorted(window, query, side="left"))
    assert got == want
