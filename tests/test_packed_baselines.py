"""Pack/fallback contract of the per-family kernel backends.

Every packable baseline flattens its built structure via ``pack()``
into a :class:`PackedPLA`/:class:`PackedTree`, and every kernel
backend -- NumPy included -- answers its batch lookups on that form;
unpackable indexes return ``None`` and their own (or the scalar
fallback) batch path runs (the soft contract of ``OrderedIndex.pack``).
This file locks down

* which baselines pack, and into which family,
* that every backend, NumPy included, serves the packed form,
* the soft fallback: a ``None`` pack never changes answers,
* the ``_packed_cache`` lifecycle (lazily built, dropped on snapshot
  restore),
* degenerate key sets -- single key, duplicate-heavy, keys at the top
  of the uint64 range -- per kernel backend, and
* the sorted-batch window-narrowing fast path of the staged engine,
  including adversarial windows that force every escape-repair branch.

The cross-dataset/cross-backend behaviour of the full batch contract
lives in ``test_conformance.py``; this file is about the packing layer
itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import INDEX_TYPES, CompressedPGMIndex
from repro.core.search import (
    NARROW_MIN_BATCH,
    NARROW_MIN_MEAN_WIDTH,
    _batch_lower_bound_window_narrowed,
    _batch_lower_bound_window_plain,
    batch_lower_bound_window,
)

from .conftest import lower_bound_oracle

#: name -> (factory, expected packed family tag).
PACKABLE = {
    "pgm-index": (INDEX_TYPES["pgm-index"], "pla"),
    "compressed-pgm": (CompressedPGMIndex, "pla"),
    "radix-spline": (INDEX_TYPES["radix-spline"], "pla"),
    "fiting-tree": (INDEX_TYPES["fiting-tree"], "pla"),
    "b-tree": (INDEX_TYPES["b-tree"], "tree"),
    "hist-tree": (INDEX_TYPES["hist-tree"], "tree"),
}

#: Baselines whose batch path is a bare searchsorted (or a structure
#: with no kernel-compatible flat form): pack() must soft-fall back.
UNPACKABLE = ["binary-search", "art", "alex", "fast"]


def _degenerate_key_sets() -> "dict[str, np.ndarray]":
    return {
        "single-key": np.array([2**40], dtype=np.uint64),
        "duplicate-heavy": np.sort(
            np.repeat(
                np.array([7, 7_000, 2**33, 2**52], dtype=np.uint64), 64
            )
        ),
        "near-2^64": np.uint64(2**64 - 1)
        - np.arange(512, dtype=np.uint64)[::-1] * np.uint64(3),
    }


def _probe_queries(keys: np.ndarray) -> np.ndarray:
    """Present keys, both off-by-one neighbours, and the extremes."""
    some = keys[:: max(len(keys) // 32, 1)]
    return np.concatenate([
        some,
        np.maximum(some, np.uint64(1)) - np.uint64(1),
        np.minimum(some, np.uint64(2**64 - 2)) + np.uint64(1),
        np.array([0, 2**63, 2**64 - 1], dtype=np.uint64),
    ])


# ----------------------------------------------------------------------
# What packs, and into which family
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(PACKABLE))
def test_packs_into_expected_family(name, books_keys):
    factory, family = PACKABLE[name]
    index = factory(books_keys)
    packed = index.pack()
    assert packed is not None, f"{name} should pack"
    assert packed.packed_kind == family
    assert packed.n == index.n


@pytest.mark.parametrize("name", UNPACKABLE)
def test_unpackable_baselines_soft_fall_back(name, books_keys):
    try:
        index = INDEX_TYPES[name](books_keys)
    except Exception:
        pytest.skip(f"{name} does not build on this dataset")
    assert index.pack() is None
    assert index._kernel_state() is None


@pytest.mark.parametrize("name", list(PACKABLE))
def test_backend_serves_packed_form(name, books_keys, kernel_backend,
                                    monkeypatch):
    """A packable baseline's ``lookup_batch`` and ``serve_batch`` go
    through the installed backend's ``lookup`` / ``serve`` on its packed
    form -- on the NumPy backend too: one batch path per family, where
    ``lookup`` is the ``serve`` of no ranges (on NumPy through
    ``serve``; on ``cext`` the family's C serve, called with NULL
    ranges)."""
    calls = []

    def spy_on(method):
        real = getattr(type(kernel_backend), method)

        def spy(self, packed, *args):
            calls.append((method, packed))
            return real(self, packed, *args)

        monkeypatch.setattr(type(kernel_backend), method, spy)

    spy_on("lookup")
    spy_on("serve")
    factory, _ = PACKABLE[name]
    index = factory(books_keys)
    queries = _probe_queries(books_keys)
    oracle = lower_bound_oracle(books_keys, queries)
    np.testing.assert_array_equal(index.lookup_batch(queries), oracle)
    assert calls[0][0] == "lookup"
    served = len(calls)
    positions, starts, counts = index.serve_batch(queries, queries, queries)
    assert [method for method, _ in calls[served:]] == ["serve"]
    assert all(packed is index._packed() for _, packed in calls)
    np.testing.assert_array_equal(positions, oracle)
    np.testing.assert_array_equal(starts, oracle)
    np.testing.assert_array_equal(counts, np.zeros_like(oracle))


def test_none_pack_is_answer_preserving(books_keys, kernel_backend):
    """An index that cannot pack answers identically via the scalar
    fallback of ``OrderedIndex.lookup_batch``, whatever backend is
    installed (the soft-fallback contract)."""
    base_cls = PACKABLE["pgm-index"][0]

    class UnpackablePGM(base_cls):
        def pack(self):
            return None

    index = UnpackablePGM(books_keys)
    assert index._kernel_state() is None
    queries = _probe_queries(books_keys)
    np.testing.assert_array_equal(
        index.lookup_batch(queries), lower_bound_oracle(books_keys, queries)
    )


# ----------------------------------------------------------------------
# Packed-cache lifecycle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(PACKABLE))
def test_pack_is_cached_per_instance(name, books_keys):
    factory, _ = PACKABLE[name]
    index = factory(books_keys)
    assert "_packed_cache" not in index.__dict__
    first = index._packed()
    assert index._packed() is first, "pack() must run once per instance"
    assert index.__dict__["_packed_cache"] is first


@pytest.mark.parametrize("name", ["pgm-index", "b-tree", "hist-tree"])
def test_snapshot_restore_drops_packed_cache(name, books_keys):
    """The packed form is derived state: a restored snapshot re-packs
    lazily against the restored structure instead of trusting a stale
    payload."""
    factory, family = PACKABLE[name]
    index = factory(books_keys)
    index._packed()
    assert "_packed_cache" in index.__dict__
    restored = type(index).restore_state(books_keys, index.snapshot_state())
    assert "_packed_cache" not in restored.__dict__
    repacked = restored._packed()
    assert repacked is not None and repacked.packed_kind == family
    queries = _probe_queries(books_keys)
    np.testing.assert_array_equal(
        restored.lookup_batch(queries), index.lookup_batch(queries)
    )


# ----------------------------------------------------------------------
# Degenerate key sets, per backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(PACKABLE))
def test_empty_key_set_is_rejected_before_packing(name):
    factory, _ = PACKABLE[name]
    with pytest.raises(ValueError):
        factory(np.empty(0, dtype=np.uint64))


@pytest.mark.parametrize("case", list(_degenerate_key_sets()))
@pytest.mark.parametrize("name", list(PACKABLE))
def test_degenerate_keys_pack_and_answer(name, case, kernel_backend):
    """Single-key, duplicate-heavy, and top-of-uint64 key sets must
    either pack (and answer bit-identically through the fused kernels)
    or fall back to the scalar path -- never crash, never misanswer."""
    from repro.baselines import UnsupportedDataError

    factory, family = PACKABLE[name]
    keys = _degenerate_key_sets()[case]
    try:
        index = factory(keys)
    except UnsupportedDataError:
        assert name == "hist-tree" and case == "duplicate-heavy"
        return
    packed = index.pack()
    if packed is not None:
        assert packed.packed_kind == family
    queries = _probe_queries(keys)
    np.testing.assert_array_equal(
        index.lookup_batch(queries),
        lower_bound_oracle(keys, queries),
        err_msg=f"{name}/{case}/{kernel_backend.name}",
    )
    positions, starts, counts = index.serve_batch(
        queries, keys[:1], keys[-1:]
    )
    np.testing.assert_array_equal(
        positions, lower_bound_oracle(keys, queries)
    )
    assert counts[0] == (
        lower_bound_oracle(keys, keys[-1:])[0]
        - lower_bound_oracle(keys, keys[:1])[0]
    )


# ----------------------------------------------------------------------
# Sorted-batch window narrowing (staged engine fast path)
# ----------------------------------------------------------------------


def _wide_windows(n: int, m: int, rng: np.random.Generator, width: int):
    center = rng.integers(0, n, m)
    lo = np.maximum(center - width // 2, 0).astype(np.int64)
    hi = np.minimum(center + width // 2, n - 1).astype(np.int64)
    return lo, hi


class TestSortedNarrowing:
    def test_narrowed_matches_plain_on_real_windows(self, books_keys):
        rng = np.random.default_rng(5)
        m = NARROW_MIN_BATCH * 2
        queries = rng.choice(books_keys, m).astype(np.uint64)
        lo, hi = _wide_windows(
            len(books_keys), m, rng, NARROW_MIN_MEAN_WIDTH * 2
        )
        want = _batch_lower_bound_window_plain(books_keys, queries, lo, hi)
        got = _batch_lower_bound_window_narrowed(books_keys, queries, lo, hi)
        np.testing.assert_array_equal(got, want)

    def test_narrowed_matches_plain_on_adversarial_windows(self, books_keys):
        """Windows that miss the answer on either side force every
        escape-repair branch; duplicates of one query across different
        windows must still scatter back to their own slots."""
        n = len(books_keys)
        rng = np.random.default_rng(6)
        m = NARROW_MIN_BATCH * 2
        queries = rng.choice(books_keys, m).astype(np.uint64)
        queries[: m // 4] = queries[0]  # heavy duplicate needles
        truth = lower_bound_oracle(books_keys, queries)
        # Shift windows so ~half escape left and ~half escape right.
        shift = rng.integers(-n // 3, n // 3, m)
        lo = np.clip(truth + shift, 0, n - 1).astype(np.int64)
        hi = np.clip(lo + NARROW_MIN_MEAN_WIDTH * 2, 0, n - 1).astype(
            np.int64
        )
        want = _batch_lower_bound_window_plain(books_keys, queries, lo, hi)
        got = _batch_lower_bound_window_narrowed(books_keys, queries, lo, hi)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, truth)

    def test_dispatcher_thresholds(self, books_keys, monkeypatch):
        """Narrowing engages only for big batches of wide windows; the
        dispatcher must stay bit-identical either side of the cut."""
        from repro.core import search

        rng = np.random.default_rng(7)
        n = len(books_keys)
        m = NARROW_MIN_BATCH
        queries = rng.choice(books_keys, m).astype(np.uint64)
        lo, hi = _wide_windows(n, m, rng, NARROW_MIN_MEAN_WIDTH * 2)
        calls = []
        real = search._batch_lower_bound_window_narrowed

        def spy(*a, **k):
            calls.append(1)
            return real(*a, **k)

        monkeypatch.setattr(
            search, "_batch_lower_bound_window_narrowed", spy
        )
        want = _batch_lower_bound_window_plain(books_keys, queries, lo, hi)
        from repro import kernels

        with kernels.use_backend("numpy"):
            got = batch_lower_bound_window(books_keys, queries, lo, hi)
            np.testing.assert_array_equal(got, want)
            assert calls, "wide windows at batch size should narrow"
            calls.clear()
            small = batch_lower_bound_window(
                books_keys, queries[:8], lo[:8], hi[:8]
            )
            np.testing.assert_array_equal(small, want[:8])
            assert not calls, "small batches must skip the narrowing path"
