"""Shared fixtures: small, session-cached datasets and oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro import data


def kernel_backend_params() -> list:
    """One pytest param per known kernel backend.

    Backends that cannot load in this environment (no C compiler)
    come back skip-marked, so parity suites show the leg as skipped
    rather than silently dropping it.
    """
    from repro import kernels

    params = []
    for name in kernels.KNOWN_BACKENDS:
        marks = (
            []
            if kernels.backend_available(name)
            else [pytest.mark.skip(reason=f"{name} backend not available")]
        )
        params.append(pytest.param(name, marks=marks, id=name))
    return params


@pytest.fixture(params=kernel_backend_params())
def kernel_backend(request):
    """Each available kernel backend, installed as the process default.

    Tests that depend on this fixture (directly or through an autouse
    shim) run once per backend; the previous default is restored on
    teardown.
    """
    from repro import kernels

    with kernels.use_backend(request.param) as backend:
        yield backend


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_datasets() -> dict[str, np.ndarray]:
    """All four SOSD-like datasets at test scale (10k keys)."""
    return {name: data.generate(name, n=10_000) for name in data.dataset_names()}


@pytest.fixture(scope="session")
def books_keys(small_datasets) -> np.ndarray:
    return small_datasets["books"]


@pytest.fixture(scope="session")
def osmc_keys(small_datasets) -> np.ndarray:
    return small_datasets["osmc"]


@pytest.fixture(scope="session")
def fb_keys(small_datasets) -> np.ndarray:
    return small_datasets["fb"]


@pytest.fixture(scope="session")
def wiki_keys(small_datasets) -> np.ndarray:
    return small_datasets["wiki"]


@pytest.fixture(scope="session")
def sequential_keys() -> np.ndarray:
    return np.arange(1000, 6000, 5, dtype=np.uint64)


def lower_bound_oracle(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The ground truth every index must match."""
    return np.searchsorted(keys, queries, side="left").astype(np.int64)


@pytest.fixture(scope="session")
def oracle():
    return lower_bound_oracle


@pytest.fixture(scope="session")
def mixed_queries(rng):
    """Factory: present + absent queries for a key array."""

    def make(keys: np.ndarray, num: int = 500) -> np.ndarray:
        present = keys[rng.integers(0, len(keys), num // 2)]
        absent = rng.integers(0, 2**63, num - num // 2, dtype=np.uint64)
        edge = np.array(
            [0, int(keys[0]), int(keys[-1]), 2**63 - 1], dtype=np.uint64
        )
        return np.concatenate([present, absent, edge])

    return make
