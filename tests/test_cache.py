"""Tests for the content-addressed artifact cache and suite runner.

Covers the cache's contract top to bottom: fingerprint stability, the
disk store's verification (corrupted and stale entries are rebuilt,
never served), the in-process LRU that deduplicates dataset generation
within one run, warm-vs-cold bit-identity of figure results, RMI and
baseline-index round-trips, and the ``figures`` / ``cache`` / ``data``
CLI surfaces.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.cache as cache
from repro.cache.fingerprint import (
    canonical_json,
    dataset_fingerprint,
    fingerprint_digest,
)
from repro.cache.store import ArtifactCache
from repro.core.builder import RMIConfig


@pytest.fixture(autouse=True)
def _isolated_cache_state(monkeypatch):
    """Every test starts and ends with no active cache and empty memos."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    cache.deactivate()
    cache.clear_memos()
    yield
    cache.deactivate()
    cache.clear_memos()


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def test_fingerprint_canonical_and_stable():
    a = {"name": "books", "n": 1000, "seed": 42}
    b = {"seed": 42, "n": 1000, "name": "books"}
    assert canonical_json(a) == canonical_json(b)
    assert fingerprint_digest(a) == fingerprint_digest(b)
    # numpy scalars and tuples canonicalize to their plain equivalents
    c = {"name": "books", "n": np.int64(1000), "seed": (42,)}
    d = {"name": "books", "n": 1000, "seed": [42]}
    assert fingerprint_digest(c) == fingerprint_digest(d)


def test_dataset_fingerprint_distinguishes_parameters():
    base = dataset_fingerprint("books", 1000, 42)
    assert fingerprint_digest(base) != fingerprint_digest(
        dataset_fingerprint("books", 1001, 42)
    )
    assert fingerprint_digest(base) != fingerprint_digest(
        dataset_fingerprint("books", 1000, 43)
    )
    assert fingerprint_digest(base) != fingerprint_digest(
        dataset_fingerprint("fb", 1000, 42)
    )


# ----------------------------------------------------------------------
# Disk store: verification, corruption, staleness
# ----------------------------------------------------------------------


def _entry_paths(store: ArtifactCache, kind: str, fp: dict):
    digest = fingerprint_digest(fp)
    return store._payload_path(kind, digest), store._meta_path(kind, digest)


def test_dataset_persists_and_mmaps(tmp_path):
    from repro.data import sosd

    cache.activate(tmp_path)
    keys = cache.dataset("books", 1000, 42)
    np.testing.assert_array_equal(keys, sosd.generate("books", n=1000, seed=42))
    cache.clear_memos()
    again = cache.dataset("books", 1000, 42)
    assert isinstance(again, np.memmap)  # served from disk, mmap-backed
    np.testing.assert_array_equal(again, keys)


def test_corrupted_dataset_rebuilt(tmp_path):
    store = cache.activate(tmp_path)
    want = np.array(cache.dataset("books", 1000, 42))
    payload, _ = _entry_paths(store, "datasets",
                              dataset_fingerprint("books", 1000, 42))
    payload.write_bytes(payload.read_bytes()[:100])  # truncate: corrupt
    cache.clear_memos()
    got = cache.dataset("books", 1000, 42)
    np.testing.assert_array_equal(got, want)
    # and the entry was rewritten whole
    cache.clear_memos()
    np.testing.assert_array_equal(cache.dataset("books", 1000, 42), want)


def test_stale_fingerprint_rebuilt(tmp_path):
    """An entry whose stored fingerprint disagrees is never served."""
    store = cache.activate(tmp_path)
    want = np.array(cache.dataset("books", 1000, 42))
    payload, meta_path = _entry_paths(store, "datasets",
                                      dataset_fingerprint("books", 1000, 42))
    meta = json.loads(meta_path.read_text())
    meta["fingerprint"]["seed"] = 999  # now stale w.r.t. the request
    meta_path.write_text(json.dumps(meta))
    cache.clear_memos()
    before = store.misses["datasets"]
    got = cache.dataset("books", 1000, 42)
    assert store.misses["datasets"] == before + 1
    np.testing.assert_array_equal(got, want)


def test_stats_and_gc(tmp_path):
    store = cache.activate(tmp_path)
    cache.dataset("books", 500, 42)
    cache.dataset("fb", 500, 42)
    s = store.stats()
    assert s["kinds"]["datasets"]["entries"] == 2
    assert s["bytes"] > 0
    # corrupt one entry: gc removes it, keeps the other
    payload, _ = _entry_paths(store, "datasets",
                              dataset_fingerprint("books", 500, 42))
    payload.write_bytes(b"garbage")
    outcome = store.gc()
    assert outcome == {"removed": 1, "kept": 1}
    assert store.gc(drop_all=True) == {"removed": 1, "kept": 0}
    assert store.stats()["entries"] == 0


# ----------------------------------------------------------------------
# In-process LRU: one generation per dataset per run (disk cache off)
# ----------------------------------------------------------------------


def test_datasets_generated_once_per_run(monkeypatch):
    from repro.bench.figures import _datasets
    from repro.data import sosd

    calls: list[str] = []
    real = sosd.generate

    def counting(name, n=None, seed=42, **kw):
        calls.append(name)
        return real(name, n=n, seed=seed, **kw)

    monkeypatch.setattr(sosd, "generate", counting)
    first = _datasets(800, 42)
    second = _datasets(800, 42)  # a second figure asking for the same data
    assert sorted(calls) == sorted(sosd.dataset_names())
    for name in first:
        assert first[name] is second[name]  # shared, not regenerated


def test_dataset_memo_is_bounded():
    for seed in range(cache._DATASET_MEMO_MAX + 5):
        cache.dataset("books", 64, seed)
    assert len(cache._dataset_memo) == cache._DATASET_MEMO_MAX


# ----------------------------------------------------------------------
# Figure results: warm == cold, bit for bit
# ----------------------------------------------------------------------


def test_figure_results_warm_equals_cold(tmp_path):
    """Warm fig02 (all four datasets) is cached and bit-identical."""
    from repro.bench.registry import run_experiment_cached

    cache.activate(tmp_path)
    cold, from_cache = run_experiment_cached("fig02", n=1500)
    assert not from_cache
    assert sorted(r["dataset"] for r in cold.rows) == sorted(
        ["books", "fb", "osmc", "wiki"]
    )
    cache.clear_memos()
    warm, from_cache = run_experiment_cached("fig02", n=1500)
    assert from_cache
    assert warm.to_json() == cold.to_json()
    assert warm.rows == cold.rows


def test_figure_cache_keyed_by_bound_arguments(tmp_path):
    """Defaults applied: fig04() and fig04(n=default) share one entry;
    an explicit parameter change does not."""
    from repro.bench.figures import DEFAULT_N
    from repro.bench.registry import run_experiment_cached

    cache.activate(tmp_path)
    run_experiment_cached("fig04", n=1500)
    _, from_cache = run_experiment_cached("fig04", n=1500, seed=42)
    assert from_cache  # seed=42 is the default: same bound arguments
    _, from_cache = run_experiment_cached("fig04", n=1500, seed=7)
    assert not from_cache


def test_corrupted_figure_result_recomputed(tmp_path):
    from repro.bench.registry import run_experiment_cached
    from repro.cache.fingerprint import figure_fingerprint

    store = cache.activate(tmp_path)
    cold, _ = run_experiment_cached("fig04", n=1500)
    results_dir = tmp_path / "results"
    for payload in results_dir.glob("*.json"):
        if not payload.name.endswith(".meta.json"):
            payload.write_text("{not json")
    cache.clear_memos()
    warm, from_cache = run_experiment_cached("fig04", n=1500)
    assert not from_cache  # corruption detected: recomputed, not served
    assert warm.to_json() == cold.to_json()


# ----------------------------------------------------------------------
# Index round-trips through the cache
# ----------------------------------------------------------------------


def test_rmi_restored_from_cache_equivalent(tmp_path):
    cache.activate(tmp_path)
    config = RMIConfig(layer_sizes=(64,))
    built = cache.rmi_for("books", 2000, 42, config)
    cache.clear_memos()
    restored = cache.rmi_for("books", 2000, 42, config)
    keys = cache.dataset("books", 2000, 42)
    rng = np.random.default_rng(3)
    queries = rng.integers(0, 2**64, size=512, dtype=np.uint64)
    np.testing.assert_array_equal(
        restored.lookup_batch(queries), built.lookup_batch(queries)
    )
    assert restored.size_in_bytes() == built.size_in_bytes()
    assert len(keys) == 2000


def test_rmi_for_stores_every_soa_family_and_builds_the_rest(tmp_path):
    """The extension families with SoA tables are stored and restored;
    the neural extension has none, so it is built and not stored."""
    store = cache.activate(tmp_path)
    keys = cache.dataset("books", 2000, 42)
    rng = np.random.default_rng(5)
    queries = np.concatenate([
        keys[rng.integers(0, len(keys), 256)],
        rng.integers(0, 2**64, size=256, dtype=np.uint64),
    ])
    oracle = np.searchsorted(keys, queries, side="left")
    built = {}
    for root, stored in (("nn", False), ("logl", True), ("normal", True),
                         ("lognorm", True)):
        config = RMIConfig(model_types=(root, "lr"), layer_sizes=(8,))
        entries = store.stats()["kinds"]["indexes"]["entries"]
        built[root] = cache.rmi_for("books", 2000, 42, config)
        assert store.stats()["kinds"]["indexes"]["entries"] \
            == entries + stored, root
        np.testing.assert_array_equal(built[root].lookup_batch(queries),
                                      oracle)
    cache.clear_memos()
    hits = store.hits["indexes"]
    restored = cache.rmi_for(
        "books", 2000, 42,
        RMIConfig(model_types=("normal", "lr"), layer_sizes=(8,)))
    assert store.hits["indexes"] == hits + 1
    assert restored is not built["normal"]
    assert restored.describe() == built["normal"].describe()
    np.testing.assert_array_equal(restored.lookup_batch(queries), oracle)


def test_baseline_restored_from_cache_equivalent(tmp_path):
    from repro.baselines import INDEX_TYPES

    cache.activate(tmp_path)
    spec = {"sparsity": 16}
    factory = lambda keys: INDEX_TYPES["b-tree"](keys, sparsity=16)
    built = cache.index_for("books", 2000, 42, "b-tree", spec, factory,
                            cls=INDEX_TYPES["b-tree"])
    cache.clear_memos()
    restored = cache.index_for("books", 2000, 42, "b-tree", spec, factory,
                               cls=INDEX_TYPES["b-tree"])
    rng = np.random.default_rng(4)
    queries = rng.integers(0, 2**64, size=512, dtype=np.uint64)
    np.testing.assert_array_equal(
        restored.lookup_batch(queries), built.lookup_batch(queries)
    )
    assert restored.size_in_bytes() == built.size_in_bytes()


def test_unsupported_data_never_cached(tmp_path):
    from repro.baselines import INDEX_TYPES, UnsupportedDataError

    store = cache.activate(tmp_path)
    spec = {"num_bins": 64, "max_error": 32}
    factory = lambda keys: INDEX_TYPES["hist-tree"](keys, num_bins=64,
                                                    max_error=32)
    with pytest.raises(UnsupportedDataError):  # wiki has duplicates
        cache.index_for("wiki", 2000, 42, "hist-tree", spec, factory,
                        cls=INDEX_TYPES["hist-tree"])
    assert store.stats()["kinds"]["indexes"]["entries"] == 0


# ----------------------------------------------------------------------
# Suite runner and CLI surfaces
# ----------------------------------------------------------------------


def test_suite_report_cold_warm(tmp_path):
    from repro.bench.suite import suite_report

    report = suite_report(["fig02", "fig04"], n=1500,
                          cache_dir=tmp_path / "suite")
    assert report["bit_identical"]
    assert report["all_warm_from_cache"]
    assert [f["figure"] for f in report["figures"]] == ["fig02", "fig04"]
    assert report["speedup"] > 0


def test_cli_figures_cold_warm_gate(tmp_path, capsys):
    from repro.bench.__main__ import main

    out = tmp_path / "BENCH_figures.json"
    code = main(["figures", "--only", "fig02,fig04", "--n", "1500",
                 "--cache-dir", str(tmp_path / "c"), "--cold-warm",
                 "--out", str(out), "--min-speedup", "1.0"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["bit_identical"] and report["all_warm_from_cache"]
    assert "OK: speedup" in capsys.readouterr().out


def test_cli_figures_plain_run_uses_cache(tmp_path, capsys):
    from repro.bench.__main__ import main

    cache_dir = str(tmp_path / "c")
    assert main(["figures", "--only", "fig02", "--n", "1500",
                 "--cache-dir", cache_dir]) == 0
    assert "[computed]" in capsys.readouterr().out
    cache.deactivate()
    cache.clear_memos()
    assert main(["figures", "--only", "fig02", "--n", "1500",
                 "--cache-dir", cache_dir]) == 0
    assert "[cache]" in capsys.readouterr().out


def test_cli_cache_stats_and_gc(tmp_path, capsys, monkeypatch):
    from repro.bench.__main__ import main

    # Scope the compiled-kernel build cache too: ``cache gc`` collects
    # both stores, and the test must not touch the user's real builds.
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "kernels"))
    cache.activate(tmp_path)
    cache.dataset("books", 500, 42)
    cache.deactivate()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["kinds"]["datasets"]["entries"] == 1
    assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--all"]) == 0
    out = capsys.readouterr().out
    assert "removed 1" in out
    assert "kernels gc:" in out


def test_cli_cache_stats_json_flag(tmp_path, capsys, monkeypatch):
    """``cache stats --json`` is single-line machine-readable output."""
    from repro.bench.__main__ import main

    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "kernels"))
    cache.activate(tmp_path)
    cache.dataset("books", 500, 42)
    cache.deactivate()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                 "--json"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 1, "compact single-line JSON"
    stats = json.loads(out)
    assert stats["kinds"]["datasets"]["entries"] == 1
    assert stats["entries"] >= 1 and stats["bytes"] > 0
    assert stats["kernels"]["dir"] == str(tmp_path / "kernels")
    assert stats["kernels"]["entries"] == []
    assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--all",
                 "--json"]) == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome == {"removed": 1, "kept": 0,
                       "kernels": {"removed": 0, "kept": 0}}


def test_cli_data_npy_roundtrip(tmp_path, capsys):
    from repro.data.__main__ import main
    from repro.data.io import read_npy
    from repro.data import sosd

    out = tmp_path / "books.npy"
    assert main(["generate", "books", "--n", "1000", "--format", "npy",
                 "--out", str(out)]) == 0
    keys = read_npy(out)
    assert isinstance(keys, np.memmap)
    np.testing.assert_array_equal(keys, sosd.generate("books", n=1000, seed=42))
    assert main(["info", str(out)]) == 0
    assert "n: 1000" in capsys.readouterr().out
