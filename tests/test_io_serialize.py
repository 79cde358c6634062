"""Tests for SOSD file I/O, the data CLI, and RMI serialization."""

import dataclasses

import numpy as np
import pytest

import repro.cache as cache
from repro import kernels
from repro.core.rmi import RMI
from repro.core.serialize import load_rmi, save_rmi
from repro.data.__main__ import main as data_cli
from repro.data.io import dataset_info, read_sosd, write_sosd


class TestSosdIO:
    def test_roundtrip(self, books_keys, tmp_path):
        path = tmp_path / "books.sosd"
        written = write_sosd(path, books_keys)
        assert written == 8 + 8 * len(books_keys)
        back = read_sosd(path)
        np.testing.assert_array_equal(back, books_keys)

    def test_rejects_unsorted_write(self, tmp_path):
        with pytest.raises(ValueError, match="sorted"):
            write_sosd(tmp_path / "x.sosd", np.array([3, 1], dtype=np.uint64))

    def test_rejects_truncated_file(self, books_keys, tmp_path):
        path = tmp_path / "trunc.sosd"
        write_sosd(path, books_keys)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="header promises"):
            read_sosd(path)

    def test_rejects_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.sosd"
        path.write_bytes(b"abc")
        with pytest.raises(ValueError, match="too small"):
            read_sosd(path)

    def test_empty_dataset_roundtrip(self, tmp_path):
        path = tmp_path / "empty.sosd"
        write_sosd(path, np.array([], dtype=np.uint64))
        assert len(read_sosd(path)) == 0

    def test_dataset_info(self, wiki_keys):
        info = dataset_info(wiki_keys)
        assert info["n"] == len(wiki_keys)
        assert info["duplicates"] is True


class TestDataCli:
    def test_generate_and_info(self, tmp_path, capsys):
        out = tmp_path / "osmc.sosd"
        assert data_cli(["generate", "osmc", "--n", "2000",
                         "--out", str(out)]) == 0
        assert out.exists()
        assert data_cli(["info", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "n: 2000" in captured

    def test_generate_distribution(self, tmp_path):
        out = tmp_path / "uni.sosd"
        assert data_cli(["generate", "uniform", "--n", "500",
                         "--out", str(out)]) == 0
        assert len(read_sosd(out)) == 500

    def test_list(self, capsys):
        assert data_cli(["list"]) == 0
        out = capsys.readouterr().out
        assert "sosd:books" in out and "dist:uniform" in out

    def test_unknown_generator(self, tmp_path):
        with pytest.raises(SystemExit):
            data_cli(["generate", "imdb", "--out", str(tmp_path / "x")])


def _restored_from_cache(rmi, tmp_path):
    """``rmi`` stored by the artifact cache, then restored from it."""
    cache.activate(tmp_path / "cache")
    try:
        fp = {"test": "roundtrip"}
        cache.restore_or_build(fp, RMI, rmi.keys, lambda keys: rmi)

        def no_build(keys):
            raise AssertionError("the cache did not restore the RMI")

        return cache.restore_or_build(fp, RMI, rmi.keys, no_build)
    finally:
        cache.deactivate()


def _assert_same_packed(got, want):
    """``pack_rmi`` of both, field by field, bit for bit."""
    a, b = kernels.pack_rmi(got), kernels.pack_rmi(want)
    assert (a is None) == (b is None)
    if b is None:
        return
    for field in dataclasses.fields(b):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(y, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), field.name
            np.testing.assert_array_equal(x.view(np.uint8), y.view(np.uint8))
        else:
            assert x == y, field.name


class TestRmiSerialization:
    # On osmc (the default dataset), RX->LS's first leaf is empty (a
    # constant); on books the CS fallback fits an LS root and LR roots
    # leave the first leaf empty, so a layer's first model does not name
    # the configured type.
    @pytest.mark.parametrize("config", [
        dict(model_types=("ls", "lr"), bound_type="labs"),
        dict(model_types=("cs", "lr"), bound_type="lind"),
        dict(model_types=("rx", "ls"), bound_type="gind", search="mexp"),
        dict(model_types=("lr", "lr"), bound_type="gabs"),
        dict(model_types=("ls", "lr"), bound_type="nb", search="mlin"),
        dict(model_types=("ls", "lr"), grouped_fit=False),
        dict(model_types=("logl", "lr"), train_on_model_index=False),
        dict(dataset="books", model_types=("cs", "lr")),
        dict(dataset="books", model_types=("lr", "ls"), bound_type="lind"),
        dict(dataset="books", model_types=("lr", "lr"), copy_keys=True),
    ])
    def test_roundtrip_lookup_equivalence(self, small_datasets, tmp_path, rng,
                                          config):
        config = dict(config)
        keys = small_datasets[config.pop("dataset", "osmc")]
        rmi = RMI(keys, layer_sizes=[64], **config)
        path = tmp_path / "index.npz"
        save_rmi(rmi, path)
        queries = keys[rng.integers(0, len(keys), 200)]
        for loaded in (load_rmi(path), _restored_from_cache(rmi, tmp_path)):
            assert loaded.describe() == rmi.describe()
            assert loaded.model_types == rmi.model_types
            assert loaded.layer_sizes == rmi.layer_sizes
            for flag in ("copy_keys", "train_on_model_index",
                         "cs_fallback", "grouped_fit"):
                assert getattr(loaded, flag) == getattr(rmi, flag), flag
            _assert_same_packed(loaded, rmi)
            np.testing.assert_array_equal(loaded.leaf_model_ids,
                                          rmi.leaf_model_ids)
            np.testing.assert_array_equal(
                loaded.lookup_batch(queries), rmi.lookup_batch(queries)
            )
            for q in queries[:30]:
                assert loaded.lookup(int(q)) == rmi.lookup(int(q))
            assert loaded.size_in_bytes() == rmi.size_in_bytes()

    def test_roundtrip_without_keys(self, books_keys, tmp_path):
        rmi = RMI(books_keys, layer_sizes=[32])
        path = tmp_path / "nokeys.npz"
        save_rmi(rmi, path, include_keys=False)
        with pytest.raises(ValueError, match="no embedded keys"):
            load_rmi(path)
        loaded = load_rmi(path, keys=books_keys)
        assert loaded.lookup(int(books_keys[77])) == 77

    def test_key_length_mismatch(self, books_keys, tmp_path):
        rmi = RMI(books_keys, layer_sizes=[32])
        path = tmp_path / "m.npz"
        save_rmi(rmi, path, include_keys=False)
        with pytest.raises(ValueError, match="trained"):
            load_rmi(path, keys=books_keys[:-5])

    def test_three_layer_roundtrip(self, books_keys, tmp_path, rng):
        rmi = RMI(books_keys, layer_sizes=[8, 64],
                  model_types=("ls", "ls", "lr"))
        path = tmp_path / "three.npz"
        save_rmi(rmi, path)
        loaded = load_rmi(path)
        queries = books_keys[rng.integers(0, len(books_keys), 100)]
        np.testing.assert_array_equal(
            loaded.lookup_batch(queries), rmi.lookup_batch(queries)
        )

    def test_neural_models_rejected(self, books_keys, tmp_path):
        rmi = RMI(books_keys, layer_sizes=[8], model_types=("nn", "lr"))
        with pytest.raises(TypeError, match="not serializable"):
            save_rmi(rmi, tmp_path / "nn.npz")
