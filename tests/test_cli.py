"""Tests for the command-line interfaces."""

import pytest

from repro.__main__ import main as repro_cli
from repro.bench.__main__ import main as bench_cli
from repro.kernels import backend_available


class TestReproCli:
    def test_guideline(self, capsys):
        assert repro_cli(["guideline", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "LS→LR" in out

    def test_tune_on_generated_dataset(self, capsys):
        assert repro_cli(["tune", "uniform", "--n", "5000"]) == 0
        out = capsys.readouterr().out
        assert "Pareto-optimal" in out
        assert "cost_proxy" in out

    def test_compare_small(self, capsys):
        assert repro_cli(["compare", "books", "--n", "4000",
                          "--lookups", "200"]) == 0
        out = capsys.readouterr().out
        assert "rmi" in out and "b-tree" in out
        assert "WRONG" not in out

    def test_compare_skips_tries_on_wiki(self, capsys):
        assert repro_cli(["compare", "wiki", "--n", "4000",
                          "--lookups", "100"]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out

    def test_tune_on_sosd_file(self, tmp_path, capsys):
        from repro.data import books
        from repro.data.io import write_sosd

        path = tmp_path / "b.sosd"
        write_sosd(path, books(n=3_000))
        assert repro_cli(["tune", str(path)]) == 0

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            repro_cli(["tune", "no-such-thing"])

    def test_recommend_smooth(self, capsys):
        assert repro_cli(["recommend", "books", "--n", "5000"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[2].startswith("1. rmi")

    def test_recommend_with_updates(self, capsys):
        assert repro_cli(["recommend", "wiki", "--n", "5000",
                          "--updates", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "rmi" not in out.splitlines()[2]  # static indexes excluded


class TestBenchCli:
    def test_list(self, capsys):
        assert bench_cli(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out and "ext_robust" in out

    def test_run_one_figure(self, capsys):
        assert bench_cli(["fig02", "--n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out and "books" in out

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            bench_cli(["fig99"])

    def test_build_benchmark_subcommand(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_build.json"
        assert bench_cli(["build", "--n", "5000", "--layer2-size", "256",
                          "--jobs", "2", "--out", str(out_file),
                          "--min-speedup", "1.0"]) == 0
        text = capsys.readouterr().out
        assert "grouped vs per-segment" in text and "speedup" in text
        import json

        report = json.loads(out_file.read_text())
        assert report["n"] == 5000
        assert {e["grouped"]["fit_path"] for e in report["configs"]} \
            == {"grouped"}
        assert {e["reference"]["fit_path"] for e in report["configs"]} \
            == {"per_segment"}
        assert report["min_speedup"] > 0
        # Each pool task pins the backend its sweep names.
        for e in report["configs"]:
            assert e["grouped"]["kernels"] == "numpy"
            assert e["reference"]["kernels"] == "numpy"
            if backend_available("cext"):
                assert e["cext"]["kernels"] == "cext"
            else:
                assert e["cext"] is None

    def test_build_benchmark_min_speedup_gate(self, capsys):
        # An absurd floor must fail the gate with exit code 1.
        assert bench_cli(["build", "--n", "5000", "--layer2-size", "256",
                          "--min-speedup", "1e9"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_jobs_flag_forwarded_only_where_accepted(self, capsys):
        # fig02's driver takes no ``jobs``; the registry must drop it
        # rather than crash.
        assert bench_cli(["fig02", "--n", "3000", "--jobs", "2"]) == 0

    def test_csv_and_json_export(self, tmp_path, capsys):
        assert bench_cli(["fig02", "--n", "3000",
                          "--csv", str(tmp_path / "csv"),
                          "--json", str(tmp_path / "json")]) == 0
        csv_text = (tmp_path / "csv" / "fig02.csv").read_text()
        assert csv_text.startswith("dataset,")
        import json

        payload = json.loads((tmp_path / "json" / "fig02.json").read_text())
        assert payload["figure_id"] == "fig02"
        assert len(payload["rows"]) == 4


class TestFigureSuiteErrorPropagation:
    """A raising figure driver must surface as a nonzero exit, not a
    silently partial report."""

    @pytest.fixture()
    def broken_experiment(self, monkeypatch):
        from repro.bench.registry import EXPERIMENTS, Experiment

        def boom_driver(n=2000, seed=42):
            raise RuntimeError("driver exploded")

        exp = Experiment("figboom", "synthetic", "always raises", boom_driver)
        monkeypatch.setitem(EXPERIMENTS, "figboom", exp)
        return exp

    def test_run_suite_captures_failure_and_other_figures(
            self, broken_experiment):
        from repro.bench.suite import run_suite

        run = run_suite(["fig02", "figboom"], n=1500, jobs=1)
        assert run["failed"] == ["figboom"]
        ok, bad = run["figures"]
        assert ok["figure"] == "fig02" and ok["rows"] > 0
        assert "RuntimeError: driver exploded" in bad["error"]
        assert "payload" not in bad

    def test_figures_cli_exits_nonzero(self, broken_experiment, capsys):
        assert bench_cli(["figures", "--only", "figboom"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "FAIL: 1 figure(s) raised: figboom" in captured.out
        assert "driver exploded" in captured.err

    def test_figures_cli_zero_on_success(self, capsys):
        assert bench_cli(["figures", "--only", "fig02", "--n", "1500"]) == 0

    def test_suite_report_refuses_failing_suite(self, broken_experiment,
                                                tmp_path):
        from repro import cache
        from repro.bench.suite import suite_report

        try:
            with pytest.raises(RuntimeError, match="cold suite run failed"):
                suite_report(["figboom"], jobs=1,
                             cache_dir=tmp_path / "cache")
        finally:
            cache.deactivate()
            cache.clear_memos()
