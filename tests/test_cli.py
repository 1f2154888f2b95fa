"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main


class TestCatalog:
    def test_prints_all_benchmarks(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for abbr in ("PVC", "DXTC", "LAVAMD", "MRI-Q"):
            assert abbr in out
        assert out.count("memory") == 10
        assert out.count("compute") == 5


class TestRun:
    def test_run_single_policy(self, capsys):
        assert main(["run", "--mix", "PVC,DXTC", "--policy", "ugpu",
                     "--cycles", "10000000"]) == 0
        out = capsys.readouterr().out
        assert "ugpu" in out
        assert "PVC=" in out and "DXTC=" in out

    def test_run_multiple_policies(self, capsys):
        assert main(["run", "--mix", "PVC,DXTC", "--policy", "bp", "ugpu",
                     "--cycles", "10000000"]) == 0
        out = capsys.readouterr().out
        assert "bp" in out and "ugpu" in out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--mix", "PVC,DXTC", "--policy", "nonsense"])

    def test_missing_mix_rejected(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_footer_goes_to_stderr(self, capsys):
        argv = ["run", "--mix", "PVC,DXTC", "--policy", "bp",
                "--cycles", "2000000", "--no-cache"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "ExecStats:" in first.err and "ExecStats:" not in first.out
        assert main(argv) == 0
        assert capsys.readouterr().out == first.out


class TestSweepAndQoS:
    def test_sweep_reports_gain(self, capsys):
        assert main(["sweep", "--policies", "bp", "ugpu",
                     "--cycles", "5000000"]) == 0
        out = capsys.readouterr().out
        assert "ugpu vs bp:" in out
        assert "STP mean" in out

    def test_sweep_footer_goes_to_stderr(self, capsys):
        assert main(["sweep", "--policies", "bp", "--cycles", "2000000",
                     "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "ExecStats:" in captured.err
        assert "ExecStats:" not in captured.out

    def test_qos_scenario(self, capsys):
        assert main(["qos", "--mix", "PVC,DXTC", "--target", "0.75",
                     "--cycles", "10000000"]) == 0
        out = capsys.readouterr().out
        assert "UGPU" in out and "MPS" in out
        assert "meets" in out or "VIOLATES" in out

    def test_qos_requires_two_benchmarks(self, capsys):
        assert main(["qos", "--mix", "PVC", "--cycles", "5000000"]) == 2


class TestErrorBoundary:
    """Rejected input ends in one ``error:`` line and exit status 2, not
    a traceback."""

    @pytest.mark.parametrize("argv", [
        ["fleet", "--nodes", "4", "--cycles", "0", "--no-cache"],
        ["arrivals", "--cycles", "-5"],
        ["sweep", "--policies", "bp", "--cycles", "0", "--no-cache"],
    ], ids=["fleet", "arrivals", "sweep"])
    def test_config_error_is_one_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "must be positive" in err


class TestExport:
    def test_fig2_csv_to_stdout(self, capsys):
        assert main(["export", "fig2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("series,x,normalized_perf")
        assert "vs_channels" in out and "vs_sms" in out

    def test_fig4_csv_to_file(self, tmp_path, capsys):
        path = tmp_path / "fig4.csv"
        assert main(["export", "fig4", "--output", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "pvc_sms,pvc_channels,stp"
        assert len(lines) > 50

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["export", "fig99"])


class TestMetricsFlags:
    def test_arrivals_with_metrics_exports(self, tmp_path, capsys):
        prom = tmp_path / "out.prom"
        series = tmp_path / "series.csv"
        snapshot = tmp_path / "out.json"
        assert main(["arrivals", "--seed", "0", "--cycles", "8000000",
                     "--metrics-out", str(prom),
                     "--metrics-csv", str(series),
                     "--metrics-json", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "metric samples" in out

        from repro.telemetry import (
            read_series,
            series_values,
            validate_prometheus_file,
        )
        assert validate_prometheus_file(prom) > 0
        rows = read_series(series)
        assert series_values(rows, "repro_epochs_total")
        assert snapshot.exists()

    def test_csv_series_matches_open_system_result(self, tmp_path, capsys):
        """Acceptance check: the sampled CSV's final queueing-delay and
        admission figures equal the returned OpenSystemResult's."""
        from repro.exec import resolve_policy
        from repro.telemetry import (
            CsvSampler,
            MetricsRegistry,
            read_series,
            series_values,
        )
        from repro.workloads import poisson_arrivals

        # Arrivals stop at 8M but the run continues to 25M, so every
        # admitted job executes: result.runs covers all admissions and
        # the CSV totals must agree exactly.
        schedule = poisson_arrivals(mean_interarrival_cycles=2_000_000,
                                    horizon_cycles=8_000_000, seed=0)
        registry = MetricsRegistry()
        sampler = CsvSampler(tmp_path / "series.csv").attach(registry)
        system = resolve_policy("ugpu")([], arrivals=schedule,
                                        metrics=registry)
        result = system.run(25_000_000)
        sampler.close()

        rows = read_series(tmp_path / "series.csv")
        admitted = series_values(rows, "repro_open_admissions_total")
        assert admitted[-1][1] == result.admissions
        delay_sum = series_values(
            rows, "repro_open_queueing_delay_cycles_sum")
        delay_count = series_values(
            rows, "repro_open_queueing_delay_cycles_count")
        assert delay_count[-1][1] == result.admissions
        expected = result.mean_queueing_delay * result.admissions
        assert delay_sum[-1][1] == pytest.approx(expected)

    def test_metrics_subcommand_bridges_a_trace(self, tmp_path, capsys):
        prefix = tmp_path / "tl"
        assert main(["trace", "--mix", "PVC,DXTC", "--cycles", "6000000",
                     "--output", str(prefix), "--format", "jsonl"]) == 0
        capsys.readouterr()
        prom = tmp_path / "bridge.prom"
        assert main(["metrics", str(prefix) + ".jsonl",
                     "--out", str(prom), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "exposition format OK" in out

        from repro.telemetry import parse_prometheus
        samples = parse_prometheus(prom.read_text())["samples"]
        assert samples[("repro_epochs_total", ())] > 0

    def test_metrics_subcommand_to_stdout(self, tmp_path, capsys):
        prefix = tmp_path / "tl"
        assert main(["trace", "--mix", "PVC,DXTC", "--cycles", "6000000",
                     "--output", str(prefix), "--format", "jsonl"]) == 0
        capsys.readouterr()
        assert main(["metrics", str(prefix) + ".jsonl"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_epochs_total counter" in out
