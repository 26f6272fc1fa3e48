import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qftcalc
from qftcalc import checks, cli, experiments, spectral
from qftcalc.experiments import (
    ConfigError,
    DataError,
    ExperimentConfig,
    RUN_PRESETS,
    SWEEP_PRESETS,
    ingest_samples,
    metrics_path_for,
    run_experiment,
)
from qftcalc.oracles import sample_catalog
from qftcalc.pipelines import qftd_run
from qftcalc.plots import emit_plot


def write_csv(path, xs, fs, header=True):
    lines = ["x,f"] if header else []
    lines += [f"{x:.17g},{f:.17g}" for x, f in zip(xs, fs)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_four_row_uniform(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_csv(path, [0.0, 0.5, 1.0, 1.5], [1.0, 2.0, 3.0, 4.0])
        f = ingest_samples(path)
        assert f.dx == 0.5
        assert f.x0 == 0.0
        assert_allclose(f.l2_norm, math.sqrt(30.0))

    def test_headerless_accepted(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_csv(path, [0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 0.0], header=False)
        assert ingest_samples(path).n_points == 4

    def test_non_uniform_names_offending_row(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_csv(path, [0.0, 0.5, 1.1, 1.5], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match=r"grid.csv:4"):
            ingest_samples(path)

    def test_non_power_of_two_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_csv(path, [0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="power of two"):
            ingest_samples(path)

    def test_decreasing_grid_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_csv(path, [0.0, 0.5, 0.25, 1.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match="increasing"):
            ingest_samples(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest_samples(tmp_path / "nope.csv")

    def test_csv_matches_catalog_run(self, tmp_path):
        f = sample_catalog("cos2pix", 6)
        path = tmp_path / "cos.csv"
        write_csv(path, f.x, f.samples)
        from_csv = run_experiment(
            ExperimentConfig("qftd", str(path), shots=None)
        )[0]
        from_catalog = run_experiment(
            ExperimentConfig("qftd", "cos2pix", 6, shots=None)
        )[0]
        assert_allclose(from_csv.value_sq, from_catalog.value_sq, rtol=1e-12, atol=1e-18)


class TestConfigValidation:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig("qft", "cos2pix", 4).validated()

    def test_nonexistent_function_surfaces_as_io_error(self, tmp_path):
        config = ExperimentConfig("qftd", str(tmp_path / "ghost.csv"), shots=None)
        with pytest.raises(DataError, match="catalog id"):
            run_experiment(config)

    def test_qubit_budgets(self):
        with pytest.raises(ConfigError, match="qubits"):
            ExperimentConfig("qfti", "cos2pix", 9).validated()
        with pytest.raises(ConfigError, match="qubits"):
            ExperimentConfig("qftd", "cos2pix", 13).validated()
        ExperimentConfig("qftd", "cos2pix", 12).validated()

    def test_domain_order(self):
        with pytest.raises(ConfigError, match="domain"):
            ExperimentConfig("qftd", "cos2pix", 4, domain=(1.0, -1.0)).validated()

    def test_unknown_function_treated_as_path(self):
        with pytest.raises(DataError, match="catalog id"):
            run_experiment(ExperimentConfig("qftd", "sinhx", shots=None))

    def test_catalog_requires_qubits(self):
        with pytest.raises(ConfigError, match="qubits"):
            ExperimentConfig("qftd", "cos2pix").validated()


class TestRunExperiment:
    def test_writes_csv_and_metrics(self, tmp_path):
        out = tmp_path / "run.csv"
        config = ExperimentConfig(
            "qftd", "cos2pix", 5, shots=None, output=str(out), plot=str(tmp_path / "run.svg")
        )
        series, metrics = run_experiment(config)
        text = out.read_text().splitlines()
        assert text[0] == "x,quantum_sq,analytical_sq,retained"
        assert len(text) == 1 + series.n_points
        payload = json.loads(metrics_path_for(out).read_text())
        assert sorted(payload) == [
            "coverage_expected",
            "coverage_observed",
            "epsilon",
            "mae",
            "r_squared",
            "success_probability",
        ]
        assert payload["r_squared"] == metrics["r_squared"]
        ET.parse(tmp_path / "run.svg")

    def test_constant_csv_gives_nulls(self, tmp_path):
        path = tmp_path / "const.csv"
        write_csv(path, np.arange(8) * 0.25, np.full(8, 3.0))
        out = tmp_path / "const_out.csv"
        config = ExperimentConfig("qftd", str(path), shots=None, output=str(out))
        series, metrics = run_experiment(config)
        assert not series.retained.any()
        assert metrics["r_squared"] is None
        assert metrics["mae"] is None
        payload = json.loads(metrics_path_for(out).read_text())
        assert payload["r_squared"] is None
        rows = out.read_text().splitlines()[1:]
        assert all(row.endswith(",0") for row in rows)

    def test_reproducible_outputs_byte_identical(self, tmp_path):
        config = ExperimentConfig(
            "qftd", "cos2pix", 5, shots=10**4, seed=5, output=str(tmp_path / "a.csv")
        )
        run_experiment(config)
        first_csv = (tmp_path / "a.csv").read_bytes()
        first_json = metrics_path_for(tmp_path / "a.csv").read_bytes()
        run_experiment(config)
        assert (tmp_path / "a.csv").read_bytes() == first_csv
        assert metrics_path_for(tmp_path / "a.csv").read_bytes() == first_json

    def test_qubits_mismatch_with_csv(self, tmp_path):
        path = tmp_path / "grid.csv"
        f = sample_catalog("poly", 4)
        write_csv(path, f.x, f.samples)
        with pytest.raises(ConfigError, match="qubits"):
            run_experiment(ExperimentConfig("qftd", str(path), n_qubits=5, shots=None))

    def test_domain_with_csv_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        f = sample_catalog("poly", 4)
        write_csv(path, f.x, f.samples)
        with pytest.raises(ConfigError, match="domain"):
            run_experiment(ExperimentConfig("qftd", str(path), domain=(0.0, 1.0), shots=None))


class TestPresets:
    def test_run_preset_parameters(self):
        fig4 = RUN_PRESETS["fig4"]
        assert (fig4.mode, fig4.function, fig4.n_qubits) == ("qftd", "cos2pix", 8)
        assert fig4.domain == (-2.0, 2.0) and fig4.shots == 10**7
        fig6 = RUN_PRESETS["fig6"]
        assert (fig6.function, fig6.domain, fig6.shots) == ("invx", (0.2, 1.0), 10**8)
        fig12a = RUN_PRESETS["fig12a"]
        assert (fig12a.mode, fig12a.function, fig12a.n_qubits) == ("qfti", "poly", 6)
        assert {*RUN_PRESETS} == {"fig4", "fig5", "fig6", "fig7a", "fig7b", "fig10", "fig11", "fig12a", "fig12b"}
        assert {*SWEEP_PRESETS} == {"fig9a", "fig9b"}
        for preset in RUN_PRESETS.values():
            preset.validated()

    def test_presets_listing_command(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in list(RUN_PRESETS) + list(SWEEP_PRESETS):
            assert name in out


class TestCliExitCodes:
    def test_config_error_is_one(self, capsys):
        assert cli.main(["run", "--mode", "qftd", "--function", "cos2pix", "--qubits", "44"]) == 1
        assert "qubits" in capsys.readouterr().err

    def test_usage_error_is_one(self, capsys):
        assert cli.main(["run", "--mode", "qftx"]) == 1

    def test_missing_csv_is_two(self, capsys, tmp_path):
        code = cli.main(
            ["run", "--mode", "qftd", "--function", str(tmp_path / "ghost.csv"),
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 2
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n0,1\n0,2\n1,3\n2,4\n")
        code = cli.main(
            ["run", "--mode", "qftd", "--function", str(path), "--output", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert "bad.csv" in capsys.readouterr().err

    def test_successful_run_is_zero(self, tmp_path, capsys):
        code = cli.main(
            ["run", "--mode", "qftd", "--function", "cos2pix", "--qubits", "4",
             "--shots", "exact", "--output", str(tmp_path / "ok.csv")]
        )
        assert code == 0
        assert (tmp_path / "ok.csv").exists()
        assert metrics_path_for(tmp_path / "ok.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "mode": "qftd", "function": "cos2pix", "qubits": 4,
            "shots": "exact", "output": str(tmp_path / "from_file.csv"),
        }))
        code = cli.main(["run", "--config", str(config_path), "--output", str(tmp_path / "override.csv")])
        assert code == 0
        assert (tmp_path / "override.csv").exists()
        assert not (tmp_path / "from_file.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"mode": "qftd", "function": "cos2pix", "qubitz": 4}))
        assert cli.main(["run", "--config", str(config_path)]) == 1

    def test_cache_dir_not_accepted(self, tmp_path):
        valid = {"mode": "qftd", "function": "cos2pix", "qubits": 4, "output": str(tmp_path / "o.csv")}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(valid, cache_dir=str(tmp_path))))
        assert cli.main(["run", "--config", str(config_path)]) == 1
        config_path.write_text(json.dumps(valid))
        assert cli.main(["run", "--config", str(config_path), "--cache-dir", str(tmp_path)]) == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--domain", "0", "inf"],
            ["--shots", "1e30"],
            ["--shots", str(2**63)],
            ["--shots", "inf"],
            ["--shots", "nan"],
            ["--seed", "-1"],
            ["--function", "invx", "--qubits", "2", "--domain", "-1", "7"],  # x = 0 on the grid
        ],
        ids=["domain-inf", "shots-1e30", "shots-2^63", "shots-inf", "shots-nan", "seed-negative", "singular-grid"],
    )
    def test_bad_run_value_is_one(self, extra, tmp_path, capsys):
        out = tmp_path / "o.csv"
        argv = ["run", "--mode", "qftd", "--function", "cos2pix", "--qubits", "4",
                "--output", str(out)] + extra
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_shot_bound_is_exact(self):
        assert cli._parse_shots(str(2**63 - 1)) == cli._parse_shots(2**63 - 1) == 2**63 - 1
        assert cli._parse_shots("1e6") == cli._parse_shots(1e6) == 10**6

    @pytest.mark.parametrize(
        "field",
        [{"qubits": "6"}, {"qubits": True}, {"seed": "1"}, {"domain": ["a", 1]},
         {"domain": [0, float("inf")]}, {"shots": [10]}, {"output": None}],
        ids=["qubits-str", "qubits-bool", "seed-str", "domain-str", "domain-inf", "shots-list", "output-null"],
    )
    def test_config_file_bad_value_is_one(self, field, tmp_path, capsys):
        out = tmp_path / "o.csv"
        valid = {"mode": "qftd", "function": "cos2pix", "qubits": 4, "output": str(out)}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(valid, **field)))
        assert cli.main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_is_two(self, cell, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        path.write_text(f"x,f\n0,1\n0.25,{cell}\n0.5,2\n0.75,3\n")
        out = tmp_path / "o.csv"
        assert cli.main(["run", "--mode", "qftd", "--function", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "finite" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_nan_grid_point_is_two(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("x,f\n0,1\n0.25,2\nnan,2\n0.75,3\n")
        out = tmp_path / "o.csv"
        assert cli.main(["run", "--mode", "qftd", "--function", str(path), "--output", str(out)]) == 2
        assert not out.exists()

    def test_metrics_json_rejects_nan(self, tmp_path):
        path = tmp_path / "m.json"
        with pytest.raises(DataError, match="cannot write"):
            experiments._write_json({"r_squared": float("nan")}, path)
        assert not path.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one_is_one(self, jobs, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--mode", "qftd", "--function", "poly", "--qubits", "3",
                "--shots", "exact", "--output-dir", str(out_dir), "--jobs", jobs]
        assert cli.main(argv) == 1
        assert "jobs" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "extra", [["--seed", "-1", "--shots", "100"], ["--domain", "0", "inf"]], ids=["seed-negative", "domain-inf"]
    )
    def test_bad_sweep_value_is_one(self, extra, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--mode", "qftd", "--function", "poly", "--qubits", "3", "4",
                "--output-dir", str(out_dir)] + extra
        assert cli.main(argv) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out_dir.exists()

    def test_sweep_pool_capped_by_configs_and_cpus(self, tmp_path, monkeypatch):
        # A stand-in pool records its size and runs serially; no process starts.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        argv = ["sweep", "--mode", "qftd", "--function", "poly", "--qubits", "3", "4",
                "--shots", "exact", "--output-dir", str(tmp_path / "s")]
        assert cli.main(argv + ["--jobs", "64"]) == 0
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli.main(argv + ["--jobs", "64"]) == 0
        assert sizes == [2]

    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(qftcalc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import sys, qftcalc.cli; print('scipy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestSweep:
    def test_explicit_sweep_writes_summary(self, tmp_path):
        out_dir = tmp_path / "sweep"
        code = cli.main(
            ["sweep", "--mode", "qftd", "--function", "cos2pix", "--qubits", "3", "4",
             "--domain", "-1", "1", "--shots", "exact", "--output-dir", str(out_dir)]
        )
        assert code == 0
        summary = (out_dir / "sweep_summary.csv").read_text().splitlines()
        assert summary[0].startswith("mode,function,n_qubits,shots,seed,gate_count")
        assert len(summary) == 3
        assert (out_dir / "qftd_cos2pix_n3.csv").exists()
        assert (out_dir / "qftd_cos2pix_n4.csv").exists()

    def test_parallel_jobs(self, tmp_path):
        out_dir = tmp_path / "psweep"
        code = cli.main(
            ["sweep", "--mode", "qftd", "--function", "poly", "--qubits", "3", "4",
             "--shots", "exact", "--output-dir", str(out_dir), "--jobs", "2"]
        )
        assert code == 0
        assert (out_dir / "sweep_summary.csv").exists()

    def test_sweep_preset(self, tmp_path):
        out_dir = tmp_path / "trend"
        code = cli.main(
            ["sweep", "--preset", "fig9b", "--qubits", "3", "4", "--shots", "exact",
             "--output-dir", str(out_dir)]
        )
        assert code == 0
        rows = (out_dir / "sweep_summary.csv").read_text().splitlines()
        assert len(rows) == 3


class TestValidateWiring:
    def test_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setattr(checks, "fast_suite", lambda: [checks.CheckResult("stub", False, "boom")])
        assert cli.main(["validate", "fast"]) == 3
        monkeypatch.setattr(checks, "fast_suite", lambda: [checks.CheckResult("stub", True, "fine")])
        assert cli.main(["validate", "fast"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL] stub: boom" in out
        assert "[PASS] stub: fine" in out

    def test_tampered_schedule_fails_invariant(self):
        schedule = spectral.angle_schedule(3, "derivative")
        tampered = spectral.WavenumberSchedule(
            n=schedule.n,
            mode=schedule.mode,
            angles=(schedule.angles[0] * 2,) + schedule.angles[1:],
            ancilla_init=schedule.ancilla_init,
            success_bit=schedule.success_bit,
        )
        assert checks.check_wavenumber_schedule(schedule).passed
        assert not checks.check_wavenumber_schedule(tampered).passed

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            checks.run_suite("leisurely")


class TestEmitPlot:
    def make_series(self, epsilon=0.0, retained_all=True):
        f = sample_catalog("invx", 5, (-1.0, 1.0))
        series = qftd_run(f, shots=None)
        if not retained_all:
            series.retained[:] = False
            series.value_sq[:] = 0.0
        series.resolution_epsilon = epsilon
        return series

    def test_well_formed_and_has_curve_and_points(self, tmp_path):
        series = self.make_series()
        reference = (1.0 / series.x**2) ** 2
        path = tmp_path / "plot.svg"
        emit_plot(series, reference, path, scale="linear")
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert root.findall(".//svg:circle", ns)
        assert root.findall(".//svg:path[@id='analytical-curve']", ns)

    def test_semilog_resolution_rule_position(self, tmp_path):
        series = self.make_series(epsilon=260.0)
        reference = (1.0 / series.x**2) ** 2
        path = tmp_path / "plot.svg"
        emit_plot(series, reference, path, scale="semilog")
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        (rule,) = root.findall(".//svg:line[@id='resolution-rule']", ns)
        assert float(rule.get("data-value")) == pytest.approx(260.0)
        assert math.log10(float(rule.get("data-value"))) == pytest.approx(2.41, abs=0.01)
        # The rule's pixel position must agree with the declared log-axis range.
        y_lo, y_hi = float(root.get("data-ymin")), float(root.get("data-ymax"))
        top, bottom = 30.0, 540.0 - 54.0
        expected = top + (y_hi - math.log10(260.0)) / (y_hi - y_lo) * (bottom - top)
        assert float(rule.get("y1")) == pytest.approx(expected, abs=0.01)

    def test_no_rule_in_linear_or_exact_mode(self, tmp_path):
        series = self.make_series(epsilon=0.0)
        reference = np.ones(series.n_points)
        emit_plot(series, reference, tmp_path / "lin.svg", scale="semilog")
        root = ET.parse(tmp_path / "lin.svg").getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert not root.findall(".//svg:line[@id='resolution-rule']", ns)

    def test_empty_retained_set_draws_curve_only(self, tmp_path):
        series = self.make_series(retained_all=False)
        reference = (1.0 / series.x**2) ** 2
        path = tmp_path / "empty.svg"
        emit_plot(series, reference, path, scale="linear")
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        circles = root.findall(".//svg:circle", ns)
        assert len(circles) == 1  # legend marker only
        assert root.findall(".//svg:path[@id='analytical-curve']", ns)

    def test_rejects_unknown_scale(self, tmp_path):
        series = self.make_series()
        with pytest.raises(ValueError):
            emit_plot(series, np.ones(series.n_points), tmp_path / "x.svg", scale="loglog")
