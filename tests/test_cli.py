import csv
import io
import json
import logging
import math

import numpy as np
import pytest

from uavqkd import cli, config, output
from uavqkd.beam import capture_exact


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text("theta_fov = 100 urad\nn_slots = 65536\nseed = 42\n")
    return str(path)


class TestEval:
    def test_table_output(self, capsys, cfg_file):
        code, out = run_cli(capsys, "--config", cfg_file, "--quiet", "eval")
        assert code == cli.EXIT_OK
        assert "key_rate_bps" in out
        assert len(out.strip().splitlines()) == 2

    def test_json_output(self, capsys, cfg_file):
        code, out = run_cli(capsys, "--config", cfg_file, "--quiet", "--format", "json", "eval")
        assert code == cli.EXIT_OK
        row = json.loads(out)[0]
        assert row["method"] == "analytic"
        assert 0.0 <= row["qber"] <= 0.5

    def test_defaults_without_config(self, capsys):
        code, out = run_cli(capsys, "--quiet", "eval")
        assert code == cli.EXIT_OK

    def test_env_var_config(self, capsys, cfg_file, monkeypatch):
        monkeypatch.setenv("UAVQKD_CONFIG", cfg_file)
        code, out = run_cli(capsys, "--quiet", "--format", "json", "eval")
        assert code == cli.EXIT_OK

    def test_out_file(self, capsys, cfg_file, tmp_path):
        dest = tmp_path / "result.csv"
        code, out = run_cli(
            capsys, "--config", cfg_file, "--quiet", "--format", "csv",
            "--out", str(dest), "eval",
        )
        assert code == cli.EXIT_OK
        assert out == ""
        assert dest.read_text().startswith("axis,")


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert cli.main(["--no-such-flag", "eval"]) == cli.EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["fly"]) == cli.EXIT_USAGE

    def test_validation_error_bad_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("waist = 10 cm\n")
        assert cli.main(["--config", str(bad), "--quiet", "eval"]) == cli.EXIT_VALIDATION

    def test_validation_error_bad_sweep_values(self, capsys):
        code = cli.main(["--quiet", "sweep", "--axis", "wz", "--values", "10cm,5cm"])
        assert code == cli.EXIT_VALIDATION


class TestMc:
    def test_determinism(self, capsys, cfg_file):
        argv = ["--config", cfg_file, "--quiet", "--format", "json", "mc"]
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        code2 = cli.main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == cli.EXIT_OK
        assert out1 == out2

    def test_flags_override_config(self, capsys, cfg_file):
        code, out = run_cli(
            capsys, "--config", cfg_file, "--quiet", "--format", "json",
            "mc", "--slots", "30000", "--seed", "7",
        )
        assert code == cli.EXIT_OK
        row = json.loads(out)[0]
        assert row["method"] == "monte_carlo"
        assert row["se_p_detect"] > 0

    def test_logs_run_diagnostics(self, caplog, capsys, cfg_file):
        with caplog.at_level(logging.INFO, logger="uavqkd"):
            code, out = run_cli(
                capsys, "--config", cfg_file, "--quiet", "--format", "json",
                "mc", "--slots", "70000", "--seed", "3",
            )
        assert code == cli.EXIT_OK
        assert set(json.loads(out)[0]) == set(output.PERF_COLUMNS)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("mc:")]
        assert len(lines) == 1
        fields = dict(kv.split("=") for kv in lines[0].split()[1:])
        assert set(fields) == {"slots", "batches", "clamp_rate", "slots_per_s"}
        assert int(fields["slots"]) == 70000 and int(fields["batches"]) == 2
        assert float(fields["clamp_rate"]) == 0.0  # the Poisson slot draw clamps nothing
        assert float(fields["slots_per_s"]) > 0


class TestSweep:
    def test_values_with_units(self, capsys, cfg_file):
        code, out = run_cli(
            capsys, "--config", cfg_file, "--quiet", "--format", "csv",
            "sweep", "--axis", "wz", "--values", "5cm,10cm,20cm",
        )
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert [float(r["axis_value"]) for r in rows] == [0.05, 0.10, 0.20]

    def test_range_and_overlay(self, capsys, cfg_file):
        code, out = run_cli(
            capsys, "--config", cfg_file, "--quiet", "--format", "csv",
            "sweep", "--axis", "theta_fov", "--range", "10urad:200urad:5",
            "--overlay", "B_lambda=1e-6,1e-4",
        )
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        assert {r["overlay"] for r in rows} == {"B_lambda"}

    def test_plot_data_alias(self, capsys, cfg_file):
        code, out = run_cli(
            capsys, "--config", cfg_file, "--quiet", "--plot-data",
            "sweep", "--axis", "wz", "--values", "5cm,10cm",
        )
        assert code == cli.EXIT_OK
        assert out.startswith("axis,axis_value")


class TestOptimize:
    def test_reports_feasible_optimum(self, capsys, cfg_file):
        code, out = run_cli(
            capsys, "--config", cfg_file, "--quiet", "--format", "json",
            "optimize", "--var", "wz", "--qber-max", "1e-3", "--bounds", "5cm:1m",
        )
        assert code == cli.EXIT_OK
        row = json.loads(out)[0]
        assert row["axis"] == "wz"
        assert row["overlay"] == "feasible" and row["overlay_value"] == 1
        assert row["qber"] <= 1e-3 + 1e-12

    def test_fov_optimum_shrinks_with_radiance(self, capsys, tmp_path):
        values = {}
        for b in ("1e-6", "1e-4"):
            cfg = tmp_path / f"b{b}.cfg"
            cfg.write_text(f"B_lambda = {b} W/m2/sr/nm\n")
            code, out = run_cli(
                capsys, "--config", str(cfg), "--quiet", "--format", "json",
                "optimize", "--var", "theta_fov", "--qber-max", "1e-3",
                "--bounds", "5urad:200urad",
            )
            assert code == cli.EXIT_OK
            values[b] = json.loads(out)[0]["axis_value"]
        assert values["1e-4"] < values["1e-6"]


class TestValidate:
    def test_capture_comparison_table(self, capsys):
        code, out = run_cli(
            capsys, "--quiet", "--format", "csv",
            "validate", "--wz", "5cm,10cm", "--rd-max", "0.2", "--points", "10",
        )
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 20
        assert set(rows[0]) == {
            "wz", "rd", "mu_p_exact", "mu_p_grid", "mu_p_classical", "classical_valid",
        }
        first = rows[0]
        assert float(first["wz"]) == pytest.approx(0.05) and float(first["rd"]) == 0.0
        assert float(first["mu_p_classical"]) == pytest.approx(18.0)
        assert first["classical_valid"] == "False"
        assert abs(float(first["mu_p_exact"]) - float(first["mu_p_grid"])) < 0.01

    def test_columns_are_the_shared_evaluators(self, capsys):
        code, out = run_cli(
            capsys, "--quiet", "--format", "json",
            "validate", "--wz", "2cm,5cm,10cm", "--rd-max", "0.3", "--points", "25", "--ng", "10",
        )
        assert code == cli.EXIT_OK
        rows = json.loads(out)
        assert len(rows) == 75
        ra = config.LinkConfig().ra
        for row in rows:
            wz, rd = row["wz"], row["rd"]
            # the grid model as its docstring states it, summed here
            dx = 2.0 * ra / 10
            xs = -ra + dx * (np.arange(10) + 0.5)
            cs = [2.0 * dx / (math.sqrt(2.0 * math.pi) * wz) * math.erf(math.sqrt(2.0) / wz * math.sqrt(ra * ra - x * x)) for x in xs]
            grid = sum(c * math.exp(-2.0 * (x - rd) ** 2 / wz**2) for x, c in zip(xs, cs))
            assert row["mu_p_grid"] == pytest.approx(grid, abs=1e-15)
            assert row["mu_p_exact"] == pytest.approx(capture_exact(rd, wz, ra), abs=1e-15)
