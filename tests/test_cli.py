import csv
import hashlib
import io
import json
import logging
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import uavqkd
from uavqkd import analytics, cli, config, montecarlo, output
from uavqkd.beam import build_grid, capture_exact
from uavqkd.errors import LinearizationWarning
from uavqkd.sweep import optimize


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

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["sweep", "--axis", "wz", "--values", "5cm,abc"], "--values"),
            (["sweep", "--axis", "wz", "--range", "5cm:10cm"], "--range"),
            (["sweep", "--axis", "wz", "--range", "5cm:10cm:x"], "--range"),
            (["sweep", "--axis", "wz", "--range", "10cm:5cm:4"], "--range"),
            (["sweep", "--axis", "wz", "--range", "5cm:10cm:1"], "--range"),
            (["--out", "{missing}/out.csv", "eval"], "--out"),
            (["sweep", "--axis", "wz", "--values", "5cm", "--overlay", "B_lambda"], "--overlay"),
            (["sweep", "--axis", "wz", "--values", "5cm", "--overlay", "nope=1"], "--overlay"),
            (["optimize", "--var", "wz", "--qber-max", "1e-3", "--bounds", "5cm"], "--bounds"),
            (["optimize", "--var", "wz", "--qber-max", "1e-3", "--bounds", "5cm:abc"], "--bounds"),
            (["mc", "--slots", "0"], "--slots: n_slots: value 0 outside allowed range [1, 1000000000]"),
            (["mc", "--seed", "-1"], "--seed: seed: value -1"),
        ],
    )
    def test_bad_flag_value_names_its_flag(self, capsys, tmp_path, argv, flag):
        code = cli.main(["--quiet", *(a.format(missing=tmp_path / "missing") for a in argv)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err.startswith(f"validation error: {flag}")


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
        assert set(fields) == {"slots", "batches", "capture_share", "slots_per_s", *montecarlo.OUTCOMES}
        assert int(fields["slots"]) == 70000 and int(fields["batches"]) == 2
        rep = montecarlo.run(config.build_context(config.load_config(cfg_file)), 70000, 3)
        assert 0 < rep.capture_evals < 70000
        assert float(fields["capture_share"]) == pytest.approx(rep.capture_evals / 70000, rel=1e-5)
        assert [int(fields[name]) for name in montecarlo.OUTCOMES] == list(rep.outcomes)
        assert sum(rep.outcomes) == 70000
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

    @pytest.mark.parametrize(
        "flag,value",
        [("--wz", "nan"), ("--wz", "inf"), ("--rd-max", "nan"), ("--rd-max", "inf"), ("--ng", "0"), ("--points", "0")],
    )
    def test_bad_flag_is_a_validation_error(self, capsys, flag, value):
        code = cli.main(["--quiet", "validate", flag, value])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.out == ""
        assert flag in captured.err


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_env_config_read_at_call_time(self, capsys, cfg_file, monkeypatch):
        monkeypatch.delenv("UAVQKD_CONFIG", raising=False)
        code, default = run_cli(capsys, "--quiet", "--format", "json", "eval")
        assert code == cli.EXIT_OK
        # set after the parser exists: the next call must still honour it
        monkeypatch.setenv("UAVQKD_CONFIG", cfg_file)
        code, from_env = run_cli(capsys, "--quiet", "--format", "json", "eval")
        assert code == cli.EXIT_OK
        code, explicit = run_cli(capsys, "--quiet", "--format", "json", "--config", cfg_file, "eval")
        assert from_env == explicit != default
        monkeypatch.delenv("UAVQKD_CONFIG")
        assert run_cli(capsys, "--quiet", "--format", "json", "eval")[1] == default

    def test_flags_do_not_leak_into_the_next_call(self, capsys, caplog, cfg_file):
        sweep = ["sweep", "--axis", "wz", "--values", "5cm,10cm"]
        code, out = run_cli(capsys, "--config", cfg_file, "--quiet", "--plot-data", *sweep)
        assert code == cli.EXIT_OK and out.startswith("axis,axis_value")
        code, out = run_cli(capsys, "--config", cfg_file, "--quiet", "--format", "json", *sweep)
        assert code == cli.EXIT_OK and json.loads(out)[0]["axis"] == "wz"
        with caplog.at_level(logging.INFO, logger="uavqkd"):
            code, out = run_cli(capsys, "--config", cfg_file, *sweep)
        assert code == cli.EXIT_OK
        assert out.split()[:2] == ["axis", "axis_value"]  # the table format
        assert any(r.getMessage().startswith("resolved parameters") for r in caplog.records)


def logged_parameters(caplog) -> str:
    """The body of the one "resolved parameters" log record."""
    text = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("resolved parameters:"))
    return text.partition("\n")[2]


# config text -> each derived value the log states (None: checked against the context only),
# and the log's comment lines
DERIVED_CASES = [
    # theta_fov and mu_b unset
    ("w0 = 1 cm\nalpha_a = 0.5 1/km\n",
     {"eta_atm": math.exp(-0.5), "wz": 5.034124985543331e-2, "theta_fov": math.atan(5e-6 / 0.15), "mu_b": None},
     []),
    # a radiometric mu_b past mu_b's range [0, 100], which no config gives: a comment line
    ("B_lambda = 1e-3 W/m2/sr/nm\ntheta_fov = 2 mrad\nra = 1.5 m\ndelta_lambda = 10 nm\nT_qs = 100 ns\n"
     "wavelength = 15.5 um\n",
     {"mu_b": 6931018.784552786},
     ["# mu_b = 6931018.784552786  # derived"]),
]


class TestResolvedLog:
    def test_states_each_derived_value(self, caplog, capsys, tmp_path):
        path = tmp_path / "derived.cfg"
        for text, expected, comments in DERIVED_CASES:
            path.write_text(text)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="uavqkd"):
                assert cli.main(["--config", str(path), "eval"]) == cli.EXIT_OK
            body = logged_parameters(caplog)
            derived = {}
            for line in body.splitlines():
                if line.endswith("  # derived"):
                    name, _, value = line.removesuffix("  # derived").removeprefix("# ").partition(" = ")
                    derived[name] = float(value.split()[0])
            assert list(derived) == list(expected)
            for name, want in expected.items():
                assert want is None or derived[name] == pytest.approx(want, rel=1e-15)
            assert [line for line in body.splitlines() if line.startswith("#")] == comments
            ctx = config.build_context(config.load_config(str(path)))
            assert derived["mu_b"] == ctx.mu_b
            # the log is a config file that gives the run's context
            logged = config.build_context(config.loads(body))
            assert [getattr(logged, name) for name in derived] == [getattr(ctx, name) for name in derived]

    @pytest.mark.parametrize(
        "argv,lines",
        [
            (["mc", "--slots", "20000", "--seed", "3"], ["n_slots = 20000", "seed = 3"]),
            (["validate", "--ng", "12"], ["Ng = 12"]),
        ],
    )
    def test_states_the_flag_values(self, caplog, capsys, argv, lines):
        with caplog.at_level(logging.INFO, logger="uavqkd"):
            assert cli.main(argv) == cli.EXIT_OK
        logged = logged_parameters(caplog).splitlines()
        assert [line for line in logged if line in lines] == lines

    def test_builds_no_capture_grid(self, caplog, capsys):
        # the log derives its values without the config's grid (wz = 10 cm,
        # N_g = 100,000), so validate builds only the grid of its --wz
        build_grid.cache_clear()
        with caplog.at_level(logging.INFO, logger="uavqkd"):
            assert cli.main(["validate", "--ng", "100000", "--wz", "5cm", "--points", "5"]) == cli.EXIT_OK
        assert "Ng = 100000" in logged_parameters(caplog).splitlines()
        assert build_grid.cache_info().currsize == 1


def run_python(*argv, cwd=None):
    """``python argv`` in a fresh process that imports this package, with
    default warning filters and no config file: (exit code, stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", "UAVQKD_CONFIG")}
    env["PYTHONPATH"] = str(Path(uavqkd.__file__).parents[1])
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_process(*argv):
    """``python -m uavqkd.cli argv`` in a fresh process: (exit code, stdout, stderr)."""
    return run_python("-m", "uavqkd.cli", *argv)


class TestWarningsLogged:
    # the default config has c_pt * mu_p(0) = 0.119, so eval raises a LinearizationWarning

    def test_quiet_leaves_stderr_empty(self):
        code, out, err = run_process("--quiet", "eval")
        assert code == cli.EXIT_OK and "key_rate_bps" in out
        assert err == ""

    def test_warning_logged_once_in_log_format(self):
        code, out, err = run_process("eval")
        assert code == cli.EXIT_OK and "key_rate_bps" in out
        hits = [line for line in err.splitlines() if "LinearizationWarning" in line]
        assert len(hits) == 1
        assert hits[0].startswith("WARNING ")
        assert err.startswith("INFO resolved parameters:")

    def test_warning_is_one_plain_line(self):
        code, out, err = run_process("eval")
        assert code == cli.EXIT_OK
        line = "WARNING LinearizationWarning: c_pt * mu_p(0) = 0.119 > 0.1 at 1 of 1 points: "
        assert err.count(line) == 1
        # no path into the package, and no source line after the warning
        assert ".py:" not in err
        assert err.splitlines()[-1].startswith(line)

    def test_caller_hook_keeps_the_warnings(self, capsys):
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, category, *_: seen.append(category)
            assert cli.main(["--quiet", "eval"]) == cli.EXIT_OK
        assert seen == [LinearizationWarning]
        assert capsys.readouterr().err == ""

    def test_repeated_warning_logged_once_with_its_count(self, caplog, monkeypatch):
        # every one of optimize's 8 array passes crosses c_pt * mu_p(0) > 0.1:
        # the coarse pass of 64 points, then 7 passes of 8 points that raise
        # the same message
        monkeypatch.delenv("UAVQKD_CONFIG", raising=False)
        with caplog.at_level(logging.WARNING, logger="uavqkd"), warnings.catch_warnings():
            warnings.resetwarnings()  # no filter of the test run's own
            argv = ["optimize", "--var", "theta_fov", "--qber-max", "1e-3", "--bounds", "5urad:200urad"]
            assert cli.main(argv) == cli.EXIT_OK
        logged = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(logged) == 2
        assert logged[0].startswith("LinearizationWarning: c_pt * mu_p(0) = 0.119 > 0.1 at 64 of 64 points: ")
        assert not logged[0].endswith("times)")
        assert logged[1].startswith("LinearizationWarning: c_pt * mu_p(0) = 0.119 > 0.1 at 8 of 8 points: ")
        assert logged[1].endswith(" (raised 7 times)")

    def test_optimize_logs_at_most_two_warnings_per_pass(self, monkeypatch):
        # at most one CaptureOverflowWarning and one LinearizationWarning per
        # array pass, however many of its points cross a limit
        passes = []
        evaluate = analytics.evaluate
        monkeypatch.setattr(analytics, "evaluate", lambda ctx: passes.append(ctx) or evaluate(ctx))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            optimize(config.LinkConfig(), "wz", 1e-3, (0.05, 1.0))
        code, out, err = run_process("optimize", "--var", "wz", "--qber-max", "1e-3", "--bounds", "5cm:1m")
        assert code == cli.EXIT_OK and "key_rate_bps" in out
        logged = [line for line in err.splitlines() if line.startswith("WARNING ")]
        assert 0 < len(logged) <= 2 * len(passes)


def readme_quick_start() -> list[list[str]]:
    """The commands of the ``sh`` block under README's "Quick start (CLI)"
    heading, each as its arguments after ``uavqkd``, up to any ``>``
    redirect."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (CLI)\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "uavqkd", line
            redirect = [i for i, w in enumerate(words) if w.startswith(">")]
            commands.append(words[1 : redirect[0] if redirect else None])
    return commands


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # each README command through cli.main, in an empty directory that it
    # must leave empty: the redirects are dropped and stdout is captured
    (tmp_path / "cfg").mkdir()
    path = tmp_path / "cfg" / "link.cfg"
    path.write_text("n_slots = 2000\n")
    monkeypatch.setenv("UAVQKD_CONFIG", str(path))
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    commands = readme_quick_start()
    assert commands
    for argv in commands:
        code, out = run_cli(capsys, *argv)
        assert code == cli.EXIT_OK and out, argv
    assert not any((tmp_path / "run").iterdir())


def readme_library_blocks() -> list[str]:
    """The ``python`` blocks under README's "Library use" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    return [block.split("```", 1)[0] for block in section.split("```python\n")[1:]]


def test_readme_library_examples_run(tmp_path):
    # each block in a fresh process, in an empty directory that it must leave empty
    blocks = readme_library_blocks()
    assert blocks
    for block in blocks:
        code, out, err = run_python("-c", block, cwd=tmp_path)
        assert code == 0 and out, f"{block}\n{err}"
    assert not any(tmp_path.iterdir())


class TestGoldenOutput:
    """The stdout bytes of every subcommand in every format, pinned by one
    sha256: a change of representation between ``evaluate`` and ``render``
    must leave the CLI's output byte-identical. The digest was taken with
    numpy 2.4 on x86-64; where another numpy or libm moves a last digit,
    take it again from an unchanged tree before comparing a change."""

    CONFIG = "theta_fov = 100 urad\nn_slots = 3000\nseed = 11\n"
    BRIGHT = "B_lambda = 1e-4 W/m2/sr/nm\n"  # theta_fov derived, high radiance
    CALLS = [
        ("link", ["eval"]),
        ("link", ["mc", "--slots", "2500", "--seed", "5"]),
        ("link", ["sweep", "--axis", "theta_fov", "--values", "50urad,100urad,150urad",
                  "--overlay", "B_lambda=1e-6,1e-4"]),
        ("link", ["sweep", "--axis", "wz", "--range", "5cm:30cm:3", "--overlay", "sigma_aoa=30urad,80urad",
                  "--engine", "both"]),
        ("link", ["sweep", "--axis", "sigma_theta_e", "--values", "20urad,100urad", "--engine", "monte_carlo"]),
        ("link", ["optimize", "--var", "wz", "--qber-max", "1e-3", "--bounds", "5cm:1m"]),
        ("bright", ["optimize", "--var", "theta_fov", "--qber-max", "1e-9", "--bounds", "5urad:200urad"]),
        ("link", ["validate", "--wz", "5cm,10cm", "--rd-max", "0.2", "--points", "4"]),
    ]
    SHA256 = "fe6f71909c12ef33f25a48adffe5133ca3d9e0706f586115742e12b85377bc8b"

    def test_stdout_bytes_pinned(self, capsys, tmp_path):
        paths = {"link": tmp_path / "link.cfg", "bright": tmp_path / "bright.cfg"}
        paths["link"].write_text(self.CONFIG)
        paths["bright"].write_text(self.BRIGHT)
        digest = hashlib.sha256()
        for name, argv in self.CALLS:
            for fmt in ("csv", "json", "table"):
                code, out = run_cli(capsys, "--config", str(paths[name]), "--quiet", "--format", fmt, *argv)
                assert code == cli.EXIT_OK, (argv, fmt)
                digest.update(f"{fmt} {' '.join(argv)}\n".encode() + out.encode())
        assert digest.hexdigest() == self.SHA256
