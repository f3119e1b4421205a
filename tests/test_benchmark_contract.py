"""The names ``bench/`` reads from the package must keep resolving.

``bench/run.py`` wraps the functions listed here to trace them and
``bench/workloads.py`` calls them; a name pruned from the package breaks
the benchmark at run time, so its removal has to fail here first.
"""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import uavqkd
import uavqkd.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

# module -> attribute paths read by bench/ (run.py trace_targets, workloads.py, self-check)
BENCH_NAMES = {
    "uavqkd": ["LinkConfig", "NumericError"],
    "uavqkd.config": ["loads", "load_config", "build_context"],
    "uavqkd.beam": [
        "build_grid", "build_grid.cache_info", "build_grid.cache_clear",
        "capture_grid", "capture_exact", "capture_exact_many", "capture_classical",
    ],
    "uavqkd.channel": ["gg_sample"],
    "uavqkd.analytics": ["detect_prob", "evaluate", "AnalyticContext"],
    "uavqkd.montecarlo": ["run", "BATCH_SIZE", "McReport.clamp_rate"],
    "uavqkd.sweep": ["sweep", "optimize"],
    "uavqkd.output": ["emit", "render"],
    "uavqkd.cli": ["main"],
    "uavqkd.errors": ["LinearizationWarning", "CaptureOverflowWarning"],
}


def test_names_read_by_the_benchmark_resolve():
    for module, paths in BENCH_NAMES.items():
        mod = importlib.import_module(module)
        for path in paths:
            obj = mod
            for part in path.split("."):
                assert hasattr(obj, part), f"{module}.{path}"
                obj = getattr(obj, part)
    from uavqkd import analytics, montecarlo

    assert "mu_p_mode" in {f.name for f in dataclasses.fields(analytics.AnalyticContext)}
    assert "turbulence" in inspect.signature(analytics.detect_prob).parameters
    assert "workers" in inspect.signature(montecarlo.run).parameters
    # bench/run.py's import-time split reads the scipy.integrate entry of `import uavqkd`
    src = str(Path(uavqkd.__file__).resolve().parents[1])
    code = "import sys, uavqkd; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"


def traced_steps(workload: str, steps: int, workdir):
    """Run the first ``steps`` steps of a tiny ``bench/`` workload with every
    hook of ``bench/run.py:trace_targets`` installed; return the tracer,
    the tally and the workload."""
    environ, path, bytecode = dict(os.environ), list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True  # leave bench/ as checked out
    try:
        run = importlib.import_module("run")  # sets BLAS thread variables for its child processes
        spans, workloads = importlib.import_module("spans"), importlib.import_module("workloads")
        tracer, tally = spans.Tracer(), workloads.Tally()
        wl = getattr(workloads, workload)(uavqkd, 5, str(workdir), tiny=True)
        restore = spans.install(tracer, run.trace_targets())
        try:
            for i in range(steps):
                wl.step(i, tally)
        finally:
            restore()
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        sys.dont_write_bytecode = bytecode
        for name in ("run", "spans", "workloads", "reference"):
            sys.modules.pop(name, None)
    return tracer, tally, wl


def test_design_sweep_step_runs_under_the_trace_hooks(tmp_path):
    """One tiny design-sweep step (a sweep and an optimize through
    ``cli.main``) under the trace hooks. The hooks read the package's calls
    (``evaluate``'s context positionally, ``len(SweepResult.rows)``,
    ``render``'s rows); a call they no longer fit raises inside
    ``cli.main`` and fails an op."""
    tracer, tally, _ = traced_steps("DesignSweep", 1, tmp_path)
    assert (tally.attempted, tally.failed) == (2, 0), tally.unexplained
    calls = tracer.calls()
    assert calls["cli.main"] == 2 and calls["sweep.sweep"] == 1 and calls["sweep.optimize"] == 1
    assert tracer.counts["sweep.sweep.points"] == 8
    assert tracer.counts["output.emit.rows"] == 9  # render's rows: 8 sweep rows and 1 optimize row
    assert tracer.child_counts("sweep.optimize")["analytics.evaluate"] >= 1  # the coarse grid is one call
    assert not any(".raised." in key for key in tracer.counts)


def test_mc_validate_steps_run_under_the_trace_hooks(tmp_path):
    """The first tiny mc-validate point, at workers=1 and then workers=2
    with the same seed, under the trace hooks: the workload compares the
    two reports and the exact expectation, and the ``gg_sample`` hook
    counts one fade per simulated slot."""
    tracer, tally, wl = traced_steps("McValidate", 2, tmp_path)
    assert (tally.attempted, tally.failed) == (3, 0), tally.unexplained
    assert tally.mc["nondeterministic"] == 0  # the same report at workers=1 and 2
    assert tally.count("mc_1w") == 1 and tally.count("mc_2w") == 1
    assert tracer.calls()["montecarlo.run"] == 2
    assert tracer.counts["montecarlo.run.slots"] == 2 * wl.n_slots
    assert tracer.counts["channel.gg_sample.draws"] == 2 * wl.n_slots
    assert not any(".raised." in key for key in tracer.counts)


def test_attribution_round_runs_under_the_trace_hooks(tmp_path):
    """Eight tiny attribution points under the trace hooks, the N_g=2
    corner (wz = 5 mm, ra = 1.5 m) among them: capture tables, the
    exact-mode ``evaluate`` and the averaged ``detect_prob`` at each, none
    failing and none raising."""
    tracer, tally, wl = traced_steps("Attribution", 8, tmp_path)
    assert any((p["Ng"], p["wz"], p["ra"]) == (2, 0.005, 1.5) for p in map(wl.point, range(8)))
    # a point: the config, wl.table scalar and one array capture_exact, capture_grid and two evaluations
    assert (tally.attempted, tally.failed) == (8 * (wl.table + 5), 0), tally.unexplained
    assert tracer.calls()["analytics.detect_prob_averaged"] == 8
    assert not any(".raised." in key for key in tracer.counts)
