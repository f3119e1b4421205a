"""The names ``bench/`` reads from the package must keep resolving.

``bench/run.py`` wraps the functions listed here to trace them and
``bench/workloads.py`` calls them; a name pruned from the package breaks
the benchmark at run time, so its removal has to fail here first.
"""

import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import uavqkd

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
