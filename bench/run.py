"""Benchmark of uavqkd: three seeded closed-loop workloads, checked against
the reference model in ``reference.py``.

Run from the root of a checkout; it imports uavqkd from ``./src``:

    python3 bench/run.py --workload design-sweep --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload mc-validate --seed 1 --seconds 24 --trace 1
    python3 bench/run.py --self-check

``--trace 0`` measures the end-to-end metrics with tracing off: it repeats
the workload's timed design (see ``workloads.py``) as many times as fit in
``--seconds`` at the workload's nominal pass time, at least MIN_REPS, then
runs the seeded coverage steps. The number of passes comes from
``--seconds``, not from the clock, so a seed always makes the same ops.
``--trace 1`` reports the per-layer metrics: the cold-start
split (``-X importtime`` and one cold run of each CLI subcommand), then the
workload's timed design once with every layer's public functions wrapped
(see ``spans.py``) and once more without, for ``trace.overhead_share``; it
runs the design and no seeded steps, so ``--seconds`` does not apply and
the counts repeat exactly for a given program. Both print a readable
report, a line with the environment, and as the last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``correct`` is false when an op fails outside the regimes where the seed
commit is known to be wrong (see ``workloads.py``); ``failed`` counts every
failed op, known ones included.

BLAS is pinned to one thread, so no workload runs more threads than the two
MC workers.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import IntegrationWarning  # noqa: E402

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
MIN_REPS = 3  # passes over the timed design in an untraced run, at least

# The workload's own name for work_per_s and its second timing, as the
# readable report prints them: (name, unit, tally metric, kind).
WORKLOAD_METRICS = {
    "design-sweep": [
        ("analytic_points_per_s", "points/s", "sweep", "rate"),
        ("optimize_s", "s", "optimize", "median"),
    ],
    "mc-validate": [
        ("mc_slots_per_s", "slots/s", "mc_1w", "rate"),
        ("mc_slots_per_s_2w", "slots/s", "mc_2w", "rate"),
    ],
    "attribution": [("attribution_points_per_s", "points/s", "point", "rate")],
}

PER_LAYER = {
    "import.scipy_integrate_s": "s",
    "import.scipy_special_s": "s",
    "import.uavqkd_s": "s",
    "cli.cold_eval_s": "s",
    "cli.cold_mc_s": "s",
    "cli.cold_sweep_s": "s",
    "cli.cold_optimize_s": "s",
    "cli.cold_validate_s": "s",
    "config.loads.self_s": "s",
    "config.build_context.calls": "count",
    "config.build_context.self_s": "s",
    "beam.build_grid.hit_ratio": "ratio",
    "analytics.detect_prob.calls": "count",
    "analytics.detect_prob.self_s": "s",
    "analytics.detect_prob.capture_calls_per_call": "count",
    "beam.capture_grid.calls": "count",
    "beam.capture_grid.displacements": "count",
    "beam.capture_grid.self_s": "s",
    "sweep.sweep.points": "count",
    "sweep.sweep.self_s": "s",
    "sweep.optimize.evaluate_calls": "count",
    "sweep.optimize.self_s": "s",
    "output.emit.rows": "count",
    "output.emit.self_s": "s",
    "cli.main.self_s": "s",
    "cli.main.nonzero_exits": "count",
    "beam.capture_exact_many.calls": "count",
    "beam.capture_exact_many.displacements": "count",
    "beam.capture_exact_many.self_s": "s",
    "channel.gg_sample.draws": "count",
    "channel.gg_sample.self_s": "s",
    "montecarlo.run.slots": "count",
    "montecarlo.run.batches": "count",
    "montecarlo.run.self_s": "s",
    "montecarlo.scaling_2w": "ratio",
    "montecarlo.clamp_rate": "ratio",
    "montecarlo.z_vs_exact_max": "z",
    "montecarlo.nondeterministic_runs": "count",
    "analytics.detect_prob_averaged.calls": "count",
    "analytics.detect_prob_averaged.self_s": "s",
    "analytics.evaluate.self_s": "s",
    "analytics.evaluate_exact.self_s": "s",
    "beam.capture_exact.calls": "count",
    "beam.capture_exact.self_s": "s",
    "beam.capture_exact.numeric_errors": "count",
    "beam.oracle_failures": "count",
    "analytics.oracle_failures": "count",
    "montecarlo.oracle_failures": "count",
    "sweep.oracle_failures": "count",
    "analytics.linearization_warnings": "count",
    "analytics.integration_warnings": "count",
    "beam.capture_overflow_warnings": "count",
    "trace.overhead_share": "ratio",
}

CLI_COLD = {
    "eval": ["eval"],
    "mc": ["mc", "--slots", "1000000", "--seed", "42"],
    "sweep": ["--format", "csv", "sweep", "--axis", "wz", "--range", "5cm:1m:50"],
    "optimize": ["optimize", "--var", "wz", "--qber-max", "1e-3", "--bounds", "5cm:1m"],
    "validate": ["--format", "csv", "validate", "--wz", "5cm,10cm", "--rd-max", "0.2"],
}


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": SRC}


def cold_run(argv: list[str]) -> float:
    """Wall time of one fresh interpreter running ``argv``; raises if it fails."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), check=True, timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def setup_times(config_path: str, starts: int) -> list[float]:
    """Cold process start -> import uavqkd -> first build_context, timed
    ``starts`` times after one untimed start that fills the file caches."""
    code = (
        "from uavqkd import config; "
        f"config.build_context(config.load_config({config_path!r}))"
    )
    cold_run(["-c", code])
    return [cold_run(["-c", code]) for _ in range(starts)]


def import_times(runs: int) -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds of scipy.integrate, scipy.special
    and uavqkd, median over ``runs`` cold imports. The figures nest:
    scipy.special is first imported inside scipy.integrate, and both inside
    uavqkd. scipy loads subpackages lazily and ``-X importtime`` may print
    no line for the package itself, so a package's time is the sum over
    its outermost entries (the package or its submodules)."""
    want = {"scipy.integrate": "import.scipy_integrate_s", "scipy.special": "import.scipy_special_s",
            "uavqkd": "import.uavqkd_s"}
    samples: dict[str, list[float]] = {v: [] for v in want.values()}
    for _ in range(runs):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import uavqkd"], cwd=ROOT, env=child_env(),
            check=True, timeout=120, capture_output=True, text=True,
        ).stderr
        entries = []  # (package, depth, cumulative us)
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            module = name.strip()
            for package in want:
                if module == package or module.startswith(package + "."):
                    entries.append((package, len(name) - len(name.lstrip()), int(parts[1])))
        for package, key in want.items():
            mine = [(d, us) for p, d, us in entries if p == package]
            top = min(d for d, _ in mine)
            samples[key].append(sum(us for d, us in mine if d == top) * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def environment(uavqkd, name: str, seed: int, seconds: float) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
        "batch_size": uavqkd.montecarlo.BATCH_SIZE,
        "commit": commit,
        "workload": name,
        "seed": seed,
        "design_seed": workloads.DESIGN_SEED,
        "op_seeds": "numpy default_rng([seed or design_seed, step, stream])",
        "seconds": seconds,
    }


def warning_types(uavqkd) -> tuple:
    return uavqkd.errors.LinearizationWarning, uavqkd.errors.CaptureOverflowWarning, IntegrationWarning


def quiet_warnings(uavqkd) -> None:
    for cat in warning_types(uavqkd):
        warnings.simplefilter("ignore", cat)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def design(wl, tally, build_grid, on_step=None) -> None:
    """One pass over the timed design, from an empty capture-grid cache so
    that every pass does the same work."""
    build_grid.cache_clear()
    for i in range(wl.timed_steps):
        if on_step:
            on_step(i)
        wl.step(i, tally)


def untraced(uavqkd, name, seed, seconds, workdir, tiny):
    wl = workloads.WORKLOADS[name](uavqkd, seed, workdir, tiny)
    setup = setup_times(wl.first_config(), 1 if tiny else 5)
    tally = workloads.Tally()
    # Fixed by --seconds, never by the clock, so a seed always makes the same ops.
    reps = max(MIN_REPS, round(seconds / wl.rep_s))
    rss = None
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        quiet_warnings(uavqkd)
        for rep in range(reps):
            def on_step(i):
                nonlocal rss
                if rep == 0 and i == wl.rss_steps:
                    rss = peak_rss_mb()
            design(wl, tally, uavqkd.beam.build_grid, on_step)
        if rss is None:
            rss = peak_rss_mb()
        passes_s = time.perf_counter() - t0
        for i in range(wl.timed_steps, wl.timed_steps + wl.coverage_steps):
            wl.step(i, tally)
    rss_note = "over the timed passes" if wl.rss_steps is None else \
        f"over the first {wl.rss_steps} steps (workers=1) of the first pass"
    named = {}
    for metric, unit, key, kind in WORKLOAD_METRICS[name]:
        value = tally.rate(key) if kind == "rate" else tally.median(key)
        calls = len(tally.samples[key])
        named[metric] = (value, unit, f"n={tally.count(key)} calls ({calls} calls x {reps} reps, median per call)")
    first = WORKLOAD_METRICS[name][0]
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": tally.rate(first[2]),
        "peak_rss_mb": rss,
    }
    lines = [f"workload {name}, seed {seed}: closed loop, one caller, design of {wl.timed_steps} steps "
             f"x {reps} reps ({passes_s:.1f} s), then {wl.coverage_steps} seeded steps"]
    lines.append(f"  {'setup_s':28s} {metrics['setup_s']:14.6g} s          n={len(setup)} cold starts")
    for metric, (value, unit, note) in named.items():
        lines.append(f"  {metric:28s} {value:14.6g} {unit:10s} {note}")
    share = tally.failed / tally.attempted
    lines.append(f"  {'failed_share':28s} {share:14.6g} {'ratio':10s} failed={tally.failed} attempted={tally.attempted}")
    lines.append(f"  {'peak_rss_mb':28s} {rss:14.6g} {'MB':10s} n=1 process, {rss_note}")
    lines.append(f"  work_per_s = {first[0]}; failures by layer: {dict(tally.layer_failures) or 'none'}")
    for u in tally.unexplained[:10]:
        lines.append(f"  UNEXPLAINED {u}")
    return tally, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, lines, named


def trace_targets():
    """(module, attribute, span name, count hook) for every traced function."""
    # uavqkd.sweep is the sweep() function the package re-exports, so the
    # modules come from sys.modules.
    mod = {m: sys.modules[f"uavqkd.{m}"] for m in
           ("config", "beam", "channel", "analytics", "montecarlo", "sweep", "output", "cli")}
    bs = mod["montecarlo"].BATCH_SIZE

    def arg(args, kwargs, i, key, default=None):
        return args[i] if len(args) > i else kwargs.get(key, default)

    def add(key, f):
        def hook(counts, args, kwargs, result):
            counts[key] += f(args, kwargs, result)
        return hook

    def mc_hook(counts, args, kwargs, result):
        n = arg(args, kwargs, 1, "n_slots")
        counts["montecarlo.run.slots"] += n
        counts["montecarlo.run.batches"] += -(-n // bs)

    detect = lambda a, k: "analytics.detect_prob_averaged" if arg(a, k, 2, "turbulence") == "averaged" \
        else "analytics.detect_prob"
    evaluate = lambda a, k: "analytics.evaluate_exact" if a[0].mu_p_mode == "exact" else "analytics.evaluate"
    return [
        (mod["config"], "loads", "config.loads", None),
        (mod["config"], "load_config", "config.load_config", None),
        (mod["config"], "build_context", "config.build_context", None),
        (mod["beam"], "build_grid", "beam.build_grid", None),
        (mod["beam"], "capture_grid", "beam.capture_grid",
         add("beam.capture_grid.displacements", lambda a, k, r: np.size(arg(a, k, 1, "rd")))),
        (mod["beam"], "capture_exact", "beam.capture_exact", None),
        (mod["beam"], "capture_exact_many", "beam.capture_exact_many",
         add("beam.capture_exact_many.displacements", lambda a, k, r: np.size(arg(a, k, 0, "rd")))),
        (mod["beam"], "capture_classical", "beam.capture_classical", None),
        (mod["channel"], "gg_sample", "channel.gg_sample",
         add("channel.gg_sample.draws", lambda a, k, r: np.size(r))),
        (mod["analytics"], "detect_prob", detect, None),
        (mod["analytics"], "evaluate", evaluate, None),
        (mod["montecarlo"], "run", "montecarlo.run", mc_hook),
        (mod["sweep"], "sweep", "sweep.sweep", add("sweep.sweep.points", lambda a, k, r: len(r.rows))),
        (mod["sweep"], "optimize", "sweep.optimize", None),
        (mod["output"], "emit", "output.emit", None),
        (mod["output"], "render", "output.render", add("output.emit.rows", lambda a, k, r: len(a[0]))),
        (mod["cli"], "main", "cli.main", add("cli.main.nonzero_exits", lambda a, k, r: int(r != 0))),
    ]


def traced(uavqkd, name, seed, workdir, tiny):
    u = uavqkd
    metrics = dict(import_times(1 if tiny else 3))
    wl = workloads.WORKLOADS[name](u, seed, workdir, tiny)
    for cmd, argv in CLI_COLD.items():
        metrics[f"cli.cold_{cmd}_s"] = cold_run(["-m", "uavqkd.cli", "--quiet", *argv])

    tracer = spans.Tracer()
    build_grid = u.beam.build_grid
    warned: Counter = Counter()
    tally = workloads.Tally()
    restore = spans.install(tracer, trace_targets())
    try:
        with warnings.catch_warnings():
            for cat in warning_types(u):
                warnings.simplefilter("always", cat)
            warnings.showwarning = lambda message, category, *rest: warned.update([category.__name__])
            design(wl, tally, build_grid, on_step=lambda n: setattr(tracer, "op_id", n))
    finally:
        restore()
    info = build_grid.cache_info()

    plain = workloads.Tally()
    with warnings.catch_warnings():
        quiet_warnings(u)
        design(wl, plain, build_grid)

    calls, self_s, counts = tracer.calls(), tracer.self_times(), tracer.counts
    under_detect = tracer.child_counts("analytics.detect_prob")
    n_detect = calls["analytics.detect_prob"]
    mc_rates = plain.samples["mc_1w"] and plain.samples["mc_2w"]
    metrics.update({
        "config.loads.self_s": self_s.get("config.loads", 0.0),
        "config.build_context.calls": calls["config.build_context"],
        "config.build_context.self_s": self_s.get("config.build_context", 0.0),
        "beam.build_grid.hit_ratio": info.hits / max(info.hits + info.misses, 1),
        "analytics.detect_prob.calls": n_detect,
        "analytics.detect_prob.self_s": self_s.get("analytics.detect_prob", 0.0),
        "analytics.detect_prob.capture_calls_per_call":
            (under_detect["beam.capture_grid"] + under_detect["beam.capture_exact_many"]) / max(n_detect, 1),
        "beam.capture_grid.calls": calls["beam.capture_grid"],
        "beam.capture_grid.displacements": counts["beam.capture_grid.displacements"],
        "beam.capture_grid.self_s": self_s.get("beam.capture_grid", 0.0),
        "sweep.sweep.points": counts["sweep.sweep.points"],
        "sweep.sweep.self_s": self_s.get("sweep.sweep", 0.0),
        "sweep.optimize.evaluate_calls": tracer.child_counts("sweep.optimize")["analytics.evaluate"],
        "sweep.optimize.self_s": self_s.get("sweep.optimize", 0.0),
        "output.emit.rows": counts["output.emit.rows"],
        "output.emit.self_s": self_s.get("output.emit", 0.0) + self_s.get("output.render", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.main.nonzero_exits": counts["cli.main.nonzero_exits"],
        "beam.capture_exact_many.calls": calls["beam.capture_exact_many"],
        "beam.capture_exact_many.displacements": counts["beam.capture_exact_many.displacements"],
        "beam.capture_exact_many.self_s": self_s.get("beam.capture_exact_many", 0.0),
        "channel.gg_sample.draws": counts["channel.gg_sample.draws"],
        "channel.gg_sample.self_s": self_s.get("channel.gg_sample", 0.0),
        "montecarlo.run.slots": counts["montecarlo.run.slots"],
        "montecarlo.run.batches": counts["montecarlo.run.batches"],
        "montecarlo.run.self_s": self_s.get("montecarlo.run", 0.0),
        "montecarlo.scaling_2w": plain.rate("mc_2w") / plain.rate("mc_1w") if mc_rates else 0.0,
        "montecarlo.clamp_rate": tally.mc["clamp_rate"],
        "montecarlo.z_vs_exact_max": tally.mc["z_max"],
        "montecarlo.nondeterministic_runs": tally.mc["nondeterministic"],
        "analytics.detect_prob_averaged.calls": calls["analytics.detect_prob_averaged"],
        "analytics.detect_prob_averaged.self_s": self_s.get("analytics.detect_prob_averaged", 0.0),
        "analytics.evaluate.self_s": self_s.get("analytics.evaluate", 0.0),
        "analytics.evaluate_exact.self_s": self_s.get("analytics.evaluate_exact", 0.0),
        "beam.capture_exact.calls": calls["beam.capture_exact"],
        "beam.capture_exact.self_s": self_s.get("beam.capture_exact", 0.0),
        "beam.capture_exact.numeric_errors": counts["beam.capture_exact.raised.NumericError"],
        "beam.oracle_failures": tally.layer_failures["beam"],
        "analytics.oracle_failures": tally.layer_failures["analytics"],
        "montecarlo.oracle_failures": tally.layer_failures["montecarlo"],
        "sweep.oracle_failures": tally.layer_failures["sweep"],
        "analytics.linearization_warnings": warned["LinearizationWarning"],
        "analytics.integration_warnings": warned["IntegrationWarning"],
        "beam.capture_overflow_warnings": warned["CaptureOverflowWarning"],
        "trace.overhead_share": tally.busy / plain.busy - 1.0 if plain.busy else 0.0,
    })

    total = sum(self_s.values())
    lines = [f"workload {name}, seed {seed}: traced {wl.timed_steps} steps, {len(tracer.start)} spans, "
             f"then the same steps untraced"]
    lines.append("  self time by layer (share of traced busy time):")
    for span, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {span:36s} {s:10.4f} s {s / total:7.1%}  calls={calls[span]}")
    for key, value in metrics.items():
        lines.append(f"  {key:44s} {value:14.6g} {PER_LAYER[key]}")
    for u_ in tally.unexplained[:10]:
        lines.append(f"  UNEXPLAINED {u_}")
    return tally, {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()}, lines


def measure(name: str, seed: int, seconds: float, trace_on: bool, tiny: bool = False):
    """One benchmark run; returns (result object, readable lines, named metrics)."""
    sys.path.insert(0, SRC)
    import uavqkd
    import uavqkd.cli

    if not os.path.abspath(uavqkd.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported uavqkd from {uavqkd.__file__}, not from {SRC}")
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        if trace_on:
            tally, metrics, lines = traced(uavqkd, name, seed, workdir, tiny)
            named = {}
        else:
            tally, metrics, lines, named = untraced(uavqkd, name, seed, seconds, workdir, tiny)
    lines.append("env " + json.dumps(environment(uavqkd, name, seed, seconds), sort_keys=True))
    result = {
        "correct": not tally.unexplained and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, lines, named


def self_check() -> int:
    """Each workload at tiny size in both modes: every metric emitted with
    its unit; and the reference checker flags perturbed outputs."""
    sys.path.insert(0, SRC)
    import uavqkd

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace_on in (False, True):
            result, lines, named = measure(w["name"], 1, 0.0, trace_on, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace_on]:
                problems.append(f"{w['name']} trace={int(trace_on)}: metrics {got} != {declared[trace_on]}")
            if not result["correct"]:
                problems.append(f"{w['name']} trace={int(trace_on)}: incorrect: {lines[-3:]}")
            if not trace_on:
                text = "\n".join(lines)
                for metric, unit, _, _ in WORKLOAD_METRICS[w["name"]]:
                    if metric not in named or f" {unit} " not in text:
                        problems.append(f"{w['name']}: {metric} [{unit}] not printed")
                for metric in ("setup_s", "failed_share", "peak_rss_mb"):
                    if f"  {metric} " not in text:
                        problems.append(f"{w['name']}: {metric} not printed")

    cfg = uavqkd.LinkConfig(theta_fov=100e-6)
    params = {**workloads.FIXED, **{k: v for k, v in dataclasses.asdict(cfg).items() if v is not None}}
    with warnings.catch_warnings():
        quiet_warnings(uavqkd)
        rep = workloads.report_dict(uavqkd.analytics.evaluate(uavqkd.config.build_context(cfg)))
    want = ref.detect_prob(params)
    if ref.report_misses(rep, params, want):
        problems.append("reference rejects the seed's report at the reference point")
    for field in ("p_detect", "p_s2", "qber"):
        bad = dict(rep, **{field: rep[field] * (1.0 + 1e-4)})
        if not ref.report_misses(bad, params, want):
            problems.append(f"perturbed {field} not flagged")
    rd = np.linspace(0.0, 0.2, 5)
    good = uavqkd.beam.capture_exact_many(rd, 0.1, 0.15)
    if workloads.capture_problems(good, ref.capture(rd, 0.1, 0.15)):
        problems.append("reference rejects a correct capture table")
    bad = good.copy()
    bad[2] += 1e-6
    if not workloads.capture_problems(bad, ref.capture(rd, 0.1, 0.15)):
        problems.append("perturbed capture value not flagged")
    if not workloads.capture_problems(uavqkd.beam.capture_exact_many([0.0], 0.005, 0.15), ref.capture([0.0], 0.005, 0.15)):
        problems.append("documented capture_exact_many(0, 5 mm, 15 cm) error not flagged")

    for p in problems:
        print("SELF-CHECK FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("design-sweep", "mc-validate", "attribution"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="tiny runs of every workload and checker tests")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "uavqkd", "__init__.py")):
        print(f"no uavqkd sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
