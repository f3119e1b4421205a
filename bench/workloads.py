"""The benchmark's three workloads over uavqkd's public API.

Each workload is a closed loop: one caller in one process, every call
starting after the previous one returned. ``step`` runs one unit (a study,
an MC point, an attribution point), times each call into uavqkd with
``perf_counter``, and checks every output against ``reference``. Inputs
come from seeds; uavqkd receives generated configs and argv.

Steps 0 .. timed_steps - 1 form the timed design: they are drawn from
DESIGN_SEED, the same in every run, and only they enter the throughput and
latency figures. Per-call cost depends strongly on the inputs (0.01 s to
5 s per attribution point), so a rate over a few dozen freshly drawn
inputs would swing by up to 2x from seed to seed. A run repeats the design
several times and takes, for each call, the median of its times over the
repetitions, so a burst of host load during one repetition does not move
the figures. The ``coverage_steps`` steps after the design are drawn from
the workload seed (``--seed``); they are checked and counted in the same
way but not timed, so every seed adds correctness coverage. The number of
steps never depends on the clock: a seed always makes the same ops, and
the same ops fail.

An op fails when it raises, when ``cli.main`` returns non-zero, or when an
output misses the reference; the miss is counted against the layer whose
output was checked. A failure is *explained* when it lies in a regime
where the seed commit is known to be wrong:

* narrow beam, ra / wz >= 8: the 96-node ``capture_exact_many`` misses the
  closed form by up to 1.0 (0.755 for 1.0 at wz = 5 mm, ra = 15 cm), and
  with it exact-mode analytics and the Monte Carlo, which use it; adaptive
  ``capture_exact`` returns 0.0 for 1.0 at wz = 5 mm, ra = 1.5 m,
  rd = 0.1 m;
* wide jitter, Rayleigh CDF at the capture footprint ra + 3 wz below 1%:
  the adaptive quadrature over that CDF in ``detect_prob`` places no node
  where the beam is captured and returns ~0 (found by this benchmark: at
  sigma_rd = 6.6 m, ra = 7.8 cm, wz = 5.1 cm it gives p_detect 1.5e-25 for
  5.6e-8 and QBER 0.5 for 0.029);
* non-finite averaged detection probability: ``detect_prob(turbulence=
  "averaged")`` divides the rounding noise of 1 - E[...] by a signal that
  can be subnormal, and returns +-inf (found by this benchmark);
* Monte Carlo survival clamp: when some slots clamp the photon survival
  probability at 1 (clamp_rate > 0) the estimate sits below the exact
  turbulence average.

Any other failure is unexplained and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np

import reference as ref

# Validator box of uavqkd's config (SI), for the draws over it.
BOX = {
    "Lz": (100.0, 10_000.0),
    "ra": (0.015, 1.5),
    "mu_t": (0.05, 5.0),
    "eta_atm": (1e-3, 1.0),
    "mu_d": (0.06, 1.0),
    "T_qs": (1e-9, 1e-7),
    "alpha": (0.2, 25.0),
    "beta": (0.2, 25.0),
    "wavelength": (1.55e-7, 1.55e-5),
    "delta_lambda": (0.1, 10.0),
    "Ng": (2, 100_000),
    "wz": (0.005, 10.0),
    "sigma_theta_e": (5e-6, 2e-2),
    "sigma_aoa": (5e-6, 2e-3),
    "theta_fov": (5e-7, 2e-3),
    "B_lambda": (1e-9, 1e-3),
}
FIXED = {"r_f": 5e-6, "L_f": 0.15}
# ra / wz from which the 96-node capture_exact_many loses accuracy: its
# worst error over rd is 3e-12 at 8, 1e-8 at 9.75, 2.5e-8 at 10, 0.25 at 30.
NARROW_BEAM = 8.0
WIDE_JITTER = 0.01  # Rayleigh CDF at ra + 3 wz below which detect_prob's quadrature misses

UNITS = {
    "Lz": "m", "ra": "m", "T_qs": "s", "wavelength": "m", "delta_lambda": "nm",
    "wz": "m", "sigma_theta_e": "rad", "sigma_aoa": "rad", "theta_fov": "rad",
    "B_lambda": "W/m2/sr/nm", "r_f": "m", "L_f": "m",
}
FIELDS = ("p_detect", "p_s1", "p_s2", "p_s3", "p_eff_one", "key_rate", "qber")
DESIGN_SEED = 2506


class Tally:
    """Ops, failures and timed samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexplained: list[str] = []
        self.layer_failures: Counter = Counter()
        # metric -> call key -> (work, seconds) of each repetition of the design
        self.samples: dict[str, dict[object, list[tuple[float, float]]]] = defaultdict(lambda: defaultdict(list))
        self.busy = 0.0  # seconds inside uavqkd calls, timed design or not
        self.mc = {"clamp_rate": 0.0, "z_max": 0.0, "nondeterministic": 0}

    def op(self, layer: str, problems: list[str], explained: bool = False, what: str = "") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.layer_failures[layer] += 1
            if not explained:
                self.unexplained.append(f"{layer}: {what}: {', '.join(problems)}")

    def sample(self, metric: str, key, work: float, seconds: float, timed: bool) -> None:
        self.busy += seconds
        if timed:
            self.samples[metric][key].append((work, seconds))

    def call_times(self, metric: str) -> list[tuple[float, float]]:
        """(work, median seconds over the repetitions) of each timed call."""
        return [(s[0][0], statistics.median(t for _, t in s)) for s in self.samples[metric].values()]

    def count(self, metric: str) -> int:
        return sum(len(s) for s in self.samples[metric].values())

    def rate(self, metric: str) -> float:
        """Work per second over the timed calls (0 when every call failed)."""
        s = self.call_times(metric)
        return sum(w for w, _ in s) / sum(t for _, t in s) if s else 0.0

    def median(self, metric: str) -> float:
        s = self.call_times(metric)
        return statistics.median(t for _, t in s) if s else 0.0


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the op failed; the caller counts it
        return exc, time.perf_counter() - t0
    return out, time.perf_counter() - t0


def loguniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def config_text(params: dict) -> str:
    lines = []
    for key, value in params.items():
        if value is None:
            continue
        unit = UNITS.get(key)
        lines.append(f"{key} = {value!r} {unit}" if unit else f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def write_config(workdir: str, name: str, params: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(params))
    return path


def link_config(uavqkd, params: dict):
    return uavqkd.LinkConfig(**{k: v for k, v in params.items() if v is not None})


def report_dict(report) -> dict:
    return {k: getattr(report, k) for k in FIELDS}


class Workload:
    """Steps 0 .. timed_steps - 1 are the timed design, the next
    coverage_steps are seeded. ``rep_s`` is the nominal time of one pass
    over the design, from which the run sizes its repetitions."""

    timed_steps = 1
    coverage_steps = 1
    rss_steps = None  # steps of the first pass that peak_rss_mb covers; None: every timed pass
    rep_s = 1.0

    def __init__(self, uavqkd, seed: int, workdir: str, tiny: bool = False):
        self.uavqkd = uavqkd
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        if tiny:
            self.timed_steps = self.coverage_steps = 1

    def seed_of(self, i: int) -> int:
        return DESIGN_SEED if i < self.timed_steps else self.seed

    def step(self, i: int, tally: Tally) -> None:
        self.run(i, tally, i < self.timed_steps)


def narrow(params: dict) -> bool:
    return params["ra"] / params["wz"] >= NARROW_BEAM


def wide_jitter(params: dict) -> bool:
    footprint = params["ra"] + 3.0 * params["wz"]
    sigma_rd = params["sigma_theta_e"] * params["Lz"]
    return -math.expm1(-(footprint**2) / (2.0 * sigma_rd**2)) < WIDE_JITTER


class DesignSweep(Workload):
    """The paper's figure and design loop through ``cli.main``.

    Study i sweeps one of three axes with one of two overlays (rotating) over
    a seeded config file with units and N_g from a fixed ladder, then
    optimizes wz or theta_fov under a seeded QBER ceiling. Values come from
    the paper's figure ranges; axis values are one per equal log-width
    stratum of the axis range.
    """

    AXES = (("wz", 0.05, 1.0), ("theta_fov", 5e-6, 200e-6), ("sigma_theta_e", 5e-6, 300e-6))
    OVERLAYS = (("B_lambda", 1e-7, 1e-4), ("sigma_aoa", 20e-6, 150e-6))
    NG = (10, 20, 50, 100)
    OPT = {"wz": (0.05, 1.0), "theta_fov": (5e-6, 200e-6)}
    timed_steps = 8
    coverage_steps = 2
    rep_s = 6.9

    def base(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed_of(i), i, 0])
        return {
            "Lz": float(rng.uniform(500.0, 2000.0)),
            "ra": float(rng.uniform(0.05, 0.25)),
            "mu_t": float(rng.uniform(0.1, 1.0)),
            "eta_atm": float(rng.uniform(0.2, 0.9)),
            "mu_d": float(rng.uniform(0.3, 0.9)),
            "alpha": float(rng.uniform(1.0, 5.0)),
            "beta": float(rng.uniform(1.0, 5.0)),
            "delta_lambda": float(rng.uniform(0.5, 2.0)),
            "Ng": self.NG[i % len(self.NG)],
            "wz": loguniform(rng, 0.05, 1.0),
            "sigma_theta_e": loguniform(rng, 10e-6, 100e-6),
            "sigma_aoa": loguniform(rng, 25e-6, 100e-6),
            "theta_fov": loguniform(rng, 20e-6, 200e-6) if rng.random() < 0.5 else None,
            "B_lambda": loguniform(rng, 1e-7, 1e-5),
        }

    def first_config(self) -> str:
        return self.config_path(0)

    def config_path(self, i: int) -> str:
        return write_config(self.workdir, f"design-{i}.cfg", self.base(i))

    def params(self, base: dict) -> dict:
        return {"T_qs": 1e-8, "wavelength": 1.55e-6, **FIXED, **base}

    def cli(self, argv: list[str]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, seconds = timed(self.uavqkd.cli.main, argv)
        return code, seconds, out.getvalue()

    def run(self, i: int, tally: Tally, in_design: bool) -> None:
        rng = np.random.default_rng([self.seed_of(i), i, 1])
        n = 4 if self.tiny else 12
        base = self.base(i)
        path = self.config_path(i)
        axis, lo, hi = self.AXES[i % len(self.AXES)]
        ov, olo, ohi = self.OVERLAYS[(i // len(self.AXES)) % len(self.OVERLAYS)]
        values = [math.exp(math.log(lo) + (k + rng.random()) / n * math.log(hi / lo)) for k in range(n)]
        ovalues = sorted({loguniform(rng, olo, ohi) for _ in range(2)})
        argv = [
            "--quiet", "--config", path, "--format", "csv", "sweep", "--axis", axis,
            "--values", ",".join(f"{v!r}{UNITS[axis]}" for v in values),
            "--overlay", f"{ov}=" + ",".join(f"{v!r}{UNITS[ov]}" for v in ovalues),
        ]
        code, seconds, text = self.cli(argv)
        problems = self.check_sweep(code, text, base, axis, ov, len(values) * len(ovalues))
        tally.op("analytics" if code == 0 else "cli", problems, what=f"sweep {axis} x {ov}")
        if code == 0:
            tally.sample("sweep", i, len(values) * len(ovalues), seconds, in_design)

        var = ("wz", "theta_fov")[i % 2]
        olo, ohi = self.OPT[var]
        qber_max = loguniform(rng, 1e-3, 0.05)
        argv = [
            "--quiet", "--config", path, "--format", "csv", "optimize", "--var", var,
            "--qber-max", repr(qber_max), "--bounds", f"{olo!r}{UNITS[var]}:{ohi!r}{UNITS[var]}",
        ]
        code, seconds, text = self.cli(argv)
        problems = self.check_optimize(code, text, base, var, qber_max)
        tally.op("sweep" if code == 0 else "cli", problems, what=f"optimize {var} qber<={qber_max:.3g}")
        if code == 0:
            tally.sample("optimize", i, 1, seconds, in_design)

    @staticmethod
    def rows(text: str) -> list[dict]:
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            row["key_rate"] = row["key_rate_bps"]
            for k in FIELDS + ("axis_value", "overlay_value"):
                row[k] = float(row[k]) if row[k] != "" else math.nan
        return rows

    def check_sweep(self, code, text, base, axis, ov, n) -> list[str]:
        if code != 0:
            return [f"exit code {code!r}"]
        rows = self.rows(text)
        if len(rows) != n:
            return [f"{len(rows)} rows, expected {n}"]
        problems = []
        for row in rows:
            p = self.params({**base, axis: row["axis_value"], ov: row["overlay_value"]})
            bad = ref.report_misses(row, p, ref.detect_prob(p, "grid"))
            problems += [f"{axis}={row['axis_value']:.4g} {ov}={row['overlay_value']:.4g}: {b}" for b in bad]
        return problems

    def check_optimize(self, code, text, base, var, qber_max) -> list[str]:
        if code != 0:
            return [f"exit code {code!r}"]
        rows = self.rows(text)
        if len(rows) != 1:
            return [f"{len(rows)} rows, expected 1"]
        row = rows[0]
        x, feasible = row["axis_value"], row["overlay_value"] == 1.0
        problems = ref.report_misses(row, self.params({**base, var: x}), ref.detect_prob(self.params({**base, var: x})))
        if feasible != (row["qber"] <= qber_max):
            problems.append(f"feasible={feasible} but qber={row['qber']:.4g} vs ceiling {qber_max:.4g}")
        # The result must beat every feasible point of the optimizer's own coarse grid.
        best = -math.inf
        for xc in np.linspace(*self.OPT[var], 64):
            p = self.params({**base, var: float(xc)})
            r = ref.report(p, ref.detect_prob(p))
            if r["qber"] <= qber_max:
                best = max(best, r["key_rate"])
        if feasible and row["key_rate"] < best - max(ref.RTOL * best, ref.QUAD_TOL / 1e-8):
            problems.append(f"key rate {row['key_rate']:.6g} below coarse-grid best {best:.6g}")
        if not feasible and best > -math.inf:
            problems.append("reported infeasible but a coarse-grid point meets the ceiling")
        return problems


def lhs_points(rng, n: int) -> list[dict]:
    """n points over the validator box, log-uniform in each parameter and
    stratified (a Latin hypercube): each parameter takes one value in each
    of n equal log-width strata, so every group of n points spans the box
    the same way whatever the seed."""
    strata = {key: rng.permutation(n) for key in BOX}
    points = []
    for j in range(n):
        p = {}
        for key, (lo, hi) in BOX.items():
            q = (strata[key][j] + rng.random()) / n
            p[key] = math.exp(math.log(lo) + q * math.log(hi / lo))
        p["Ng"] = int(round(p["Ng"]))
        points.append({**FIXED, **p})
    return points


def corner_point(rng) -> dict:
    """A vertex of the validator box with wz at its lower and ra at its upper
    bound, every other parameter at a random end of its range."""
    p = {key: (lo, hi)[int(rng.integers(2))] for key, (lo, hi) in BOX.items()}
    p["wz"], p["ra"] = BOX["wz"][0], BOX["ra"][1]
    return {**FIXED, **p}


class McValidate(Workload):
    """``montecarlo.run`` at points over the whole validator box.

    Each point runs once at workers=1 and once at workers=2 with the same
    seed; the slot count is not a multiple of BATCH_SIZE, so the last batch
    is partial. A block of steps (the timed design, then the seeded
    coverage) runs its points at workers=1 first and at workers=2 after, so
    the run can read its peak memory over single-worker calls only
    (``rss_steps``): with two workers it depends on how the threads' capture
    matrices overlap in time, and read 278-335 MB over runs of the same
    inputs against 186.3-186.8 MB with one. The timed design is one Latin
    hypercube of POINTS points; seeded points are drawn from Latin-hypercube
    rounds of ROUND.
    """

    ROUND = 6
    POINTS = 2
    timed_steps = 2 * POINTS
    coverage_steps = 2
    rss_steps = POINTS
    rep_s = 6.5

    def __init__(self, uavqkd, seed: int, workdir: str, tiny: bool = False):
        super().__init__(uavqkd, seed, workdir, tiny)
        self.n_slots = 70_001 if tiny else 1_000_003
        if tiny:
            self.timed_steps = self.coverage_steps = 2
            self.rss_steps = 1
        self.one: dict[int, tuple] = {}  # point -> (context, workers=1 report) of its last run

    def first_config(self) -> str:
        return write_config(self.workdir, "mc-validate-0.cfg", self.point(0))

    def call(self, i: int) -> tuple[int, int]:
        """(point, workers) of step i."""
        base, n = (0, self.timed_steps) if i < self.timed_steps else (self.timed_steps, self.coverage_steps)
        half = n // 2
        return base + (i - base) % half, 1 + (i - base) // half

    def point(self, k: int) -> dict:
        if k < self.timed_steps:
            return lhs_points(np.random.default_rng([DESIGN_SEED, 0, 2]), self.timed_steps // 2)[k]
        j = k - self.timed_steps
        return lhs_points(np.random.default_rng([self.seed, j // self.ROUND, 2]), self.ROUND)[j % self.ROUND]

    def run(self, i: int, tally: Tally, in_design: bool) -> None:
        k, workers = self.call(i)
        p = self.point(k)
        u = self.uavqkd
        mc_seed = int(np.random.default_rng([self.seed_of(i), k, 3]).integers(2**63))
        if workers == 2:
            if k not in self.one:  # build_context raised at workers=1
                return
            ctx, one = self.one.pop(k)
            two, seconds = timed(u.montecarlo.run, ctx, self.n_slots, mc_seed, workers=2)
            problems = []
            if isinstance(two, Exception):
                problems.append(f"raised {two!r}")
            else:
                tally.sample("mc_2w", k, self.n_slots, seconds, in_design)
                if not isinstance(one, Exception) and not same_report(one, two):
                    tally.mc["nondeterministic"] += 1
                    problems.append("workers=2 estimates differ from workers=1 at the same seed")
            tally.op("montecarlo", problems, what=f"point {k} workers=2")
            return

        ctx, _ = timed(u.config.build_context, link_config(u, p))
        tally.op("config", [f"raised {ctx!r}"] if isinstance(ctx, Exception) else [], what=f"point {k}")
        if isinstance(ctx, Exception):
            return
        one, seconds = timed(u.montecarlo.run, ctx, self.n_slots, mc_seed, workers=1)
        self.one[k] = (ctx, one)
        problems, explained = [], False
        if isinstance(one, Exception):
            problems.append(f"raised {one!r}")
        else:
            tally.sample("mc_1w", k, self.n_slots, seconds, in_design)
            want = ref.detect_prob(p, "exact", "averaged")
            est = one.estimates
            z = ref.mc_z(est.p_detect, self.n_slots, want)
            tally.mc["z_max"] = max(tally.mc["z_max"], abs(z))
            tally.mc["clamp_rate"] = max(tally.mc["clamp_rate"], one.clamp_rate)
            got = report_dict(est)
            if ref.misses(got["p_s1"] + got["p_s2"] + got["p_s3"], got["p_eff_one"], 1e-12, 0.0):
                problems.append("identity p_s1+p_s2+p_s3=p_eff_one")
            if ref.misses(got["key_rate"], got["p_eff_one"] / p["T_qs"], 1e-12, 0.0):
                problems.append("identity key_rate=p_eff_one/T_qs")
            if ref.mc_misses(round(est.p_detect * self.n_slots), self.n_slots, want):
                explained = not problems and (narrow(p) or (one.clamp_rate > 0 and z < 0))
                problems.append(f"p_detect {est.p_detect:.6g} vs exact average {want:.6g}: z={z:.1f}")
        tally.op("montecarlo", problems, explained, f"point {k} workers=1")


def same_report(a, b) -> bool:
    """Bit-identical estimates, standard errors and clamp rate (NaN == NaN)."""
    def flat(r):
        se = r.estimates.se or {}
        return [getattr(r.estimates, k) for k in FIELDS] + [se[k] for k in sorted(se)] + [r.clamp_rate]
    return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(flat(a), flat(b)))


class Attribution(Workload):
    """Error-attribution calls at points over the whole validator box.

    Points come in rounds of eight: seven from a Latin hypercube in log
    space and one corner point with wz = 5 mm and ra = 1.5 m, so every round
    covers the box evenly and visits the narrow-beam corner. N_g walks the
    same log-spaced ladder from 2 to 100 000 in every round (the corner
    takes 2). The timed design is the first TIMED_ROUNDS rounds, the
    seeded coverage one more round.
    """

    ROUND = 8
    TIMED_ROUNDS = 2
    NG_LADDER = tuple(int(round(v)) for v in np.geomspace(*BOX["Ng"], ROUND))
    timed_steps = TIMED_ROUNDS * ROUND
    coverage_steps = ROUND
    rep_s = 8.3

    def __init__(self, uavqkd, seed: int, workdir: str, tiny: bool = False):
        super().__init__(uavqkd, seed, workdir, tiny)
        self.table = 6 if tiny else 16
        self.rounds: dict[int, list[dict]] = {}

    def first_config(self) -> str:
        return write_config(self.workdir, "attribution-0.cfg", self.point(0))

    def point(self, i: int) -> dict:
        """Point i: in the timed design, the points of round i // ROUND;
        after it, those of the seeded rounds."""
        if i < self.timed_steps:
            r, seed = i // self.ROUND, DESIGN_SEED
        else:
            r, seed = (i - self.timed_steps) // self.ROUND, self.seed
        if (seed, r) not in self.rounds:
            self.rounds[seed, r] = self.round(seed, r)
        return self.rounds[seed, r][i % self.ROUND]

    def round(self, seed: int, r: int) -> list[dict]:
        rng = np.random.default_rng([seed, r, 4])
        points = lhs_points(rng, self.ROUND - 1)
        for p, ng in zip(points, self.NG_LADDER[1:]):
            p["Ng"] = ng
        points.append({**corner_point(rng), "Ng": self.NG_LADDER[0]})
        return [points[k] for k in rng.permutation(self.ROUND)]

    def run(self, i: int, tally: Tally, in_design: bool) -> None:
        p = self.point(i)
        u = self.uavqkd
        wz, ra = p["wz"], p["ra"]
        known = narrow(p)
        known_analytics = known or wide_jitter(p)
        busy = 0.0

        ctx, s = timed(u.config.build_context, link_config(u, p))
        busy += s
        tally.op("config", [f"raised {ctx!r}"] if isinstance(ctx, Exception) else [], what=f"point {i}")
        if isinstance(ctx, Exception):
            return

        rd = np.linspace(0.0, ra + 2.0 * wz, self.table)
        want = ref.capture(rd, wz, ra)
        for r, w in zip(rd, want):
            got, s = timed(u.beam.capture_exact, float(r), wz, ra)
            busy += s
            if isinstance(got, u.NumericError):
                tally.op("beam", [f"NumericError at rd={r:.4g}"], known, f"capture_exact point {i}")
            elif isinstance(got, Exception):
                tally.op("beam", [f"raised {got!r}"], what=f"capture_exact point {i}")
            else:
                bad = ref.misses(got, float(w), 0.0, ref.CAPTURE_ATOL)
                tally.op("beam", [f"rd={r:.4g}: {got:.12g} vs {w:.12g}"] if bad else [], known,
                         f"capture_exact wz={wz:.4g} ra={ra:.4g}")
        got, s = timed(u.beam.capture_exact_many, rd, wz, ra)
        busy += s
        tally.op("beam", capture_problems(got, want), known, f"capture_exact_many wz={wz:.4g} ra={ra:.4g}")
        grid = u.beam.build_grid(ra, wz, p["Ng"])
        got, s = timed(u.beam.capture_grid, grid, rd)
        busy += s
        tally.op("beam", capture_problems(got, ref.grid_capture(rd, wz, ra, p["Ng"])),
                 what=f"capture_grid wz={wz:.4g} ra={ra:.4g} Ng={p['Ng']}")

        rep, s = timed(u.analytics.evaluate, replace(ctx, mu_p_mode="exact"))
        busy += s
        if isinstance(rep, Exception):
            problems = [f"raised {rep!r}"]
        else:
            problems = ref.report_misses(report_dict(rep), p, ref.detect_prob(p, "exact"))
        tally.op("analytics", problems, known_analytics and problems == ["p_detect"], f"evaluate exact point {i}")

        got, s = timed(u.analytics.detect_prob, ctx, turbulence="averaged")
        busy += s
        if isinstance(got, Exception):
            problems = [f"raised {got!r}"]
        else:
            w = ref.detect_prob(p, "grid", "averaged")
            problems = [f"{got:.8g} vs {w:.8g}"] if ref.misses(got, w) else []
            known_analytics |= not math.isfinite(got)
        tally.op("analytics", problems, known_analytics, f"detect_prob averaged point {i}")
        tally.sample("point", i, 1, busy, in_design)


def capture_problems(got, want) -> list[str]:
    if isinstance(got, Exception):
        return [f"raised {got!r}"]
    err = np.abs(np.asarray(got, dtype=float) - want)
    worst = int(np.argmax(err))
    if err[worst] > ref.CAPTURE_ATOL:
        return [f"{np.count_nonzero(err > ref.CAPTURE_ATOL)} of {err.size} values off, "
                f"worst {got[worst]:.12g} vs {want[worst]:.12g}"]
    return []


WORKLOADS = {"design-sweep": DesignSweep, "mc-validate": McValidate, "attribution": Attribution}
