"""Parameter sweeps and constrained single-variable optimization.

A sweep is one array pass, whatever its engine. The first point's config is
validated once and every axis and overlay value is range-checked once;
together that is the validation of every point. One context then holds
all P points, whatever the axis (the capture layer bounds the memory of
the grid rows of a wz axis): the swept fields are arrays with one entry
per point, and every quantity derived from them (capture grid, FoV,
background mean) is derived for each point from that point's own
values, in the same pass and by the same functions as
``build_context``. A point therefore cannot see a value derived for
another point or an earlier sweep; the only state kept between points
is ``build_grid``'s cache of immutable grids, keyed by (ra, wz, N_g).
One ``evaluate`` call per pass gives (P,) columns, row
k equal to the same point evaluated alone, and ``sweep(...).rows`` are the
output-schema rows built from them once (``output.perf_rows``: keys = the
CSV columns, so the key rate is ``key_rate_bps``). Each point is derived
once: Monte Carlo point k runs on point k of the same context
(``analytics._point``), which reads the values that gave its analytic row,
on a seed spawned from the config seed, one per point; a sweep that runs
no Monte Carlo spawns none. The optimizer maximizes
the analytic key rate under a QBER ceiling with array passes too, picking
points with numpy masks on the columns: a coarse global grid, then grids of
a few points that narrow the bracket around the best feasible point until
the grid step falls below a fixed share of the bounds; Monte Carlo is
intentionally not part of the objective (its noise breaks a line search)
and is meant for post-hoc validation of the chosen optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytics, montecarlo
from .analytics import PerformanceReport
from .config import LinkConfig, _check_range, _derive, validate
from .errors import ConfigError
from .output import perf_rows

__all__ = ["SWEEPABLE", "SweepSpec", "SweepResult", "OptimizeResult", "sweep", "optimize"]

SWEEPABLE = ("wz", "sigma_theta_e", "sigma_aoa", "theta_fov", "B_lambda")
OPTIMIZABLE = ("wz", "theta_fov")

_COARSE = 64  # points of optimize's coarse global grid
_REFINE = 8  # interior points of each of optimize's narrowing passes
_TOL = 1e-6  # optimize's final grid step, relative to hi - lo


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis, an optional overlay axis, and the engine to run.

    ``values`` and ``overlay_values`` take any sequence of numbers and are
    kept as tuples of floats, so a spec is hashable."""

    axis: str
    values: tuple[float, ...]
    overlay: str | None = None
    overlay_values: tuple[float, ...] = ()
    engine: str = "analytic"  # "analytic" | "monte_carlo" | "both"

    def __post_init__(self):
        if self.axis not in SWEEPABLE:
            raise ValueError(f"axis must be one of {SWEEPABLE}, got {self.axis!r}")
        for name in ("values", "overlay_values"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if not all(math.isfinite(v) for v in self.values + self.overlay_values):
            raise ValueError("sweep and overlay values must be finite")
        if any(not b > a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.overlay is not None and (self.overlay not in SWEEPABLE or self.overlay == self.axis):
            raise ValueError(f"overlay must be a sweepable axis distinct from {self.axis!r}")
        if (self.overlay is None) != (not self.overlay_values):
            raise ValueError("an overlay axis and overlay values must be given together")
        if self.engine not in ("analytic", "monte_carlo", "both"):
            raise ValueError(f"unknown engine {self.engine!r}")


@dataclass(frozen=True)
class SweepResult:
    """The sweep's output-schema rows (``output.perf_rows``), in sweep order."""

    spec: SweepSpec
    rows: tuple[dict, ...]


def _point(report: PerformanceReport, i: int) -> PerformanceReport:
    """Point i of a report of (P,) columns, its fields Python floats."""
    point = {name: column[i].item() for name, column in vars(report).items() if isinstance(column, np.ndarray)}
    return PerformanceReport(**point, method="analytic")


def _checked_first_point(base: LinkConfig, spec: SweepSpec) -> LinkConfig:
    """The first point's config, validated; then every other axis value is
    range-checked at the first overlay value, and every other overlay value
    at the first axis value: together the validation of every point, each
    value checked once. An invalid point raises the error of the first
    invalid point in sweep order, before any point is evaluated."""
    v0, ov0 = spec.values[0], (spec.overlay_values or (None,))[0]
    cfg = replace(base, **{spec.axis: v0, **({spec.overlay: ov0} if spec.overlay else {})})
    point = (v0, ov0)
    try:
        validate(cfg)
        for v in spec.values[1:]:
            point = (v, ov0)
            _check_range(spec.axis, v)
        for ov in spec.overlay_values[1:]:
            point = (v0, ov)
            _check_range(spec.overlay, ov)
    except ValueError as exc:
        raise ConfigError(f"sweep point {spec.axis}={point[0]}, overlay={point[1]}: {exc}") from exc
    return cfg


def sweep(base: LinkConfig, spec: SweepSpec) -> SweepResult:
    """Rows of the link at every (axis x overlay) combination, in order, analytic before Monte Carlo.

    Every engine derives all points in one context. The analytic engine
    evaluates it in one array pass; the Monte Carlo runs each point k of it
    on a per-point seed spawned from the config seed via SeedSequence, so
    the same spec and seed reproduce the same SweepResult exactly; an
    analytic sweep spawns none.
    """
    points = [(v, ov) for ov in spec.overlay_values or (None,) for v in spec.values]
    cfg = _checked_first_point(base, spec)
    axis_values, overlay_values = zip(*points)
    axis, overlay = spec.axis, spec.overlay or ""
    swept = {axis: np.array(axis_values, dtype=float)}
    if spec.overlay:
        swept[overlay] = np.array(overlay_values, dtype=float)
    ctx = _derive(cfg, swept)
    analytic = [] if spec.engine == "monte_carlo" else perf_rows(
        analytics.evaluate(ctx), axis, axis_values, overlay, overlay_values)
    if spec.engine == "analytic":
        return SweepResult(spec=spec, rows=tuple(analytic))

    rows: list[dict] = []
    for k, ss in enumerate(np.random.SeedSequence(base.seed).spawn(len(points))):
        rows += analytic[k : k + 1]  # none under engine "monte_carlo"
        mc = montecarlo.run(analytics._point(ctx, k), base.n_slots, int(ss.generate_state(1, np.uint64)[0]))
        rows += perf_rows(mc.estimates, axis, axis_values[k : k + 1], overlay, overlay_values[k : k + 1])
    return SweepResult(spec=spec, rows=tuple(rows))


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of the constrained search.

    ``feasible`` is False when no point in the interval satisfies the QBER
    ceiling; ``value`` then holds the minimum-QBER point instead of an
    argmax, so adaptive tuning still gets a usable recommendation.
    """

    variable: str
    value: float
    report: PerformanceReport
    feasible: bool
    qber_max: float


def optimize(base: LinkConfig, variable: str, qber_max: float, bounds: tuple[float, float]) -> OptimizeResult:
    """Maximize analytic key rate in one variable subject to qber <= qber_max.

    Unimodality is not guaranteed a priori, so a coarse global grid of
    _COARSE points finds the best feasible point; each further pass then
    evaluates _REFINE interior points of [best - step, best + step] within
    the bounds, narrowing the step by at least (_REFINE + 1) / 2, until it
    is at most _TOL * (hi - lo). Every pass, the coarse one included, is one
    array pass under one rule: its first feasible maximum replaces the best
    point only on a strictly higher key rate, so an infeasible point never
    displaces the best feasible one. The config at
    lo is validated and hi range-checked; every point evaluated lies in
    [lo, hi], so none is checked again.
    """
    if variable not in OPTIMIZABLE:
        raise ValueError(f"variable must be one of {OPTIMIZABLE}")
    if not 0.0 < qber_max < 0.5:
        raise ValueError("qber_max must be in (0, 0.5)")
    lo, hi = bounds
    if not lo < hi:
        raise ValueError("bounds must satisfy lo < hi")

    xs, step = np.linspace(lo, hi, _COARSE), (hi - lo) / (_COARSE - 1)
    cfg = replace(base, **{variable: float(xs[0])})
    validate(cfg)
    _check_range(variable, hi)
    best_r = None
    while True:  # one pass: evaluate, pick, narrow
        r = analytics.evaluate(_derive(cfg, {variable: xs}))
        feasible = r.qber <= qber_max  # False where the QBER is NaN
        # a feasible point's key rate is finite: the first maximum is the first feasible best
        i = int(np.argmax(np.where(feasible, r.key_rate, -np.inf)))
        if feasible[i] and (best_r is None or r.key_rate[i] > best_r.key_rate):
            best_x, best_r = float(xs[i]), _point(r, i)
        if best_r is None:  # no feasible point on the coarse grid
            i = int(np.argmin(r.qber))
            return OptimizeResult(variable, float(xs[i]), _point(r, i), False, qber_max)
        if step <= _TOL * (hi - lo):
            return OptimizeResult(variable, best_x, best_r, True, qber_max)
        a, b = max(best_x - step, lo), min(best_x + step, hi)
        xs = np.linspace(a, b, _REFINE + 2)[1:-1]
        step = (b - a) / (_REFINE + 1)
