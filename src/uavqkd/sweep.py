"""Parameter sweeps and constrained single-variable optimization.

Sweeps rebuild the full derived-quantity chain (beam geometry, capture
grid, FoV geometry, background mean, composite transmissivity) at every
point, so overlays can never see a stale cache. Monte Carlo points run
on seeds spawned from the config seed, one per point; a sweep that runs no
Monte Carlo spawns none. The optimizer maximizes
the analytic key rate under a QBER ceiling with a coarse global grid
followed by golden-section refinement; Monte Carlo is intentionally not
part of the objective (its noise breaks a line search) and is meant for
post-hoc validation of the chosen optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytics, montecarlo
from .analytics import PerformanceReport
from .config import LinkConfig, build_context

__all__ = ["SWEEPABLE", "SweepSpec", "SweepRow", "SweepResult", "OptimizeResult", "sweep", "optimize"]

SWEEPABLE = ("wz", "sigma_theta_e", "sigma_aoa", "theta_fov", "B_lambda")
OPTIMIZABLE = ("wz", "theta_fov")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis, an optional overlay axis, and the engine to run."""

    axis: str
    values: tuple[float, ...]
    overlay: str | None = None
    overlay_values: tuple[float, ...] = ()
    engine: str = "analytic"  # "analytic" | "monte_carlo" | "both"

    def __post_init__(self):
        if self.axis not in SWEEPABLE:
            raise ValueError(f"axis must be one of {SWEEPABLE}, got {self.axis!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.overlay is not None:
            if self.overlay not in SWEEPABLE or self.overlay == self.axis:
                raise ValueError(f"overlay must be a sweepable axis distinct from {self.axis!r}")
            if not self.overlay_values:
                raise ValueError("overlay given without overlay values")
        if self.engine not in ("analytic", "monte_carlo", "both"):
            raise ValueError(f"unknown engine {self.engine!r}")


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    overlay_value: float | None
    report: PerformanceReport


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]


def _point_config(base: LinkConfig, spec: SweepSpec, v: float, ov: float | None) -> LinkConfig:
    updates: dict[str, float] = {spec.axis: v}
    if spec.overlay is not None and ov is not None:
        updates[spec.overlay] = ov
    return replace(base, **updates)


def sweep(base: LinkConfig, spec: SweepSpec) -> SweepResult:
    """Evaluate the link at every (axis x overlay) combination, in order.

    When the engine runs the Monte Carlo, points draw per-point seeds from
    the config seed via SeedSequence spawning, so the same spec and seed
    reproduce the same SweepResult exactly; an analytic sweep spawns none.
    """
    overlays: tuple[float | None, ...] = spec.overlay_values if spec.overlay else (None,)
    points = [(v, ov) for ov in overlays for v in spec.values]
    run_mc = spec.engine in ("monte_carlo", "both")
    mc_seeds = np.random.SeedSequence(base.seed).spawn(len(points)) if run_mc else [None] * len(points)

    rows: list[SweepRow] = []
    for (v, ov), ss in zip(points, mc_seeds):
        try:
            ctx = build_context(_point_config(base, spec, v, ov))
        except ValueError as exc:
            raise ValueError(f"sweep point {spec.axis}={v}, overlay={ov}: {exc}") from exc
        if spec.engine in ("analytic", "both"):
            rows.append(SweepRow(v, ov, analytics.evaluate(ctx)))
        if run_mc:
            seed = int(ss.generate_state(1, dtype=np.uint64)[0])
            mc = montecarlo.run(ctx, base.n_slots, seed)
            rows.append(SweepRow(v, ov, mc.estimates))
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


def _eval_point(base: LinkConfig, variable: str, x: float) -> PerformanceReport:
    return analytics.evaluate(build_context(replace(base, **{variable: x})))


def optimize(
    base: LinkConfig,
    variable: str,
    qber_max: float,
    bounds: tuple[float, float],
    coarse: int = 64,
    tol: float = 1e-6,
) -> OptimizeResult:
    """Maximize analytic key rate in one variable subject to qber <= qber_max.

    Unimodality is not guaranteed a priori, so a coarse global grid seeds a
    golden-section refinement around the best feasible bracket.
    """
    if variable not in OPTIMIZABLE:
        raise ValueError(f"variable must be one of {OPTIMIZABLE}")
    if not 0.0 < qber_max < 0.5:
        raise ValueError("qber_max must be in (0, 0.5)")
    lo, hi = bounds
    if not lo < hi:
        raise ValueError("bounds must satisfy lo < hi")

    xs = np.linspace(lo, hi, coarse)
    reports = [_eval_point(base, variable, float(x)) for x in xs]
    feas = [r.qber <= qber_max for r in reports]

    if not any(feas):
        i = int(np.argmin([r.qber for r in reports]))
        return OptimizeResult(variable, float(xs[i]), reports[i], False, qber_max)

    best = max((i for i in range(coarse) if feas[i]), key=lambda i: reports[i].key_rate)
    best_x, best_r = float(xs[best]), reports[best]

    # Golden-section on the bracket around the best grid point; infeasible
    # candidates simply never displace the incumbent.
    a, b = float(xs[max(best - 1, 0)]), float(xs[min(best + 1, coarse - 1)])
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    rc, rd_ = _eval_point(base, variable, c), _eval_point(base, variable, d)
    while b - a > tol * max(abs(hi - lo), 1.0):
        fc = rc.key_rate if rc.qber <= qber_max else -math.inf
        fd = rd_.key_rate if rd_.qber <= qber_max else -math.inf
        if fc > best_r.key_rate:
            best_x, best_r = c, rc
        if fd > best_r.key_rate:
            best_x, best_r = d, rd_
        if fc >= fd:
            b, d, rd_ = d, c, rc
            c = b - _GOLDEN * (b - a)
            rc = _eval_point(base, variable, c)
        else:
            a, c, rc = c, d, rd_
            d = a + _GOLDEN * (b - a)
            rd_ = _eval_point(base, variable, d)

    return OptimizeResult(variable, best_x, best_r, True, qber_max)
