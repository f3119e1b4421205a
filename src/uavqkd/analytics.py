"""Analytic performance evaluation: detection probability, raw key rate, QBER.

The evaluation chain, conditioned on the lateral beam displacement rd:

* the per-slot mean detected photon count is
  mu_q = c_pt * mu_p(rd) * eta_turb * 1{AoA accepted}, with
  c_pt = mu_t * eta_atm * mu_d;
* unit-mean turbulence and the small-signal linearization
  1 - exp(-mu_q) ~ mu_q give the conditional detection probability
  P(n_q >= 1 | rd) = c_pt * P_fov * mu_p(rd);
* averaging over the Rayleigh-distributed rd gives the per-slot detection
  probability I, from which the three key-bit states, the raw key rate and
  the QBER follow.

That average has a closed form for both capture models: the beam profile
and the beam centre are Gaussian, so each Gaussian term of the capture
model averages over the Rayleigh rd in closed form: the grid's own mu_p(0)
plus one erf term a segment (grid), or one exp (exact). ``beam`` evaluates
both (``capture_grid_mean``, ``capture_exact_mean``), and the linearized
analytics make no quadrature call.

The linearization overestimates detection when c_pt * mu_p approaches
0.1; a LinearizationWarning is emitted in that regime, and
``detect_prob(..., turbulence="averaged")`` evaluates the exact
expectation over displacement and Gamma-Gamma fading, for error
attribution. It has no closed form but is a fixed-node product:
Gauss-Legendre panels over rd, the smaller Gamma factor in closed form and
the larger by an exp-substituted trapezoid, so no mode of the analytics
calls a quadrature routine.

A context holds one point or P points. Sweeps put P points in one
context: the per-point fields are floats or arrays of shape (P,), and the
linearized ``detect_prob`` and ``evaluate`` return arrays of shape (P,), row
k equal to the same point evaluated alone, bit for bit. The context
broadcasts its per-point fields once, into flat float columns of P entries
(of one entry for one point), and both functions compute on those columns
by the same numpy arithmetic; one point returns floats. ``_point(ctx, k)``
is point k of a context as a context of shape (), for the consumers of
one point: the Monte Carlo, the averaged engine and a sweep's Monte Carlo
points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .beam import (_CHUNK, _OVERFLOW, CaptureGrid, build_grid, capture_exact, capture_exact_mean, capture_grid,
                   capture_grid_mean)
from .channel import fov_accept_prob
from .errors import CaptureOverflowWarning, LinearizationWarning

_GL16 = np.polynomial.legendre.leggauss(16)

__all__ = ["AnalyticContext", "PerformanceReport", "detect_prob", "evaluate"]


@dataclass(frozen=True)
class AnalyticContext:
    """Immutable bundle of everything the closed-form metrics need.

    ``sigma_rd`` is the per-axis scale of the Rayleigh pointing
    displacement at the receiver (sigma_theta_e * Lz); ``theta_fov`` and
    ``sigma_aoa`` are the FoV half-angle and the per-axis angle-of-arrival
    spread.

    For P points, ``sigma_rd``, ``theta_fov``, ``sigma_aoa`` and ``mu_b`` are
    arrays of shape (P,), and so are the grid's ``wz``, ``mu_p0`` and
    ``peak`` when the points differ in wz (a grid of P rows); the other
    fields are shared. A float among arrays stands for every point.
    ``shape`` is () for one point and (P,) for P points.

    The context's ``mu_p0`` and ``peak`` columns are those of its capture
    model: the grid's, or under ``mu_p_mode="exact"`` the exact mu_p(0),
    ``capture_exact_mean`` at sigma = 0, for both.
    """

    mu_t: float
    eta_atm: float
    mu_d: float
    T_qs: float
    grid: CaptureGrid
    sigma_rd: float
    theta_fov: float
    sigma_aoa: float
    mu_b: float
    alpha: float
    beta: float
    mu_p_mode: str = "grid"  # segment-grid capture model, or "exact" for error attribution
    p_fov: float = field(init=False, compare=False)  # P(photon inside the acceptance cone), per point
    shape: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _cols: dict[str, np.ndarray] = field(init=False, compare=False, repr=False)  # per-point field -> flat column

    def __post_init__(self):
        if not 0.0 < self.mu_t:
            raise ValueError("mu_t must be > 0")
        if not 0.0 < self.eta_atm <= 1.0 or not 0.0 < self.mu_d <= 1.0:
            raise ValueError("eta_atm and mu_d must be in (0, 1]")
        if not self.T_qs > 0:
            raise ValueError("T_qs must be > 0")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be > 0")
        if self.mu_p_mode not in ("grid", "exact"):
            raise ValueError("mu_p_mode must be 'grid' or 'exact'")
        # the one broadcast of the per-point fields: a flat float column each, of one entry per point
        g = self.grid
        per_point = {"sigma_rd": self.sigma_rd, "theta_fov": self.theta_fov, "sigma_aoa": self.sigma_aoa,
                     "mu_b": self.mu_b, "wz": g.wz, "mu_p0": g.mu_p0, "peak": g.peak}
        cols = {name: np.asarray(v, dtype=float) for name, v in per_point.items()}
        if not (cols["sigma_rd"] > 0.0).all():
            raise ValueError("sigma_rd must be > 0")
        shapes = {a.shape for a in cols.values()} - {()}
        if len(shapes) > 1:
            raise ValueError(f"per-point fields of different shapes {sorted(shapes)}")
        shape = shapes.pop() if shapes else ()
        if len(shape) > 1:
            raise ValueError("per-point fields must be floats or arrays of shape (P,)")
        cols = {name: a.reshape(-1) if a.shape == shape else np.full(shape, a) for name, a in cols.items()}
        if self.mu_p_mode == "exact":
            # exact capture peaks at rd = 0 and never exceeds 1 + 1e-6
            cols["mu_p0"] = cols["peak"] = capture_exact_mean(0.0, cols["wz"], g.ra)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_cols", cols)
        # fov_accept_prob is the one check that theta_fov and sigma_aoa are > 0
        object.__setattr__(self, "p_fov", _out(self, fov_accept_prob(cols["theta_fov"], cols["sigma_aoa"])))
        if not (cols["mu_b"] >= 0.0).all():
            raise ValueError("mu_b must be >= 0")

    @property
    def c_pt(self) -> float:
        """Composite deterministic transmissivity mu_t * eta_atm * mu_d."""
        return self.mu_t * self.eta_atm * self.mu_d

    @property
    def R_q(self) -> float:
        return 1.0 / self.T_qs

    @property
    def wz(self) -> float:
        return self.grid.wz

    @property
    def ra(self) -> float:
        return self.grid.ra

    def mu_p(self, rd):
        """Capture probability at displacement(s) ``rd``, for a context of one beam radius wz."""
        return capture_exact(rd, self.wz, self.ra) if self.mu_p_mode == "exact" else capture_grid(self.grid, rd)


@dataclass(frozen=True)
class PerformanceReport:
    """Point evaluation of the link: probabilities, key rate, QBER.

    ``se`` (binomial standard errors) is populated for Monte Carlo
    estimates only. ``qber`` is NaN when no key bits are accepted. The
    evaluation of a context of P points holds arrays of shape (P,).
    """

    p_detect: float
    p_s1: float
    p_s2: float
    p_s3: float
    p_eff_one: float
    key_rate: float
    qber: float
    method: str  # "analytic" | "monte_carlo"
    se: dict[str, float] | None = None


def _out(ctx: AnalyticContext, values: np.ndarray):
    """Flat per-point ``values`` as ``ctx`` holds points: a float for one point."""
    return values if ctx.shape else float(values[0])


def _point(ctx: AnalyticContext, k: int = 0, error: str | None = None) -> AnalyticContext:
    """Point k of ``ctx`` as a context of shape (): each per-point field its
    entry k as a float, and the grid of its one radius from ``build_grid``,
    so it gives the values of the point's own context bit for bit. A
    context of shape () is returned as it is. With ``error``, ``ctx`` must
    hold one point, and more raise ValueError(``error``)."""
    if not ctx.shape:
        return ctx
    if error is not None and ctx.shape != (1,):
        raise ValueError(error)
    g, cols = ctx.grid, ctx._cols
    grid = g if np.ndim(g.wz) == 0 else build_grid(g.ra, cols["wz"][k].item(), g.ng)
    return replace(ctx, grid=grid, **{f: cols[f][k].item() for f in ("sigma_rd", "theta_fov", "sigma_aoa", "mu_b")})


def _span(values: list[float], spec: str) -> str:
    """The range of ``values`` in format ``spec``: one figure where both ends print alike."""
    lo, hi = format(min(values), spec), format(max(values), spec)
    return lo if lo == hi else f"{lo} to {hi}"


def _fading_mean(b: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """E[1 - exp(-b eta)] for unit-mean Gamma-Gamma eta, elementwise in b >= 0.

    eta = X Y with X, Y unit-mean Gamma of shapes a = max(alpha, beta) and
    c = min(alpha, beta). Y is averaged in closed form, E[exp(-t Y)] =
    (1 + t / c)^-c; X = u / a, with u ~ Gamma(a, 1), by the trapezoid rule
    in v = log u (step 0.1), which converges exponentially where
    generalized Gauss-Laguerre is 6% off at alpha = beta = 0.2
    (Al-Habash, Andrews & Phillips, Opt. Eng. 40(8), 2001). Below the v
    range the integrand is under b e^((a + 1) v) <= b e^-45, above it
    under e^-60; expm1/log1p keep the result relative-accurate for a
    vanishing b. Below b = 1e-280 the result is b itself, exact in double
    (the next term, b^2 E[eta^2] / 2, is at most 18 b relative), and no
    b u is subnormal.
    """
    a, c = max(alpha, beta), min(alpha, beta)
    v = np.arange(-45.0 / (a + 1.0), math.log(a + 12.0 * math.sqrt(a) + 60.0), 0.1)
    u = np.exp(v)
    w = 0.1 * np.exp(a * v - u - math.lgamma(a))
    u /= a * c
    out = b.copy()  # b below 1e-280, 0 included: no row to build
    pos = np.flatnonzero(b >= 1e-280)
    step = max(1, _CHUNK // u.size)
    for i in range(0, pos.size, step):
        rows = pos[i : i + step]
        y = b[rows, None] * u
        np.log1p(y, out=y)
        y *= -c
        np.expm1(y, out=y)
        out[rows] = -(y @ w)
    return out


def _rayleigh_nodes(sigma: float, top: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r and weights w with sum(w f(r)) = E[f(rd); rd < top], rd ~ Rayleigh(sigma).

    Composite 16-point Gauss-Legendre panels no wider than ``width``, as
    few as cover [0, top]; the weights carry the Rayleigh pdf. The caller
    sizes ``width`` to f: ``detect_prob`` passes min(sigma, wz), or twice
    that where its integrand allows (see there).
    """
    panels = math.ceil(top / width)
    half = 0.5 * top / panels
    x, wgl = _GL16
    r = ((2.0 * np.arange(panels) + 1.0)[:, None] + x).ravel() * half
    w = np.tile(wgl * half, panels) * (r / sigma**2) * np.exp(-0.5 * (r / sigma) ** 2)
    return r, w


def detect_prob(ctx: AnalyticContext, *, turbulence: str = "linearized"):
    """Per-slot detection probability, averaged over the Rayleigh displacement.

    ``turbulence="linearized"`` is the paper's model (unit-mean turbulence
    dropped via 1 - e^-x ~ x), I = c_pt * P_fov * E[mu_p(rd)], with the
    Rayleigh mean of the context's capture model in closed form
    (``capture_grid_mean`` or ``capture_exact_mean``).

    ``turbulence="averaged"`` keeps the exact expectation over the fading
    distribution, P_fov * E[1 - exp(-c_pt mu_p(rd) eta)], for error
    attribution. It is one fixed-node product: ``ctx.mu_p`` on Rayleigh
    nodes in panels no wider than min(sigma_rd, wz), then the Gamma-Gamma
    average of ``_fading_mean`` on those capture values. The panels are
    twice that wide, half the nodes, where the capture model is smooth on
    the scale of wz (exact capture, or a grid with 3 dx <= wz) and the
    signal is small (c_pt mu_p(0) <= 0.1). Neither mode makes a quadrature
    call.

    The linearized mode takes a context of P points and returns an array
    of P probabilities; the averaged mode takes one point, a context of
    shape () or (1,), and returns a float. A call issues at
    most one CaptureOverflowWarning and one LinearizationWarning, each
    naming how many of the P points cross its limit and their range.
    """
    if turbulence not in ("linearized", "averaged"):
        raise ValueError("turbulence must be 'linearized' or 'averaged'")
    if turbulence == "averaged":
        ctx = _point(ctx, error="the averaged expectation takes a context of one point")
        sigma, dx, grid = ctx.sigma_rd, ctx.grid.dx, ctx.mu_p_mode == "grid"
        # segments wider than the beam: the grid sum is a row of spikes peaking
        # at the segment centres, so it rises with rd towards each of them
        spikes = grid and dx > ctx.wz
        # Panels twice as wide where mu_p is smooth on the scale of wz (exact
        # capture, or segments no wider than wz / 3: wider ones ripple the grid
        # sum between their centres) and the fading mean nearly linear in it
        # (c_pt mu_p(0) <= 0.1, the linearization's own limit): GL-16 on the beam
        # Gaussian over a 2 wz panel is off by 6e-16. The fading mean's branch
        # cut at negative c_pt mu_p nears the rd axis as c_pt mu_p(0) grows, and
        # at c_pt mu_p(0) ~ 0.4 such panels miss by up to 4.6e-11.
        wide = (not grid or 3.0 * dx <= ctx.wz) and ctx.c_pt * ctx._cols["mu_p0"][0] <= 0.1
        # Past ra + 9 wz no capture model holds more than e^-162 of the beam.
        # Past 8 sigma_rd lies e^-32 of the Rayleigh mass, under 4e-14 of the
        # result wherever mu_p falls with rd; with spikes the nodes reach
        # 38 sigma_rd, past which that mass is below 1e-313.
        top = min((38.0 if spikes else 8.0) * sigma, ctx.ra + 9.0 * ctx.wz)
        r, w = _rayleigh_nodes(sigma, top, (2.0 if wide else 1.0) * min(sigma, ctx.wz))
        if spikes:
            # past 19 wz from every segment centre each term's exp argument is
            # below -722, so the grid sum is exactly 0 (see _grid_sum): no node there
            x = ctx.grid.centers
            j = np.clip(np.searchsorted(x, r), 1, x.size - 1)
            near = np.minimum(np.abs(r - x[j - 1]), np.abs(x[j] - r)) <= 19.0 * ctx.wz
            r, w = r[near], w[near]
        b = ctx.c_pt * ctx.mu_p(r)
        return ctx.p_fov * float(w @ _fading_mean(b, ctx.alpha, ctx.beta))

    cols = ctx._cols
    sigma, wz, mu_p0, peak = cols["sigma_rd"], cols["wz"], cols["mu_p0"], cols["peak"]
    mean_mu_p = (capture_exact_mean(sigma, wz, ctx.ra) if ctx.mu_p_mode == "exact"
                 else capture_grid_mean(ctx.grid, sigma))
    n, over = sigma.size, [v - 1.0 for v in peak.tolist() if v > _OVERFLOW]
    lin = [v for v in (ctx.c_pt * mu_p0).tolist() if v > 0.1]
    if over:
        warnings.warn(f"grid capture probability exceeded 1 by {_span(over, '.2e')} at {len(over)} of {n} points",
                      CaptureOverflowWarning, stacklevel=2)
    if lin:
        warnings.warn(f"c_pt * mu_p(0) = {_span(lin, '.3f')} > 0.1 at {len(lin)} of {n} points: the small-signal "
                      "linearization behind the analytic detection probability overstates it there (by +12.3% at "
                      "c_pt * mu_p(0) = 0.119, the reference link)", LinearizationWarning, stacklevel=2)
    return _out(ctx, ctx.c_pt * ctx.p_fov * mean_mu_p)


def evaluate(ctx: AnalyticContext) -> PerformanceReport:
    """Full analytic point evaluation: the detection probability I, then the
    key-bit states, raw key rate and QBER that follow from it.

    State 1: signal only; State 2: single background photon only (the sole
    error source); State 3: signal plus one background photon landing on
    the other detector (probability 1/2). Their sum is P(exactly one
    effective detection), the raw-key acceptance probability; the QBER is
    half the State-2 share of accepted bits (NaN when none are accepted).
    A context of P points gives a report of arrays of shape (P,).
    """
    i, mu_b = np.reshape(detect_prob(ctx), -1), ctx._cols["mu_b"]
    eb = np.exp(-mu_b)
    s1, s2, s3 = eb * i, mu_b * eb * (1.0 - i), 0.5 * mu_b * eb * i
    peff = s1 + s2 + s3
    qber = np.full(peff.shape, math.nan)
    np.divide(0.5 * s2, peff, out=qber, where=peff > 0)
    return PerformanceReport(
        p_detect=_out(ctx, i),
        p_s1=_out(ctx, s1),
        p_s2=_out(ctx, s2),
        p_s3=_out(ctx, s3),
        p_eff_one=_out(ctx, peff),
        key_rate=_out(ctx, peff / ctx.T_qs),
        qber=_out(ctx, qber),
        method="analytic",
    )
