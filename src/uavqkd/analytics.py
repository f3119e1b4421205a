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
model averages over the Rayleigh rd in erfc (grid) or in exp (exact), and
the linearized analytics make no quadrature call.

The linearization overestimates detection when c_pt * mu_p approaches
0.1; a LinearizationWarning is emitted in that regime, and
``detect_prob(..., turbulence="averaged")`` evaluates the exact turbulence
expectation by quadrature, for error attribution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate, special

from .beam import CaptureGrid, capture_exact, capture_grid
from .channel import FovModel, PointingModel, gg_pdf
from .errors import LinearizationWarning

__all__ = [
    "AnalyticContext",
    "PerformanceReport",
    "mu_q_conditional_pdf",
    "detect_prob_given_rd",
    "detect_prob",
    "state_probs",
    "p_eff_one",
    "key_rate",
    "qber",
    "evaluate",
]


@dataclass(frozen=True)
class AnalyticContext:
    """Immutable bundle of everything the closed-form metrics need."""

    mu_t: float
    eta_atm: float
    mu_d: float
    T_qs: float
    grid: CaptureGrid
    pointing: PointingModel
    fov: FovModel
    mu_b: float
    alpha: float
    beta: float
    quad_tol: float = 1e-10
    mu_p_mode: str = "grid"  # segment-grid capture model, or "exact" for error attribution

    def __post_init__(self):
        if not 0.0 < self.mu_t:
            raise ValueError("mu_t must be > 0")
        if not 0.0 < self.eta_atm <= 1.0 or not 0.0 < self.mu_d <= 1.0:
            raise ValueError("eta_atm and mu_d must be in (0, 1]")
        if self.T_qs <= 0:
            raise ValueError("T_qs must be > 0")
        if self.mu_b < 0:
            raise ValueError("mu_b must be >= 0")
        if self.mu_p_mode not in ("grid", "exact"):
            raise ValueError("mu_p_mode must be 'grid' or 'exact'")

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

    @property
    def fov_escape(self) -> float:
        """Probability the photon misses the acceptance cone."""
        return math.exp(-(self.fov.theta_fov**2) / (2.0 * self.fov.sigma_aoa**2))

    def mu_p(self, rd):
        if self.mu_p_mode == "exact":
            return capture_exact(rd, self.wz, self.ra)
        return capture_grid(self.grid, rd)


@dataclass(frozen=True)
class PerformanceReport:
    """Point evaluation of the link: probabilities, key rate, QBER.

    ``se`` and ``ci_halfwidth`` (95%) are populated for Monte Carlo
    estimates only. ``qber`` is NaN for a Monte Carlo run that produced no
    key bits.
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

    @property
    def ci_halfwidth(self) -> dict[str, float] | None:
        if self.se is None:
            return None
        return {k: 1.96 * v for k, v in self.se.items()}


def mu_q_conditional_pdf(u: float, rd: float, ctx: AnalyticContext) -> tuple[float, float]:
    """Conditional law of the mean detected photon count given rd.

    Returns ``(point_mass_at_zero, density_at_u)``: a point mass
    exp(-theta_fov^2 / (2 sigma_aoa^2)) for the photon rejected by the
    acceptance cone, plus the Gamma-Gamma density scaled by
    c_pt * mu_p(rd) on u > 0. If mu_p(rd) vanishes, all mass sits at zero.
    """
    if u < 0:
        raise ValueError("u must be >= 0")
    pm = ctx.fov_escape
    scale = ctx.c_pt * ctx.mu_p(rd)
    if scale <= 0.0:
        return 1.0, 0.0
    if u == 0.0:
        return pm, 0.0
    dens = (1.0 - pm) * gg_pdf(u / scale, ctx.alpha, ctx.beta) / scale
    return pm, float(dens)


def detect_prob_given_rd(rd, ctx: AnalyticContext):
    """P(n_q >= 1 | rd) = c_pt * P_fov * mu_p(rd)."""
    return ctx.c_pt * ctx.fov.accept_prob * ctx.mu_p(rd)


def _turb_mean(s: float, alpha: float, beta: float) -> float:
    """E[1 - exp(-s eta)] for unit-mean Gamma-Gamma eta.

    Conditioning on the alpha factor X ~ Gamma(alpha, mean 1) reduces the
    inner expectation to 1 - (1 + s X / beta)^(-beta), leaving one
    quadrature; expm1/log1p keep it accurate for a vanishing s.
    """
    if s <= 0.0:
        return 0.0
    log_norm = alpha * math.log(alpha) - math.lgamma(alpha)

    def integrand(x):
        fx = math.exp(log_norm + (alpha - 1.0) * math.log(x) - alpha * x)
        return fx * -math.expm1(-beta * math.log1p(s * x / beta))

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=200, epsabs=0.0, epsrel=1e-10)
    return val


def _rayleigh_average_grid(ctx: AnalyticContext) -> float:
    """sum_i c_i E[exp(-2 (x_i - rd)^2 / wz^2)] over rd ~ Rayleigh(sigma)."""
    grid = ctx.grid
    sigma, wz = ctx.pointing.sigma_rd, grid.wz
    s2 = wz * wz + 4.0 * sigma * sigma
    x = grid.centers_array()
    z = (2.0 * math.sqrt(2.0) * sigma / (wz * math.sqrt(s2))) * x
    j = np.exp(-2.0 * x * x / s2) * (np.exp(-z * z) + math.sqrt(math.pi) * z * special.erfc(-z))
    return float(grid.weights_array() @ j) * (wz * wz / s2)


def detect_prob(
    ctx: AnalyticContext,
    with_error: bool = False,
    turbulence: str = "linearized",
):
    """Per-slot detection probability, averaged over the Rayleigh displacement.

    ``turbulence="linearized"`` is the paper's model (unit-mean turbulence
    dropped via 1 - e^-x ~ x), I = c_pt * P_fov * E[mu_p(rd)], in closed
    form. With s2 = wz^2 + 4 sigma_rd^2, completing the square in the
    Rayleigh integral of each Gaussian term exp(-2 (x - rd)^2 / wz^2) gives

        J(x) = e^(-2 x^2 / s2) [e^(-z^2) + sqrt(pi) z erfc(-z)] wz^2 / s2,
        z = 2 sqrt(2) sigma_rd x / (wz sqrt(s2)),

    so the grid model is I = c_pt * P_fov * sum_i c_i J(x_i), and exact
    capture (the beam lands on a centred Gaussian of variance s2 / 4 per
    axis) is I = c_pt * P_fov * (1 - exp(-2 ra^2 / s2)). These make no
    quadrature call; ``with_error=True`` returns ``(I, 0.0)``, as a closed
    form has no quadrature error.

    ``turbulence="averaged"`` keeps the exact expectation over the fading
    distribution, for error attribution only. It integrates over the
    Rayleigh CDF (q = F(rd)) by adaptive quadrature to absolute tolerance
    ``ctx.quad_tol``, up to rd = min(8 sigma_rd, ra + 9 wz): the first
    bound discards < 2e-14 of the Rayleigh mass, and past the second no
    capture model holds more than e^-162 of the beam.
    """
    if turbulence not in ("linearized", "averaged"):
        raise ValueError("turbulence must be 'linearized' or 'averaged'")
    sigma = ctx.pointing.sigma_rd
    probe = np.zeros(1)
    if ctx.mu_p_mode == "grid" and ctx.grid.dx > ctx.wz:
        # segments wider than the beam: the grid sum peaks near the segment
        # centres, where capture_grid warns if it exceeds 1
        x = ctx.grid.centers_array()
        probe = np.concatenate((probe, x[x > 0.0]))
    mu_p0 = float(ctx.mu_p(probe)[0])
    if ctx.c_pt * mu_p0 > 0.1:
        warnings.warn(
            f"c_pt * mu_p(0) = {ctx.c_pt * mu_p0:.3f} > 0.1: the small-signal "
            "linearization behind the analytic detection probability overstates "
            "it here (by 10.8% at c_pt * mu_p(0) = 0.119, the reference link)",
            LinearizationWarning,
            stacklevel=2,
        )
    p_fov = ctx.fov.accept_prob
    if turbulence == "linearized":
        if ctx.mu_p_mode == "exact":
            mean_mu_p = -math.expm1(-2.0 * ctx.ra**2 / (ctx.wz**2 + 4.0 * sigma**2))
        else:
            mean_mu_p = _rayleigh_average_grid(ctx)
        val = ctx.c_pt * p_fov * mean_mu_p
        return (val, 0.0) if with_error else val

    top = min(8.0 * sigma, ctx.ra + 9.0 * ctx.wz)
    q_hi = -math.expm1(-0.5 * (top / sigma) ** 2)  # Rayleigh CDF at rd = top

    def integrand(q):
        rd = sigma * math.sqrt(-2.0 * math.log1p(-q))
        return p_fov * _turb_mean(ctx.c_pt * float(ctx.mu_p(rd)), ctx.alpha, ctx.beta)

    val, err = integrate.quad(integrand, 0.0, q_hi, epsabs=ctx.quad_tol, epsrel=1e-10, limit=200)
    return (float(val), float(err)) if with_error else float(val)


def _metrics(i: float, ctx: AnalyticContext) -> PerformanceReport:
    """Key-bit states, raw key rate and QBER from the detection probability I.

    State 1: signal only; State 2: single background photon only (the sole
    error source); State 3: signal plus one background photon landing on
    the other detector (probability 1/2). Their sum is P(exactly one
    effective detection), the raw-key acceptance probability; the QBER is
    half the State-2 share of accepted bits (NaN when none are accepted).
    """
    eb = math.exp(-ctx.mu_b)
    s1, s2, s3 = eb * i, ctx.mu_b * eb * (1.0 - i), 0.5 * ctx.mu_b * eb * i
    peff = s1 + s2 + s3
    return PerformanceReport(
        p_detect=i,
        p_s1=s1,
        p_s2=s2,
        p_s3=s3,
        p_eff_one=peff,
        key_rate=peff / ctx.T_qs,
        qber=(0.5 * s2 / peff) if peff > 0 else float("nan"),
        method="analytic",
    )


def state_probs(ctx: AnalyticContext) -> tuple[float, float, float]:
    """Probabilities of the three disjoint single-bit states (see ``_metrics``)."""
    r = evaluate(ctx)
    return r.p_s1, r.p_s2, r.p_s3


def p_eff_one(ctx: AnalyticContext) -> float:
    """P(exactly one effective detection), the raw-key acceptance probability."""
    return evaluate(ctx).p_eff_one


def key_rate(ctx: AnalyticContext) -> float:
    """Average raw key generation rate R_q * P(n_eff = 1) in bits/s."""
    return evaluate(ctx).key_rate


def qber(ctx: AnalyticContext) -> float:
    """Average QBER: half the State-2 share of accepted bits."""
    r = evaluate(ctx)
    if not r.p_eff_one > 0.0:
        raise ValueError("no key is generated (P(n_eff = 1) = 0); QBER undefined")
    return r.qber


def evaluate(ctx: AnalyticContext) -> PerformanceReport:
    """Full analytic point evaluation as a PerformanceReport."""
    return _metrics(detect_prob(ctx), ctx)


def with_frozen_mu_b(ctx: AnalyticContext, mu_b: float) -> AnalyticContext:
    """Copy of the context with mu_b pinned, decoupling it from FoV geometry."""
    return replace(ctx, mu_b=mu_b)
