"""Independent oracles that only the tests use.

The Gamma-Gamma density and CDF here check the package's Gamma-Gamma
sampler (moments and Kolmogorov-Smirnov tests); the package itself never
needs them. The nested adaptive quadrature of the turbulence-averaged
detection probability checks the package's fixed-node engine, the
long-double grid sum the package's grid kernel, and the 40-digit grid mean
the grid model's closed-form Rayleigh mean.
"""

import math

import mpmath
import numpy as np
from scipy import integrate, interpolate, special


def gg_pdf(eta, alpha: float, beta: float):
    """Gamma-Gamma fading density with unit mean.

    f(eta) = 2 (a b)^((a+b)/2) / (Gamma(a) Gamma(b))
             * eta^((a+b)/2 - 1) * K_{a-b}(2 sqrt(a b eta)).

    Symmetric under swapping (alpha, beta) since K_nu = K_{-nu}.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("Gamma-Gamma parameters must be > 0")
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(eta_arr <= 0):
        raise ValueError("gg_pdf is defined for eta > 0")
    s = 0.5 * (alpha + beta)
    pref = 2.0 * (alpha * beta) ** s / (special.gamma(alpha) * special.gamma(beta))
    out = pref * eta_arr ** (s - 1.0) * special.kv(alpha - beta, 2.0 * np.sqrt(alpha * beta * eta_arr))
    return out if out.ndim else float(out)


def gg_cdf(eta: float, alpha: float, beta: float) -> float:
    """CDF of the Gamma-Gamma distribution by conditioning on one factor.

    With eta = X * Y, X ~ Gamma(alpha, mean 1), Y ~ Gamma(beta, mean 1):
    F(eta) = E_X[ P(Y <= eta / X) ], evaluated by quadrature over X with
    the regularized lower incomplete gamma for the inner probability.
    """
    if eta <= 0:
        return 0.0

    def integrand(x):
        fx = special.gamma(alpha) ** -1 * alpha**alpha * x ** (alpha - 1.0) * np.exp(-alpha * x)
        return fx * special.gammainc(beta, beta * eta / x)

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=300, epsabs=1e-11, epsrel=1e-10)
    return float(min(max(val, 0.0), 1.0))


def gg_cdf_interpolator(alpha: float, beta: float, lo: float, hi: float, n: int = 1200):
    """Monotone interpolator of the Gamma-Gamma CDF on [lo, hi].

    Intended for KS tests on large samples where a quadrature call per
    sample point would be too slow.
    """
    grid = np.geomspace(max(lo, 1e-12), hi, n)
    cdf = np.array([gg_cdf(g, alpha, beta) for g in grid])
    cdf = np.maximum.accumulate(cdf)
    return interpolate.PchipInterpolator(grid, cdf, extrapolate=True)


def _fading_mean(s: float, alpha: float, beta: float) -> float:
    """E[1 - exp(-s eta)] for unit-mean Gamma-Gamma eta, by adaptive quadrature.

    Conditioning on the alpha factor X ~ Gamma(alpha, mean 1) leaves
    E_X[1 - (1 + s X / beta)^-beta]. On [0, 1] the density's x^(alpha - 1)
    is the quadrature weight (QUADPACK QAWS), so alpha < 1 costs no
    accuracy; [1, inf) is mapped to a finite interval (QAGI). Tolerances
    are relative only.
    """
    if s <= 0.0:
        return 0.0
    log_norm = alpha * math.log(alpha) - math.lgamma(alpha)

    def g(x):
        return -math.expm1(-beta * math.log1p(s * x / beta))

    head, _ = integrate.quad(
        lambda x: math.exp(log_norm - alpha * x) * g(x), 0.0, 1.0,
        weight="alg", wvar=(alpha - 1.0, 0.0), epsabs=0.0, epsrel=1e-12, limit=200,
    )
    tail, _ = integrate.quad(
        lambda x: math.exp(log_norm + (alpha - 1.0) * math.log(x) - alpha * x) * g(x),
        1.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200,
    )
    return head + tail


def detect_prob_averaged(ctx) -> float:
    """P_fov * E[1 - exp(-c_pt mu_p(rd) eta)] by nested adaptive quadrature.

    The outer integral runs over rd in [0, min(38 sigma_rd, ra + 9 wz)]:
    past the first bound the Rayleigh tail mass is below 1e-313, and past
    the second no capture model holds more than e^-162 of the beam. Its
    breakpoints lie at sigma_rd, 8 sigma_rd and ra and, where the grid's
    segments are wider than wz / 3, at every segment centre: there the
    grid sum ripples between centres by more than ~1e-16 of its value, and
    once the segments are wider than the beam it is a row of spikes that
    an adaptive rule can step over. The capture model is evaluated from
    its definition: the noncentral chi-square CDF (exact) or the full sum
    over the grid's segments (grid).
    """
    sigma, wz, ra = ctx.sigma_rd, ctx.wz, ctx.ra
    top = min(38.0 * sigma, ra + 9.0 * wz)
    x, c = ctx.grid.centers, ctx.grid.weights
    breaks = [sigma, 8.0 * sigma, ra]
    if ctx.mu_p_mode == "grid" and ctx.grid.dx > wz / 3.0:
        breaks += list(x[x > 0.0])
    breaks = sorted(b for b in set(breaks) if 0.0 < b < top)

    def mu_p(rd):
        if ctx.mu_p_mode == "exact":
            return float(special.chndtr((2.0 * ra / wz) ** 2, 2.0, (2.0 * rd / wz) ** 2))
        return float(c @ np.exp(-2.0 * ((x - rd) / wz) ** 2))

    def integrand(rd):
        pdf = rd / sigma**2 * math.exp(-0.5 * (rd / sigma) ** 2)
        return pdf * _fading_mean(ctx.c_pt * mu_p(rd), ctx.alpha, ctx.beta)

    val, _ = integrate.quad(
        integrand, 0.0, top, points=breaks or None,
        epsabs=0.0, epsrel=1e-12, limit=200 + 2 * len(breaks),
    )
    return -math.expm1(-0.5 * (ctx.theta_fov / ctx.sigma_aoa) ** 2) * val


def grid_sum(grid, rd) -> np.ndarray:
    """sum_i c_i exp(-2 (x_i - rd)^2 / wz^2) over every segment of a
    one-point ``grid``, from its stored ``centers`` and ``weights``, in long
    double (a 64-bit significand, 2^11 times finer than a double's), one
    displacement at a time. Where long double is only a double it fails
    rather than compare the package with itself.
    """
    assert np.finfo(np.longdouble).nmant >= 63, "the grid-sum oracle needs an 80-bit long double"
    x = grid.centers.astype(np.longdouble)
    c = grid.weights.astype(np.longdouble)
    scale = np.longdouble(-2.0) / np.longdouble(grid.wz) ** 2
    return np.array([np.sum(c * np.exp(scale * (x - r) ** 2)) for r in np.asarray(rd, dtype=np.longdouble)])


def grid_mean(grid, sigma: float):
    """sum_i c_i J(x_i), the mean of a one-point ``grid``'s sum over
    rd ~ Rayleigh(``sigma``), from its stored ``centers`` and ``weights``
    at 40 digits, in the form completing the square gives term by term:

        J(x) = e^(-2 x^2 / s2) [e^(-z^2) + sqrt(pi) z erfc(-z)] wz^2 / s2,
        s2 = wz^2 + 4 sigma^2,  z = 2 sqrt(2) sigma x / (wz sqrt(s2)).

    Returned as an mpmath number, so a mean below the smallest double keeps
    its value. numpy has no long-double erf, hence mpmath.
    """
    with mpmath.workdps(40):
        wz, sigma = mpmath.mpf(grid.wz), mpmath.mpf(sigma)
        s2 = wz**2 + 4 * sigma**2
        scale = 2 * mpmath.sqrt(2) * sigma / (wz * mpmath.sqrt(s2))
        total = mpmath.mpf(0)
        for x, c in zip(grid.centers.tolist(), grid.weights.tolist()):
            z = scale * x
            total += c * mpmath.exp(-2 * mpmath.mpf(x) ** 2 / s2) * (
                mpmath.exp(-(z**2)) + mpmath.sqrt(mpmath.pi) * z * mpmath.erfc(-z))
        return total * wz**2 / s2
