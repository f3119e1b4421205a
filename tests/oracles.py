"""Independent oracles that only the tests use.

The Gamma-Gamma CDF here checks the package's Gamma-Gamma sampler in
Kolmogorov-Smirnov tests; the package itself never needs the CDF.
"""

import numpy as np
from scipy import integrate, interpolate, special


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
