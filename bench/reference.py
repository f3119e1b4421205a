"""Reference model that every benchmark workload checks uavqkd's outputs against.

It is written from the physics, not from the package's code paths:

* capture probability of an offset Gaussian beam by a circular aperture in
  closed form, ``1 - Q1(2 rd / wz, 2 ra / wz)``, which is the noncentral
  chi-square CDF ``chndtr((2 ra / wz)^2, 2, (2 rd / wz)^2)`` (Marcum Q; Farid
  and Hranilovic, JLT 25(7), 2007);
* the N_g-segment grid sum, from the formula in the docstring of
  ``uavqkd.beam`` (the model the paper's analytics use);
* the exact expectation of ``1 - exp(-b eta)`` over unit-mean Gamma-Gamma
  fading eta = X Y (Al-Habash, Andrews and Phillips, Opt. Eng. 40(8), 2001).
  The smaller-shape factor is averaged in closed form,
  ``E_Y[exp(-t Y)] = (1 + t / beta)^-beta``; the other factor carries the
  Gauss-Laguerre weight ``u^(a-1) e^-u`` and is integrated by the trapezoid
  rule after ``u = e^v``, which converges exponentially even at
  alpha = beta = 0.2 where fixed-order generalized Gauss-Laguerre is off
  by percents;
* the average over the Rayleigh displacement norm by dense composite
  Gauss-Legendre quadrature, i.e. a fixed quadrature over the Rayleigh CDF
  with dq = pdf(r) dr, with panels no wider than half the smaller of the
  beam radius and the jitter.

Link parameters are plain dicts in SI units, the same values the benchmark
wrote into the configs it hands to uavqkd.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

PLANCK_H = 6.62607015e-34
SPEED_OF_LIGHT = 299792458.0

# A p_detect misses the reference when it is off by more than
# max(RTOL * |reference|, quad_tol), the accuracy the package asks of its
# quadrature; values derived from it must follow from the reported p_detect
# to DERIVED_RTOL. Capture values use CAPTURE_ATOL, the accuracy the package
# documents for its exact capture evaluators.
RTOL = 1e-6
QUAD_TOL = 1e-10
DERIVED_RTOL = 1e-9
CAPTURE_ATOL = 1e-8
MC_P_MIN = 5.733e-7  # two-sided tail of a 5-sigma normal deviation

_CHUNK = 1 << 18  # elements per temporary, so the reference never sets peak RSS
_GL16 = np.polynomial.legendre.leggauss(16)


def capture(rd, wz: float, ra: float) -> np.ndarray:
    """Exact capture probability mu_p(rd) (Marcum-Q closed form)."""
    rd = np.asarray(rd, dtype=float)
    return special.chndtr((2.0 * ra / wz) ** 2, 2.0, (2.0 * rd / wz) ** 2)


def grid_capture(rd, wz: float, ra: float, ng: int) -> np.ndarray:
    """Grid capture model sum_i c_i exp(-2 (x_i - rd)^2 / wz^2).

    Only segments within 9 wz of rd contribute more than exp(-162), so each
    displacement sums over a window of segments, in chunks.
    """
    rd = np.atleast_1d(np.asarray(rd, dtype=float))
    dx = 2.0 * ra / ng
    x = -ra + dx * (np.arange(ng) + 0.5)
    c = (2.0 * dx / (math.sqrt(2.0 * math.pi) * wz)) * special.erf(
        math.sqrt(2.0) / wz * np.sqrt(np.maximum(ra * ra - x * x, 0.0))
    )
    k = min(ng, int(math.ceil(18.0 * wz / dx)) + 2)
    out = np.empty_like(rd)
    step = max(1, _CHUNK // k)
    for i in range(0, rd.size, step):
        r = rd[i : i + step]
        lo = np.clip(np.searchsorted(x, r - 9.0 * wz), 0, ng - k)
        idx = lo[:, None] + np.arange(k)
        out[i : i + step] = np.sum(c[idx] * np.exp(-2.0 * (x[idx] - r[:, None]) ** 2 / (wz * wz)), axis=1)
    return out


def rayleigh_nodes(sigma: float, wz: float, ra: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r and weights w with sum(w f(r)) = E[f(r_d)], r_d ~ Rayleigh(sigma).

    Integrates up to 8 sigma (as the package does) or to ra + 9 wz, past
    which no capture model holds more than exp(-162) of the beam.
    """
    top = min(8.0 * sigma, ra + 9.0 * wz)
    panels = max(4, int(math.ceil(top / (0.5 * min(sigma, wz)))))
    x, w = _GL16
    edges = np.linspace(0.0, top, panels + 1)
    half = 0.5 * np.diff(edges)
    r = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
    wr = (half[:, None] * w).ravel()
    return r, wr * (r / sigma**2) * np.exp(-(r * r) / (2.0 * sigma**2))


def turbulence_mean(b, alpha: float, beta: float) -> np.ndarray:
    """E[1 - exp(-b eta)] for unit-mean Gamma-Gamma eta, elementwise in b."""
    a, c = max(alpha, beta), min(alpha, beta)
    h = 0.1
    v = np.arange(-45.0 / (a + 1.0), math.log(a + 12.0 * math.sqrt(a) + 60.0), h)
    u = np.exp(v)
    w = h * np.exp(a * v - u - special.gammaln(a))
    b = np.asarray(b, dtype=float)
    out = np.empty(b.shape)
    flat, res = b.ravel(), out.reshape(-1)
    step = max(1, _CHUNK // u.size)
    for i in range(0, flat.size, step):
        y = flat[i : i + step, None] * (u / (a * c))
        res[i : i + step] = -np.expm1(-c * np.log1p(y)) @ w
    return out


def link(params: dict) -> dict:
    """Derived link quantities from SI parameters (mirrors the config keys)."""
    theta = params.get("theta_fov")
    if theta is None:
        theta = math.atan2(params["r_f"], params["L_f"])
    omega = 2.0 * math.pi * (1.0 - math.cos(theta))
    e_photon = PLANCK_H * SPEED_OF_LIGHT / params["wavelength"]
    mu_b = (
        params["B_lambda"] * math.pi * params["ra"] ** 2 * omega
        * params["delta_lambda"] * params["T_qs"] / e_photon
    )
    return {
        "c_pt": params["mu_t"] * params["eta_atm"] * params["mu_d"],
        "accept": -math.expm1(-(theta**2) / (2.0 * params["sigma_aoa"] ** 2)),
        "sigma_rd": params["sigma_theta_e"] * params["Lz"],
        "mu_b": mu_b,
    }


def detect_prob(params: dict, capture_model: str = "grid", turbulence: str = "linearized") -> float:
    """Per-slot detection probability of the model the package states.

    ``capture_model`` is "grid" (the paper's N_g-segment model) or "exact";
    ``turbulence`` is "linearized" (1 - e^-x ~ x, the paper's closed form)
    or "averaged" (the exact Gamma-Gamma expectation).
    """
    d = link(params)
    wz, ra = params["wz"], params["ra"]
    r, w = rayleigh_nodes(d["sigma_rd"], wz, ra)
    mu = grid_capture(r, wz, ra, params["Ng"]) if capture_model == "grid" else capture(r, wz, ra)
    b = d["c_pt"] * mu
    if turbulence == "averaged":
        b = turbulence_mean(b, params["alpha"], params["beta"])
    return d["accept"] * float(w @ b)


def report(params: dict, p_detect: float) -> dict:
    """Key-bit state probabilities, key rate and QBER given p_detect."""
    mu_b = link(params)["mu_b"]
    eb = math.exp(-mu_b)
    s1, s2, s3 = eb * p_detect, mu_b * eb * (1.0 - p_detect), 0.5 * mu_b * eb * p_detect
    peff = s1 + s2 + s3
    return {
        "p_detect": p_detect,
        "p_s1": s1,
        "p_s2": s2,
        "p_s3": s3,
        "p_eff_one": peff,
        "key_rate": peff / params["T_qs"],
        "qber": 0.5 * s2 / peff if peff > 0 else math.nan,
    }


def misses(got: float, want: float, rtol: float = RTOL, atol: float = QUAD_TOL) -> bool:
    """True when ``got`` is off the reference ``want`` (NaN only matches NaN)."""
    if math.isnan(want) or math.isnan(got):
        return not (math.isnan(want) and math.isnan(got))
    return abs(got - want) > max(rtol * abs(want), atol)


def report_misses(got: dict, params: dict, want_p_detect: float) -> list[str]:
    """Fields of a report that miss the reference or break its identities.

    ``got`` maps the PerformanceReport field names (key_rate in bit/s) to
    values. p_detect is checked against ``want_p_detect``; the other fields
    against the reference formulas applied to the reported p_detect.
    """
    bad = ["p_detect"] if misses(got["p_detect"], want_p_detect) else []
    want = report(params, got["p_detect"])
    bad += [k for k in want if k != "p_detect" and misses(got[k], want[k], DERIVED_RTOL, 0.0)]
    if misses(got["p_s1"] + got["p_s2"] + got["p_s3"], got["p_eff_one"], 1e-12, 0.0):
        bad.append("identity:p_s1+p_s2+p_s3=p_eff_one")
    if misses(got["key_rate"], got["p_eff_one"] / params["T_qs"], 1e-12, 0.0):
        bad.append("identity:key_rate=p_eff_one/T_qs")
    return bad


def mc_z(p_hat: float, n: int, p_ref: float) -> float:
    """z-score of a Monte Carlo frequency against the model probability."""
    se = math.sqrt(max(p_ref * (1.0 - p_ref), 1e-300) / n)
    return (p_hat - p_ref) / se


def mc_misses(k: int, n: int, p_ref: float) -> bool:
    """True when k successes in n slots are implausible under Binomial(n,
    p_ref): exact two-sided tail below MC_P_MIN. Exact, because the normal
    z-score misleads when the expected count is below one."""
    below = special.bdtr(k, n, p_ref)
    above = special.bdtrc(k - 1, n, p_ref) if k > 0 else 1.0
    return 2.0 * min(below, above, 0.5) < MC_P_MIN
