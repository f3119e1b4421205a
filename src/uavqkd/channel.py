"""Probability models for the free-space channel.

Covers deterministic atmospheric transmittance (Beer-Lambert), turbulence
fading (Gamma-Gamma with unit mean), receiver angle-of-arrival acceptance
(narrow field of view), and background photon arrival statistics. The
Rayleigh pointing displacement, of scale sigma_rd = sigma_theta_e * Lz,
enters the analytics in closed form and the Monte Carlo as a drawn norm.
``fov_accept_prob``, ``solid_angle`` and ``background_mean`` take floats
or arrays of one value per point, by one numpy arithmetic, and give floats
for floats. Domain checks are negated positive tests, so NaN raises.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PLANCK_H",
    "PLANCK_HBAR",
    "SPEED_OF_LIGHT",
    "atm_transmittance",
    "gg_sample",
    "fov_accept_prob",
    "fov_geometry",
    "solid_angle",
    "background_mean",
]

PLANCK_H = 6.62607015e-34  # J s
PLANCK_HBAR = PLANCK_H / (2.0 * math.pi)
SPEED_OF_LIGHT = 299792458.0  # m/s


def atm_transmittance(alpha_a: float, Lz: float) -> float:
    """Beer-Lambert transmittance exp(-alpha_a * Lz)."""
    if not alpha_a >= 0:
        raise ValueError("attenuation coefficient must be >= 0")
    if not Lz > 0:
        raise ValueError("link distance must be > 0")
    return math.exp(-alpha_a * Lz)


def gg_sample(rng: np.random.Generator, alpha: float, beta: float, size=None):
    """Draw Gamma-Gamma variates as a product of two unit-mean Gammas."""
    if not (alpha > 0 and beta > 0):
        raise ValueError("Gamma-Gamma parameters must be > 0")
    return rng.gamma(alpha, 1.0 / alpha, size) * rng.gamma(beta, 1.0 / beta, size)


def fov_accept_prob(theta_fov, sigma_aoa):
    """P(|theta_AoA| <= theta_fov) = 1 - exp(-theta_fov^2 / (2 sigma_aoa^2))."""
    theta, sigma = np.asarray(theta_fov, dtype=float), np.asarray(sigma_aoa, dtype=float)
    if not ((theta > 0.0).all() and (sigma > 0.0).all()):
        raise ValueError("theta_fov and sigma_aoa must be > 0")
    p = -np.expm1(-(theta**2) / (2.0 * sigma**2))
    return p if p.ndim else float(p)


def fov_geometry(r_f: float, L_f: float) -> float:
    """Half-angle FoV atan(r_f / L_f) from fiber core radius and focal length."""
    if not (r_f >= 0 and L_f > 0):
        raise ValueError("fov_geometry requires r_f >= 0 and L_f > 0")
    return math.atan2(r_f, L_f)


def solid_angle(theta_fov):
    """Solid angle of a cone of half-angle theta_fov >= 0: 2 pi (1 - cos theta)."""
    theta = np.asarray(theta_fov, dtype=float)
    if not (theta >= 0.0).all():
        raise ValueError("solid_angle requires theta_fov >= 0")
    omega = 2.0 * math.pi * (1.0 - np.cos(theta))
    return omega if omega.ndim else float(omega)


def background_mean(
    B_lambda: float,
    A_r: float,
    omega_fov: float,
    delta_lambda_nm: float,
    T_qs: float,
    wavelength: float,
    energy_convention: str = "planck_h",
) -> float:
    """Mean background photons per quantum slot.

    mu_b = B_lambda A_r Omega_fov Delta_lambda T_qs / E_photon, with
    E_photon = h c / lambda by default. The ``planck_hbar`` mode uses
    hbar c / lambda instead (exactly 2 pi times more photons), matching a
    printed form of the source expression; the physically standard photon
    energy uses h, so that is the default.
    """
    if not (A_r >= 0 and delta_lambda_nm >= 0 and T_qs >= 0 and wavelength > 0
            and np.greater_equal(B_lambda, 0.0).all() and np.greater_equal(omega_fov, 0.0).all()):
        raise ValueError("background_mean requires nonnegative inputs and wavelength > 0")
    if energy_convention == "planck_h":
        e_photon = PLANCK_H * SPEED_OF_LIGHT / wavelength
    elif energy_convention == "planck_hbar":
        e_photon = PLANCK_HBAR * SPEED_OF_LIGHT / wavelength
    else:
        raise ValueError(f"unknown energy convention {energy_convention!r}")
    return B_lambda * A_r * omega_fov * delta_lambda_nm * T_qs / e_photon
