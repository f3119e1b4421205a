"""Probability models for the free-space channel.

Covers deterministic atmospheric transmittance (Beer-Lambert), turbulence
fading (Gamma-Gamma with unit mean), receiver angle-of-arrival acceptance
(narrow field of view), and background photon arrival statistics. The
Rayleigh pointing displacement, of scale sigma_rd = sigma_theta_e * Lz,
enters the analytics in closed form and the Monte Carlo as a drawn norm.
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
    if alpha_a < 0:
        raise ValueError("attenuation coefficient must be >= 0")
    if Lz <= 0:
        raise ValueError("link distance must be > 0")
    return math.exp(-alpha_a * Lz)


def gg_sample(rng: np.random.Generator, alpha: float, beta: float, size=None):
    """Draw Gamma-Gamma variates as a product of two unit-mean Gammas."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("Gamma-Gamma parameters must be > 0")
    return rng.gamma(alpha, 1.0 / alpha, size) * rng.gamma(beta, 1.0 / beta, size)


def fov_accept_prob(theta_fov: float, sigma_aoa: float) -> float:
    """P(|theta_AoA| <= theta_fov) = 1 - exp(-theta_fov^2 / (2 sigma_aoa^2))."""
    if theta_fov <= 0 or sigma_aoa <= 0:
        raise ValueError("theta_fov and sigma_aoa must be > 0")
    return -math.expm1(-(theta_fov**2) / (2.0 * sigma_aoa**2))


def fov_geometry(r_f: float, L_f: float) -> tuple[float, float]:
    """Half-angle FoV and solid angle from fiber core radius and focal length."""
    if r_f < 0 or L_f <= 0:
        raise ValueError("fov_geometry requires r_f >= 0 and L_f > 0")
    theta = math.atan2(r_f, L_f)
    return theta, solid_angle(theta)


def solid_angle(theta_fov: float) -> float:
    """Solid angle of a cone of half-angle theta_fov: 2 pi (1 - cos theta)."""
    return 2.0 * math.pi * (1.0 - math.cos(theta_fov))


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
    energy uses h, so that is the default. ``B_lambda`` and ``omega_fov``
    may be arrays of one value per point.
    """
    if min(A_r, delta_lambda_nm, T_qs) < 0 or np.less(B_lambda, 0.0).any() or np.less(omega_fov, 0.0).any() \
            or wavelength <= 0:
        raise ValueError("background_mean requires nonnegative inputs and wavelength > 0")
    if energy_convention == "planck_h":
        e_photon = PLANCK_H * SPEED_OF_LIGHT / wavelength
    elif energy_convention == "planck_hbar":
        e_photon = PLANCK_HBAR * SPEED_OF_LIGHT / wavelength
    else:
        raise ValueError(f"unknown energy convention {energy_convention!r}")
    return B_lambda * A_r * omega_fov * delta_lambda_nm * T_qs / e_photon
