import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import uavqkd
from conftest import make_context
from oracles import gg_cdf, gg_cdf_interpolator, gg_pdf
from uavqkd.beam import beam_radius, capture_classical
from uavqkd.channel import (
    PLANCK_H,
    SPEED_OF_LIGHT,
    atm_transmittance,
    background_mean,
    fov_accept_prob,
    fov_geometry,
    gg_sample,
    solid_angle,
)
from uavqkd.config import _FIELDS, LinkConfig, build_context, validate
from uavqkd.errors import ConfigError

ALPHA, BETA = 2.1, 1.8


class TestAtmTransmittance:
    def test_lossless_limit(self):
        assert atm_transmittance(0.0, 1234.5) == 1.0

    def test_reference_transmittance(self):
        # exponent solved so that exp(-alpha_a * Lz) lands on 0.4
        alpha_a = math.log(2.5) / 1000.0
        assert atm_transmittance(alpha_a, 1000.0) == pytest.approx(0.4, rel=1e-14)

    def test_unit_exponent(self):
        assert atm_transmittance(1e-3, 1000.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            atm_transmittance(-1e-3, 1000.0)
        with pytest.raises(ValueError):
            atm_transmittance(1e-3, 0.0)


class TestGammaGammaPdf:
    def test_unit_mass(self):
        mass, _ = integrate.quad(gg_pdf, 0, np.inf, args=(ALPHA, BETA), limit=200)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_unit_mean(self):
        mean, _ = integrate.quad(
            lambda e: e * gg_pdf(e, ALPHA, BETA), 0, np.inf, limit=200
        )
        assert mean == pytest.approx(1.0, abs=1e-4)

    def test_parameter_swap_symmetry(self):
        eta = np.geomspace(1e-3, 10.0, 30)
        np.testing.assert_allclose(gg_pdf(eta, ALPHA, BETA), gg_pdf(eta, BETA, ALPHA), rtol=1e-12)

    def test_valid_density_over_parameter_grid(self):
        for a in (1.1, 3.0, 8.0):
            for b in (1.1, 3.0, 8.0):
                eta = np.geomspace(1e-4, 20.0, 50)
                assert np.all(gg_pdf(eta, a, b) >= 0.0)
                mass, _ = integrate.quad(gg_pdf, 0, np.inf, args=(a, b), limit=200)
                assert mass == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gg_pdf(0.0, ALPHA, BETA)
        with pytest.raises(ValueError):
            gg_pdf(1.0, -1.0, BETA)

    def test_second_moment_matches_product_formula(self):
        m2, _ = integrate.quad(
            lambda e: e * e * gg_pdf(e, ALPHA, BETA), 0, np.inf, limit=200
        )
        expected = (1.0 + 1.0 / ALPHA) * (1.0 + 1.0 / BETA)
        assert m2 == pytest.approx(expected, abs=1e-4)


class TestGammaGammaCdf:
    def test_matches_pdf_integral(self):
        for eta in (0.2, 1.0, 3.0):
            ref, _ = integrate.quad(gg_pdf, 0, eta, args=(ALPHA, BETA), limit=200)
            assert gg_cdf(eta, ALPHA, BETA) == pytest.approx(ref, abs=1e-7)

    def test_limits_and_monotonicity(self):
        assert gg_cdf(0.0, ALPHA, BETA) == 0.0
        grid = np.geomspace(1e-3, 30.0, 25)
        vals = [gg_cdf(g, ALPHA, BETA) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.9999

    def test_interpolator_accuracy(self):
        interp = gg_cdf_interpolator(ALPHA, BETA, 1e-3, 30.0, n=400)
        for eta in (0.05, 0.5, 1.5, 8.0):
            assert float(interp(eta)) == pytest.approx(gg_cdf(eta, ALPHA, BETA), abs=1e-5)


class TestGammaGammaSampling:
    def test_moments_within_3se(self):
        rng = np.random.default_rng(99)
        n = 1_000_000
        draws = gg_sample(rng, ALPHA, BETA, n)
        var_expected = (1.0 + 1.0 / ALPHA) * (1.0 + 1.0 / BETA) - 1.0
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 1.0) < 3.0 * se_mean
        sample_var = draws.var(ddof=1)
        centered = (draws - draws.mean()) ** 2
        se_var = centered.std(ddof=1) / math.sqrt(n)
        assert abs(sample_var - var_expected) < 3.0 * se_var

    def test_ks_against_quadrature_cdf(self):
        rng = np.random.default_rng(7)
        draws = gg_sample(rng, ALPHA, BETA, 100_000)
        interp = gg_cdf_interpolator(ALPHA, BETA, draws.min() / 2.0, draws.max() * 1.1, n=600)
        res = stats.kstest(draws, lambda x: np.clip(interp(x), 0.0, 1.0))
        assert res.pvalue > 0.01

    def test_domain_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gg_sample(rng, 0.0, BETA)


class TestRayleigh:
    # the Rayleigh displacement is drawn by montecarlo._draw_channel and
    # averaged in closed form by analytics.detect_prob; both read ctx.sigma_rd
    def test_sigma_rd_product(self):
        assert make_context(sigma_theta_e=100e-6, Lz=1000.0).sigma_rd == pytest.approx(0.1)
        assert make_context(sigma_theta_e=100e-6, Lz=2500.0).sigma_rd == pytest.approx(0.25)

    def test_domain_errors(self, baseline_ctx):
        for bad in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="sigma_rd"):
                replace(baseline_ctx, sigma_rd=bad)


class TestFov:
    def test_matched_scales(self):
        assert fov_accept_prob(5e-5, 5e-5) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-12)

    def test_wide_open_limit(self):
        assert fov_accept_prob(1.0, 5e-5) == pytest.approx(1.0)

    def test_monotone_in_both_arguments(self):
        thetas = np.linspace(1e-5, 3e-4, 20)
        accept = [fov_accept_prob(t, 5e-5) for t in thetas]
        assert all(b > a for a, b in zip(accept, accept[1:]))
        sigmas = np.linspace(1e-5, 3e-4, 20)
        accept = [fov_accept_prob(1e-4, s) for s in sigmas]
        assert all(b < a for a, b in zip(accept, accept[1:]))

    def test_geometry_from_optics(self):
        assert fov_geometry(5e-6, 0.15) == pytest.approx(33.333e-6, rel=1e-3)
        assert fov_geometry(5e-6, 0.15) == pytest.approx(math.atan(5e-6 / 0.15), rel=1e-15)

    def test_degenerate_core(self):
        assert fov_geometry(0.0, 0.15) == 0.0

    def test_model_consistency(self):
        # with theta_fov unset, the context derives it from the fiber optics
        ctx = build_context(LinkConfig(r_f=5e-6, L_f=0.15, sigma_aoa=50e-6))
        assert ctx.theta_fov == pytest.approx(math.atan2(5e-6, 0.15), rel=1e-12)
        assert ctx.p_fov == fov_accept_prob(ctx.theta_fov, 50e-6)


class TestBackground:
    A_R = math.pi * 0.15**2

    def test_dark_limit(self):
        assert background_mean(0.0, self.A_R, 1e-8, 1.0, 1e-8, 1.55e-6) == 0.0

    def test_reference_photon_energy(self):
        assert PLANCK_H * SPEED_OF_LIGHT / 1.55e-6 == pytest.approx(1.2817e-19, rel=1e-4)

    def test_reference_mu_b(self):
        omega = solid_angle(100e-6)
        mu_b = background_mean(1e-6, self.A_R, omega, 1.0, 1e-8, 1.55e-6)
        # hand recomputation: 1e-6 * pi*0.0225 * 2pi(1-cos 1e-4) * 1 * 1e-8 / 1.28166e-19
        assert mu_b == pytest.approx(1.73e-4, rel=1e-2)
        assert mu_b == pytest.approx(1.7327552631619765e-4, rel=1e-12)

    def test_hbar_mode_is_2pi_larger(self):
        omega = solid_angle(100e-6)
        base = background_mean(1e-6, self.A_R, omega, 1.0, 1e-8, 1.55e-6, "planck_h")
        alt = background_mean(1e-6, self.A_R, omega, 1.0, 1e-8, 1.55e-6, "planck_hbar")
        assert alt == pytest.approx(2.0 * math.pi * base, rel=1e-12)

    def test_linearity_in_each_factor(self):
        args = dict(
            B_lambda=1e-6,
            A_r=self.A_R,
            omega_fov=solid_angle(1e-4),
            delta_lambda_nm=1.0,
            T_qs=1e-8,
            wavelength=1.55e-6,
        )
        base = background_mean(**args)
        for key in ("B_lambda", "A_r", "omega_fov", "delta_lambda_nm", "T_qs"):
            doubled = dict(args)
            doubled[key] = 2.0 * args[key]
            assert background_mean(**doubled) == pytest.approx(2.0 * base, rel=1e-12)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            background_mean(1e-6, 1.0, 1e-8, 1.0, 1e-8, 1.55e-6, "joules")

    def test_model_wrapper(self):
        # the context's mu_b assembles A_r = pi ra^2 and the FoV solid angle
        cfg = LinkConfig(ra=0.15, theta_fov=100e-6, B_lambda=1e-6, delta_lambda=1.0, T_qs=1e-8)
        assert build_context(cfg).mu_b == pytest.approx(1.7327552631619765e-4, rel=1e-12)


class TestChannelParams:
    # the atmosphere parameters live in LinkConfig, checked by config.validate
    def test_requires_one_transmittance_source(self):
        with pytest.raises(ConfigError, match="eta_atm or alpha_a"):
            validate(LinkConfig(eta_atm=None, alpha_a=None))

    def test_direct_value_wins(self):
        assert build_context(LinkConfig(eta_atm=0.4, alpha_a=1e-2)).eta_atm == 0.4

    def test_derived_transmittance(self):
        cfg = LinkConfig(eta_atm=None, alpha_a=math.log(2.5) / 1000.0, Lz=1000.0)
        assert build_context(cfg).eta_atm == pytest.approx(0.4, rel=1e-12)

    def test_range_validation(self):
        with pytest.raises(ConfigError, match="eta_atm"):
            validate(LinkConfig(eta_atm=1.5))
        with pytest.raises(ConfigError, match="alpha"):
            validate(LinkConfig(alpha=-1.0))


def test_import_loads_no_interpolation():
    # scipy.interpolate serves only the test oracles; the package must not load it
    src = str(Path(uavqkd.__file__).resolve().parents[1])
    code = "import sys, uavqkd; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        lambda: fov_accept_prob(NAN, 5e-5),
        lambda: fov_accept_prob(5e-5, NAN),
        lambda: fov_accept_prob(np.array([5e-5, NAN]), 5e-5),
        lambda: atm_transmittance(NAN, 1000.0),
        lambda: atm_transmittance(1e-3, NAN),
        lambda: fov_geometry(NAN, 0.15),
        lambda: fov_geometry(5e-6, NAN),
        lambda: solid_angle(NAN),
        lambda: solid_angle(np.array([1e-4, NAN])),
        lambda: solid_angle(-1e-4),
        lambda: background_mean(NAN, 0.07, 1e-8, 1.0, 1e-8, 1.55e-6),
        lambda: background_mean(np.array([1e-6, NAN]), 0.07, 1e-8, 1.0, 1e-8, 1.55e-6),
        lambda: background_mean(1e-6, NAN, 1e-8, 1.0, 1e-8, 1.55e-6),
        lambda: background_mean(1e-6, 0.07, 1e-8, 1.0, 1e-8, NAN),
        lambda: beam_radius(NAN, 1.55e-6, 1000.0),
        lambda: beam_radius(0.01, 1.55e-6, NAN),
        lambda: gg_sample(np.random.default_rng(0), NAN, 2.0, 3),
        lambda: gg_sample(np.random.default_rng(0), 2.0, NAN, 3),
    ],
    ids=[
        "fov_theta", "fov_sigma", "fov_array", "atm_alpha", "atm_Lz", "geometry_r_f", "geometry_L_f",
        "solid_angle_nan", "solid_angle_array", "solid_angle_negative",
        "background_B", "background_B_array", "background_A_r", "background_wavelength",
        "beam_w0", "beam_Lz", "gg_alpha", "gg_beta",
    ],
)
def test_nan_parameter_raises(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "f",
    [
        lambda x: fov_accept_prob(x, 5e-5),
        lambda x: fov_accept_prob(1e-4, x),
        solid_angle,
        lambda x: capture_classical(x, 0.7, 0.15).value,
    ],
    ids=["fov_theta", "fov_sigma", "solid_angle", "capture_classical"],
)
def test_array_call_gives_the_scalar_values(f):
    """An array argument gives the scalar calls' values bit for bit, in its
    own shape; a float gives a float."""
    xs = np.random.default_rng(5).uniform(1e-6, 1e-3, 257)
    scalars = [f(x) for x in xs.tolist()]
    assert all(type(v) is float for v in scalars)
    got = f(xs)
    assert got.shape == xs.shape
    assert got.tolist() == scalars
    assert f(xs.reshape(1, -1)).shape == (1, xs.size)


def test_solid_angle_is_math_cos_form():
    """1 - cos(theta) cancels, so an ulp of cos moves mu_b by up to ~1e-5
    relative: over the validator's theta_fov range the array form equals
    2 pi (1 - math.cos(theta)) bit for bit."""
    _, lo, hi = _FIELDS["theta_fov"]
    theta = np.exp(np.random.default_rng(11).uniform(math.log(lo), math.log(hi), 10_000))
    want = [2.0 * math.pi * (1.0 - math.cos(t)) for t in theta.tolist()]
    assert solid_angle(theta).tolist() == want
