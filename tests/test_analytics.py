import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from conftest import log_uniform_field, make_context
from uavqkd import analytics
from uavqkd.analytics import (
    detect_prob,
    detect_prob_given_rd,
    evaluate,
    key_rate,
    mu_q_conditional_pdf,
    p_eff_one,
    qber,
    state_probs,
    with_frozen_mu_b,
)
from uavqkd.beam import capture_exact, capture_grid
from uavqkd.channel import PointingModel
from uavqkd.config import LinkConfig, build_context
from uavqkd.errors import CaptureOverflowWarning, LinearizationWarning

_GL16 = np.polynomial.legendre.leggauss(16)


def _oracle_detect_prob(ctx) -> float:
    """Linearized detection probability by dense composite Gauss-Legendre over rd.

    Panels no wider than half of min(sigma_rd, wz), up to min(8 sigma_rd,
    ra + 9 wz): the first bound leaves e^-32 of the Rayleigh mass out, and
    past the second no capture model holds more than e^-162 of the beam.
    Grid capture sums, for each node, the segments within 9 wz of it;
    exact capture is the noncentral chi-square CDF 1 - Q1(2 rd/wz, 2 ra/wz).
    """
    sigma, wz, ra = ctx.pointing.sigma_rd, ctx.wz, ctx.ra
    top = min(8.0 * sigma, ra + 9.0 * wz)
    panels = max(4, math.ceil(top / (0.5 * min(sigma, wz))))
    edges = np.linspace(0.0, top, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    r = (edges[:-1, None] + half * (1.0 + _GL16[0])).ravel()
    w = (half * _GL16[1]).ravel() * r / sigma**2 * np.exp(-0.5 * (r / sigma) ** 2)
    if ctx.mu_p_mode == "exact":
        mu = special.chndtr((2.0 * ra / wz) ** 2, 2.0, (2.0 * r / wz) ** 2)
    else:
        x, c, ng = ctx.grid.centers_array(), ctx.grid.weights_array(), ctx.grid.ng
        k = min(ng, math.ceil(18.0 * wz / ctx.grid.dx) + 2)
        mu = np.empty_like(r)
        step = max(1, (1 << 20) // k)
        for i in range(0, r.size, step):
            rr = r[i : i + step, None]
            idx = np.clip(np.searchsorted(x, rr - 9.0 * wz), 0, ng - k) + np.arange(k)
            mu[i : i + step] = np.sum(c[idx] * np.exp(-2.0 * ((x[idx] - rr) / wz) ** 2), axis=1)
    p_fov = -math.expm1(-0.5 * (ctx.fov.theta_fov / ctx.fov.sigma_aoa) ** 2)
    return ctx.c_pt * p_fov * float(w @ mu)


def _assert_matches_oracle(ctx) -> None:
    # 2e-14 covers the Rayleigh mass the oracle leaves out beyond 8 sigma_rd
    got, want = detect_prob(ctx), _oracle_detect_prob(ctx)
    assert abs(got - want) <= 1e-9 * want + 2e-14 * ctx.c_pt, (
        f"{ctx.mu_p_mode}: closed form {got:.15g} vs oracle {want:.15g}"
    )


class TestContext:
    def test_composite_transmissivity(self, baseline_ctx):
        assert baseline_ctx.c_pt == pytest.approx(0.5 * 0.4 * 0.6, rel=1e-12)

    def test_attempt_rate(self, baseline_ctx):
        assert baseline_ctx.R_q * baseline_ctx.T_qs == pytest.approx(1.0, rel=1e-12)

    def test_validation(self, baseline_ctx):
        with pytest.raises(ValueError):
            replace(baseline_ctx, mu_t=0.0)
        with pytest.raises(ValueError):
            replace(baseline_ctx, eta_atm=1.5)
        with pytest.raises(ValueError):
            replace(baseline_ctx, mu_b=-1.0)
        with pytest.raises(ValueError):
            replace(baseline_ctx, mu_p_mode="approximate")


class TestConditionalLaw:
    def test_total_mass(self, baseline_ctx):
        rd = 0.05
        pm, _ = mu_q_conditional_pdf(0.0, rd, baseline_ctx)
        cont, _ = integrate.quad(
            lambda u: mu_q_conditional_pdf(u, rd, baseline_ctx)[1],
            0.0,
            np.inf,
            limit=200,
        )
        assert pm + cont == pytest.approx(1.0, abs=1e-6)

    def test_conditional_mean(self, baseline_ctx):
        rd = 0.05
        mean, _ = integrate.quad(
            lambda u: u * mu_q_conditional_pdf(u, rd, baseline_ctx)[1],
            0.0,
            np.inf,
            limit=200,
        )
        expected = (1.0 - baseline_ctx.fov_escape) * baseline_ctx.c_pt * baseline_ctx.mu_p(rd)
        assert mean == pytest.approx(expected, abs=1e-4)

    def test_degenerate_at_zero_capture(self, baseline_ctx):
        pm, dens = mu_q_conditional_pdf(1.0, 10.0, baseline_ctx)
        assert pm == 1.0 and dens == 0.0

    def test_domain_error(self, baseline_ctx):
        with pytest.raises(ValueError):
            mu_q_conditional_pdf(-1.0, 0.0, baseline_ctx)


class TestDetectProbGivenRd:
    def test_wide_fov_centered_beam(self):
        # theta_fov >> sigma_aoa: acceptance ~ 1, so the value is c_pt * mu_p(0)
        ctx = make_context(theta_fov=2e-3, sigma_aoa=5e-6)
        assert detect_prob_given_rd(0.0, ctx) == pytest.approx(0.12 * 0.9889, abs=1e-2)

    def test_blind_receiver(self):
        ctx = make_context(theta_fov=5e-7, sigma_aoa=2e-3)
        assert detect_prob_given_rd(0.0, ctx) < 1e-7

    def test_vectorized(self, baseline_ctx):
        rd = np.linspace(0.0, 0.3, 20)
        vals = np.asarray(detect_prob_given_rd(rd, baseline_ctx))
        assert vals.shape == rd.shape
        assert np.all(np.diff(vals) <= 1e-15)


class TestDetectProb:
    def test_collapses_to_conditional_at_tiny_jitter(self, baseline_ctx):
        # sigma_rd = 1e-9 m: the Rayleigh average collapses onto rd = 0
        ctx = replace(baseline_ctx, pointing=PointingModel(sigma_theta_e=1e-12, Lz=1000.0))
        assert detect_prob(ctx) == pytest.approx(detect_prob_given_rd(0.0, ctx), abs=1e-6)

    def test_monotone_in_pointing_jitter(self):
        vals = [
            detect_prob(make_context(sigma_theta_e=s))
            for s in (25e-6, 50e-6, 100e-6, 200e-6, 400e-6)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_quadrature_consistency(self, baseline_ctx):
        # the averaged path is the only one left that integrates numerically
        val, err = detect_prob(baseline_ctx, with_error=True, turbulence="averaged")
        tight = detect_prob(
            replace(baseline_ctx, quad_tol=baseline_ctx.quad_tol / 2.0), turbulence="averaged"
        )
        assert abs(val - tight) <= max(err, 1e-13)

    def test_closed_form_reports_no_quadrature_error(self, baseline_ctx):
        for mode in ("grid", "exact"):
            ctx = replace(baseline_ctx, mu_p_mode=mode)
            assert detect_prob(ctx, with_error=True) == (detect_prob(ctx), 0.0)

    def test_closed_form_makes_no_quadrature_call(self, baseline_ctx, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("linearized detect_prob called integrate.quad")

        calls = []

        def counting_capture_grid(*args, **kwargs):
            calls.append(args)
            return capture_grid(*args, **kwargs)

        monkeypatch.setattr(analytics.integrate, "quad", no_quad)
        monkeypatch.setattr(analytics, "capture_grid", counting_capture_grid)
        detect_prob(make_context(wz=0.30))
        assert len(calls) <= 1  # mu_p(0) for the linearization check

    def test_wide_jitter_regression(self):
        # sigma_rd = 20 m on the reference link: an adaptive quadrature over
        # the Rayleigh CDF placed no node where the beam lands and gave 8.5e-61
        ctx = build_context(LinkConfig(sigma_theta_e=2e-2))
        assert ctx.pointing.sigma_rd == pytest.approx(20.0)
        _assert_matches_oracle(ctx)
        _assert_matches_oracle(replace(ctx, mu_p_mode="exact"))
        assert detect_prob(ctx) == pytest.approx(6.9e-7, rel=1e-2)
        assert detect_prob(replace(ctx, mu_p_mode="exact")) == pytest.approx(6.72e-7, rel=1e-2)
        # averaged path: E[1 - e^-s eta] lies in [s - s^2 E[eta^2] / 2, s], and
        # s = c_pt mu_p <= 0.119 with E[eta^2] = 2.30 here
        lin = detect_prob(ctx)
        assert 0.86 * lin < detect_prob(ctx, turbulence="averaged") < lin

    def test_grid_overflow_reported_between_segments(self):
        # N_g = 2 segments 1.5 m wide for a 5 mm beam: capture 0 at rd = 0
        # but ~240 with the beam centred on a segment
        ctx = make_context(Ng=2, wz=0.005, ra=1.5, sigma_theta_e=7.5e-4)
        with pytest.warns(CaptureOverflowWarning):
            detect_prob(ctx)

    def test_averaged_path_finite_for_vanishing_signal(self, baseline_ctx):
        # 1 - E[e^-s eta] is computed directly, never as a difference divided by s
        ctx = replace(baseline_ctx, mu_t=1e-300)
        val = detect_prob(ctx, turbulence="averaged")
        # the quadrature's tolerance is absolute (quad_tol), so at 1e-301 it
        # stops at its first rule; the linearization itself is exact here
        assert math.isfinite(val) and val > 0.0
        assert val == pytest.approx(detect_prob(ctx), rel=1e-3)

    def test_linearization_warning_in_strong_signal_regime(self, baseline_ctx):
        # c_pt * mu_p(0) = 0.12 * 0.989 > 0.1 at the reference point
        with pytest.warns(LinearizationWarning):
            detect_prob(baseline_ctx)
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinearizationWarning)
            detect_prob(make_context(wz=0.30))  # c_pt * mu_p(0) ~ 0.047

    def test_exact_turbulence_average_is_smaller(self, baseline_ctx):
        lin = detect_prob(baseline_ctx)
        avg = detect_prob(baseline_ctx, turbulence="averaged")
        assert 0.0 < avg < lin
        # concavity of 1 - e^-x makes the gap material in this regime
        assert (lin - avg) / lin > 0.05

    def test_unknown_turbulence_mode(self, baseline_ctx):
        with pytest.raises(ValueError):
            detect_prob(baseline_ctx, turbulence="frozen")

    def test_exact_capture_mode_close_to_grid(self, baseline_ctx):
        grid_val = detect_prob(baseline_ctx)
        exact_val = detect_prob(replace(baseline_ctx, mu_p_mode="exact"))
        assert exact_val == pytest.approx(grid_val, rel=2e-2)

    def test_fov_ratio_invariance(self, baseline_ctx):
        # with mu_b frozen, only theta_fov / sigma_aoa matters
        scaled = make_context(theta_fov=200e-6, sigma_aoa=100e-6)
        scaled = with_frozen_mu_b(scaled, baseline_ctx.mu_b)
        assert detect_prob(scaled) == pytest.approx(detect_prob(baseline_ctx), rel=1e-10)
        assert key_rate(scaled) == pytest.approx(key_rate(baseline_ctx), rel=1e-10)


class TestKeyMetrics:
    def test_dark_limit(self, baseline_ctx):
        ctx = with_frozen_mu_b(baseline_ctx, 0.0)
        i = detect_prob(ctx)
        assert state_probs(ctx) == pytest.approx((i, 0.0, 0.0), rel=1e-12)
        assert p_eff_one(ctx) == pytest.approx(i, rel=1e-12)
        assert qber(ctx) == 0.0

    def test_no_signal_limit(self):
        # pointing jitter so large (sigma_rd = 20 m) that the beam rarely hits
        ctx = with_frozen_mu_b(make_context(sigma_theta_e=2e-2), 1.0)
        sigma, wz, ra = ctx.pointing.sigma_rd, ctx.wz, ctx.ra
        scale = ctx.c_pt * -math.expm1(-0.5 * (ctx.fov.theta_fov / ctx.fov.sigma_aoa) ** 2)
        # exact-capture closed form; the grid model differs from it by at most
        # the Rayleigh average of |grid - exact| capture, which vanishes past ra + 9 wz
        i_exact = scale * -math.expm1(-2.0 * ra * ra / (wz * wz + 4.0 * sigma * sigma))
        rd = np.linspace(0.0, ra + 9.0 * wz, 4001)
        pdf = rd / sigma**2 * np.exp(-0.5 * (rd / sigma) ** 2)
        gap = np.abs(capture_grid(ctx.grid, rd) - capture_exact(rd, wz, ra))
        tol = scale * float(np.trapezoid(gap * pdf, rd)) * 1.01
        eb = math.exp(-1.0)
        s1, s2, s3 = state_probs(ctx)
        assert s1 == pytest.approx(eb * i_exact, abs=eb * tol)
        assert s2 == pytest.approx(eb * (1.0 - i_exact), abs=eb * tol)
        assert s3 == pytest.approx(0.5 * eb * i_exact, abs=0.5 * eb * tol)
        assert s1 < 1e-5 and s3 < 1e-5
        assert p_eff_one(ctx) == pytest.approx(eb, rel=1e-5)
        assert qber(ctx) == pytest.approx(0.5, abs=1e-4)

    def test_state_decomposition_identity(self, baseline_ctx):
        s1, s2, s3 = state_probs(baseline_ctx)
        assert abs(p_eff_one(baseline_ctx) - (s1 + s2 + s3)) < 1e-15

    def test_key_rate_product(self, baseline_ctx):
        assert key_rate(baseline_ctx) == pytest.approx(
            p_eff_one(baseline_ctx) / baseline_ctx.T_qs, rel=1e-12
        )

    def test_evaluate_consistency(self, baseline_ctx):
        report = evaluate(baseline_ctx)
        assert report.method == "analytic"
        assert report.se is None and report.ci_halfwidth is None
        assert report.p_detect == pytest.approx(detect_prob(baseline_ctx), rel=1e-12)
        assert report.p_eff_one == pytest.approx(
            report.p_s1 + report.p_s2 + report.p_s3, abs=1e-15
        )
        assert report.key_rate == pytest.approx(key_rate(baseline_ctx), rel=1e-12)
        assert report.qber == pytest.approx(qber(baseline_ctx), rel=1e-12)
        assert 0.0 <= report.qber <= 0.5

    def test_all_probabilities_in_range(self, baseline_ctx):
        report = evaluate(baseline_ctx)
        for p in (report.p_detect, report.p_s1, report.p_s2, report.p_s3, report.p_eff_one):
            assert 0.0 <= p <= 1.0


@settings(max_examples=25, deadline=None)
@given(
    wz=st.floats(0.02, 1.0),
    sigma_theta_e=st.floats(10e-6, 2e-3),
    sigma_aoa=st.floats(10e-6, 500e-6),
    theta_fov=st.floats(5e-6, 2e-3),
    b_exp=st.floats(-8.0, -3.5),
)
def test_qber_bounds_under_fuzzing(wz, sigma_theta_e, sigma_aoa, theta_fov, b_exp):
    ctx = make_context(
        wz=wz,
        sigma_theta_e=sigma_theta_e,
        sigma_aoa=sigma_aoa,
        theta_fov=theta_fov,
        B_lambda=10.0**b_exp,
    )
    assert 0.0 <= qber(ctx) <= 0.5
    report = evaluate(ctx)
    assert 0.0 <= report.p_eff_one <= 1.0
    assert report.key_rate >= 0.0


@settings(max_examples=30, deadline=None)
@given(
    ng=log_uniform_field("Ng").map(lambda v: int(round(v))),
    sigma_rd=st.floats(-9.0, math.log10(200.0)).map(lambda e: 10.0**e),
    wz=log_uniform_field("wz"),
    ra=log_uniform_field("ra"),
)
def test_closed_form_matches_quadrature_oracle(ng, sigma_rd, wz, ra):
    ctx = make_context(Ng=ng, wz=wz, ra=ra)
    ctx = replace(ctx, pointing=PointingModel(sigma_theta_e=sigma_rd / 1000.0, Lz=1000.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinearizationWarning)
        _assert_matches_oracle(ctx)
        _assert_matches_oracle(replace(ctx, mu_p_mode="exact"))
