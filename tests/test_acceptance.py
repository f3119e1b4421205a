"""Acceptance suite: one test per published claim the artifact must reproduce.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` or ``-rA``
to see them) and enforces both the numeric tolerance and the runtime budget
of the claim it checks.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from conftest import make_config, make_context
from uavqkd import analytics, montecarlo, output
from uavqkd.beam import build_grid, capture_classical, capture_exact, capture_grid
from uavqkd.channel import gg_cdf_interpolator, gg_pdf, gg_sample
from uavqkd.config import build_context, dumps, loads
from uavqkd.sweep import SweepSpec, optimize, sweep

RA = 0.15
ALPHA, BETA = 2.1, 1.8


@contextmanager
def criterion(label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{label}: took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[ACCEPTANCE] PASS - {label} ({elapsed:.1f}s)")


def test_criterion_1_capture_model_comparison():
    with criterion("1: classical breaks down; grid capture model matches exact", 1.0):
        # The classical half first, so it is checked even while the grid half fails.
        classical = capture_classical(0.0, 0.05, RA)
        assert classical.value == pytest.approx(18.0, rel=1e-12)
        assert not classical.valid
        assert abs(classical.value - capture_exact(0.0, 0.05, RA)) > 10 * 0.01

        rd = np.linspace(0.0, 0.2, 50)
        for wz in (0.05, 0.10):
            grid = build_grid(RA, wz, 10)
            err = np.abs(capture_grid(grid, rd) - capture_exact(rd, wz, RA))
            assert err.max() < 0.01, (
                f"wz={wz:g} m: N_g=10 grid error {err.max():.4f}, bound 0.01. Known model "
                f"limitation (README): the midpoint strips are 2ra/N_g = {100 * grid.dx:.1f} cm "
                f"wide, more than the beam's per-axis sigma wz/2 = {50 * wz:.1f} cm, and the "
                "error falls only as ~N_g^-1.5 (square-root edge of the chord factor)"
            )


def test_criterion_2_centered_beam_oracle():
    with criterion("2: centered-beam closed form to 1e-9 over 100 random pairs", 1.0):
        rng = np.random.default_rng(2026)
        for _ in range(100):
            wz = rng.uniform(0.02, 1.0)
            ra = rng.uniform(0.02, 0.5)
            closed = -math.expm1(-2.0 * ra * ra / (wz * wz))
            assert abs(capture_exact(0.0, wz, ra) - closed) < 1e-9


def test_criterion_3_turbulence_model():
    with criterion("3: Gamma-Gamma mass/mean, sample moments and KS", 10.0):
        mass, _ = integrate.quad(gg_pdf, 0, np.inf, args=(ALPHA, BETA), limit=200)
        assert abs(mass - 1.0) < 1e-6
        mean, _ = integrate.quad(lambda e: e * gg_pdf(e, ALPHA, BETA), 0, np.inf, limit=200)
        assert abs(mean - 1.0) < 1e-4

        rng = np.random.default_rng(303)
        n = 1_000_000
        draws = gg_sample(rng, ALPHA, BETA, n)
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 1.0) < 3.0 * se_mean
        var_expected = (1.0 + 1.0 / ALPHA) * (1.0 + 1.0 / BETA) - 1.0
        centered = (draws - draws.mean()) ** 2
        se_var = centered.std(ddof=1) / math.sqrt(n)
        assert abs(draws.var(ddof=1) - var_expected) < 3.0 * se_var

        interp = gg_cdf_interpolator(ALPHA, BETA, draws.min() / 2.0, draws.max() * 1.1, n=600)
        res = stats.kstest(draws, lambda x: np.clip(interp(x), 0.0, 1.0))
        assert res.pvalue > 0.01


# Points spanning every swept axis of the performance studies.
CROSS_VALIDATION_POINTS = [
    ("baseline", {}),
    ("wz=0.05", {"wz": 0.05}),
    ("wz=0.20", {"wz": 0.20}),
    ("wz=0.50", {"wz": 0.50}),
    ("sigma_theta_e=100urad", {"sigma_theta_e": 100e-6}),
    ("sigma_theta_e=300urad", {"sigma_theta_e": 300e-6}),
    ("sigma_theta_e=1mrad", {"sigma_theta_e": 1e-3}),
    ("sigma_aoa=25urad", {"sigma_aoa": 25e-6}),
    ("sigma_aoa=100urad", {"sigma_aoa": 100e-6}),
    ("theta_fov=50urad", {"theta_fov": 50e-6}),
    ("theta_fov=200urad", {"theta_fov": 200e-6}),
    ("B_lambda=1e-5", {"B_lambda": 1e-5}),
    ("B_lambda=1e-4", {"B_lambda": 1e-4}),
]


@pytest.mark.parametrize("label,overrides", CROSS_VALIDATION_POINTS, ids=[p[0] for p in CROSS_VALIDATION_POINTS])
def test_criterion_4_analytic_mc_cross_validation(label, overrides):
    # Whole-criterion budget is 2 min; each of the 13 points gets an even share.
    with criterion(f"4: analytic vs Monte Carlo at {label}", 120.0 / len(CROSS_VALIDATION_POINTS)):
        ctx = make_context(**overrides)
        analytic = analytics.evaluate(ctx)
        seed = 4000 + [p[0] for p in CROSS_VALIDATION_POINTS].index(label)
        mc = montecarlo.run(ctx, 1_000_000, seed=seed).estimates
        misses = []
        for name in ("p_detect", "p_eff_one", "key_rate", "qber"):
            a, m = getattr(analytic, name), getattr(mc, name)
            se = mc.se[name]
            tol = max(3.0 * se, 0.10 * abs(a))
            if abs(a - m) > tol:
                misses.append(
                    f"{name} analytic={a:.6g} mc={m:.6g} "
                    f"|diff|={abs(a - m):.3g} > tol={tol:.3g} (3se={3 * se:.3g})"
                )
        if misses:
            # Split the p_detect gap: grid -> exact capture, then the paper's
            # linearization 1 - e^-mu ~ mu -> the exact turbulence expectation.
            exact_ctx = replace(ctx, mu_p_mode="exact")
            a = analytic.p_detect
            exact_lin = analytics.detect_prob(exact_ctx)
            exact = analytics.detect_prob(exact_ctx, turbulence="averaged")
            z = (mc.p_detect - exact) / mc.se["p_detect"]
            misses.append(
                f"c_pt*mu_p(0)={ctx.c_pt * ctx.mu_p(0.0):.4f}; exact-expectation p_detect="
                f"{exact:.6g} is {(exact - a) / a:+.1%} from the analytic "
                f"(grid {(exact_lin - a) / a:+.1%}, linearization {(exact - exact_lin) / a:+.1%}); "
                f"MC z vs exact expectation = {z:+.1f}. "
                "Known model limitation (README)"
            )
        assert not misses, f"{label}: " + "; ".join(misses)


def test_criterion_5_headline_key_rate_and_qber():
    with criterion("5: optimized waist hits >2 Mbps at <1e-3 QBER; heavy jitter kills it", 30.0):
        base = make_config()
        good = optimize(base, "wz", 1e-3, (0.05, 1.0), coarse=32)
        assert good.feasible
        assert good.report.key_rate > 2e6
        assert good.report.qber < 1e-3

        shaky = replace(base, sigma_theta_e=2e-3)
        bad = optimize(shaky, "wz", 0.499, (0.05, 1.0), coarse=32)
        assert bad.report.key_rate < 1e5
        assert bad.report.qber > 0.1


def _detect_prob_closed_form(ctx) -> float:
    """Exact-capture detection probability of the linearized model.

    The beam centre (Rayleigh jitter, sigma_rd per axis) and the beam profile
    (sigma wz/2 per axis) are both Gaussian, so the photon lands on a centred
    Gaussian and mu_p averages to 1 - exp(-2 ra^2 / (wz^2 + 4 sigma_rd^2)).
    """
    s = ctx.pointing.sigma_rd
    return ctx.c_pt * (1.0 - ctx.fov_escape) * -math.expm1(-2.0 * ctx.ra**2 / (ctx.wz**2 + 4.0 * s * s))


def test_criterion_6_optimal_waist_location():
    with criterion("6: detection peaks below 10 cm waist; 3x jitter costs 1-9x peak, matching the closed form", 10.0):
        wz_grid = np.linspace(0.05, 1.0, 96)

        def peak(sigma_theta_e):
            ctxs = [make_context(wz=float(w), sigma_theta_e=sigma_theta_e) for w in wz_grid]
            vals = [analytics.detect_prob(c) for c in ctxs]
            i = int(np.argmax(vals))
            return ctxs[i], vals[i]

        ctx_50, peak_50 = peak(50e-6)
        assert ctx_50.wz < 0.10
        ctx_150, peak_150 = peak(150e-6)

        for ctx, grid_peak in ((ctx_50, peak_50), (ctx_150, peak_150)):
            closed = _detect_prob_closed_form(ctx)
            exact_ctx = replace(ctx, mu_p_mode="exact")
            exact = analytics.detect_prob(exact_ctx)
            assert abs(exact - closed) <= 1e-9 * closed, f"exact-mode {exact:.12g} vs closed form {closed:.12g}"
            # The grid peak averages the grid capture over rd in [0, 8 sigma_rd],
            # so it lies within the grid's worst conditional error there.
            rd = np.linspace(0.0, 8.0 * ctx.pointing.sigma_rd, 801)
            bound = np.abs(
                analytics.detect_prob_given_rd(rd, ctx) - analytics.detect_prob_given_rd(rd, exact_ctx)
            ).max()
            assert abs(grid_peak - closed) <= bound, (
                f"wz={ctx.wz:g}: grid peak {grid_peak:.6g} vs closed form {closed:.6g}, grid bound {bound:.3g}"
            )

        # Rayleigh densities obey f_3s(r) = (r / 9s^2) exp(-r^2 / 18s^2) >= f_s(r) / 9
        # at every r, so tripling the jitter costs at most 9x of any nonnegative
        # detection function, at every waist and so at the peak.
        ratio = peak_50 / peak_150
        assert 1.0 < ratio <= 9.0, (
            f"peak detection at 50 urad = {peak_50:.4g}, at 150 urad = {peak_150:.4g}: ratio {ratio:.2f}x"
        )


def test_criterion_7_fov_tradeoff_shape():
    with criterion("7: key rate and QBER both grow with FoV; optimum shrinks with radiance", 10.0):
        values = tuple(np.linspace(5e-6, 200e-6, 25).tolist())
        for sigma_aoa in (50e-6, 100e-6):
            for b_lambda in (1e-6, 1e-4):
                cfg = make_config(theta_fov=None, sigma_aoa=sigma_aoa, B_lambda=b_lambda)
                result = sweep(cfg, SweepSpec(axis="theta_fov", values=values))
                mu_bs = [build_context(replace(cfg, theta_fov=v)).mu_b for v in values]
                assert max(mu_bs) < 1.0
                keys = [r.report.key_rate for r in result.rows]
                qbers = [r.report.qber for r in result.rows]
                assert all(b >= a for a, b in zip(keys, keys[1:]))
                assert all(b >= a for a, b in zip(qbers, qbers[1:]))

        # The qber <= 1e-3 ceiling binds harder as radiance rises: the
        # recommended FoV (feasible argmax, or least-bad point when the
        # ceiling is unattainable) must shrink.
        opts = {
            b: optimize(make_config(theta_fov=None, B_lambda=b), "theta_fov", 1e-3, (5e-6, 200e-6), coarse=32)
            for b in (1e-6, 1e-4)
        }
        assert opts[1e-4].value < opts[1e-6].value


@settings(max_examples=10, deadline=None)
@given(
    wz=st.floats(0.03, 0.8),
    sigma_theta_e=st.floats(20e-6, 1e-3),
    b_exp=st.floats(-7.0, -4.0),
)
def test_criterion_8a_qber_bounds(wz, sigma_theta_e, b_exp):
    ctx = make_context(wz=wz, sigma_theta_e=sigma_theta_e, B_lambda=10.0**b_exp)
    assert 0.0 <= analytics.qber(ctx) <= 0.5


def test_criterion_8_property_suite(baseline_ctx, baseline_cfg):
    with criterion("8: decomposition identity, MC determinism, round-trips", 60.0):
        report = analytics.evaluate(baseline_ctx)
        assert abs(report.p_eff_one - (report.p_s1 + report.p_s2 + report.p_s3)) < 1e-15

        n = 2 * montecarlo.BATCH_SIZE
        assert montecarlo.run(baseline_ctx, n, seed=88) == montecarlo.run(baseline_ctx, n, seed=88)
        assert montecarlo.run(baseline_ctx, n, seed=88, workers=4) == montecarlo.run(
            baseline_ctx, n, seed=88, workers=1
        )

        assert loads(dumps(baseline_cfg)) == baseline_cfg
        import json

        parsed = json.loads(output.emit(report, "json"))[0]
        assert parsed["p_detect"] == report.p_detect
        assert parsed["qber"] == report.qber
