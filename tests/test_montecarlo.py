import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import make_context
from uavqkd.analytics import detect_prob, with_frozen_mu_b
from uavqkd.beam import capture_exact
from uavqkd.channel import gg_cdf_interpolator
from uavqkd.montecarlo import (
    BATCH_SIZE,
    McOptions,
    _draw_channel,
    run,
    simulate_slot,
)

N = 200_000


class TestDeterminism:
    def test_same_seed_bit_identical(self, baseline_ctx):
        a = run(baseline_ctx, N, seed=42)
        b = run(baseline_ctx, N, seed=42)
        assert a == b

    def test_workers_do_not_change_results(self, baseline_ctx):
        serial = run(baseline_ctx, 4 * BATCH_SIZE, seed=7, workers=1)
        parallel = run(baseline_ctx, 4 * BATCH_SIZE, seed=7, workers=4)
        assert serial == parallel

    def test_different_seeds_differ(self, baseline_ctx):
        a = run(baseline_ctx, N, seed=1)
        b = run(baseline_ctx, N, seed=2)
        assert a.estimates.p_detect != b.estimates.p_detect

    def test_rejects_empty_run(self, baseline_ctx):
        with pytest.raises(ValueError):
            run(baseline_ctx, 0, seed=1)


class TestOutcomeOracles:
    def test_empty_source_never_produces_bits(self, baseline_ctx):
        ctx = with_frozen_mu_b(replace(baseline_ctx, mu_t=1e-300), 0.0)
        report = run(ctx, 50_000, seed=3).estimates
        assert report.p_detect == 0.0
        assert report.p_eff_one == 0.0
        assert math.isnan(report.qber)

    def test_dark_runs_have_no_errors(self, baseline_ctx):
        ctx = with_frozen_mu_b(baseline_ctx, 0.0)
        report = run(ctx, N, seed=4).estimates
        assert report.p_s2 == 0.0 and report.p_s3 == 0.0
        assert report.qber == 0.0

    def test_background_only_poisson_single_count(self, baseline_ctx):
        # signal path suppressed: P(bit) = P(n_b = 1) = e^-1
        ctx = with_frozen_mu_b(baseline_ctx, 1.0)
        opts = McOptions(force_eta=0.0)
        report = run(ctx, 1_000_000, seed=5, options=opts).estimates
        target = math.exp(-1.0)
        se = math.sqrt(target * (1.0 - target) / 1_000_000)
        assert abs(report.p_eff_one - target) < 3.0 * se
        assert report.qber == pytest.approx(0.5, abs=0.01)

    def test_poisson_thinning_closed_form(self, baseline_ctx):
        # turbulence and FoV pinned, beam centered: detection is pure thinning
        opts = McOptions(force_rd=0.0, force_eta=1.0, force_fov=True)
        report = run(baseline_ctx, 1_000_000, seed=6, options=opts).estimates
        mu_p0 = 1.0 - math.exp(-4.5)
        target = 1.0 - math.exp(-0.5 * 0.4 * 0.6 * mu_p0)
        se = math.sqrt(target * (1.0 - target) / 1_000_000)
        assert abs(report.p_detect - target) < 3.0 * se

    def test_unbiased_where_survival_factor_exceeds_one(self, baseline_ctx):
        # ~1.8% of slots here have t > 1; clamping them at 1 put p_detect
        # 1.7% (5 SE at 1M slots) below the exact expectation
        rd, eta, _ = _draw_channel(np.random.default_rng(17), baseline_ctx, BATCH_SIZE, McOptions())
        t = baseline_ctx.eta_atm * baseline_ctx.mu_d * capture_exact(rd, baseline_ctx.wz, baseline_ctx.ra) * eta
        assert np.mean(t > 1.0) > 0.01
        rep = run(baseline_ctx, 1_000_000, seed=17)
        assert rep.clamp_rate == 0.0
        exact = detect_prob(replace(baseline_ctx, mu_p_mode="exact"), turbulence="averaged")
        est = rep.estimates
        assert abs(est.p_detect - exact) < 3.0 * est.se["p_detect"]

    def test_stream_does_not_depend_on_capture_underflow(self, baseline_ctx):
        # capture is 1.6e-65 at rd = 1 m and exactly 0 at 1.2 m; neither
        # detects, so every other draw of the batch must be the same
        tiny = run(baseline_ctx, 2 * BATCH_SIZE, seed=18, options=McOptions(force_rd=1.0))
        zero = run(baseline_ctx, 2 * BATCH_SIZE, seed=18, options=McOptions(force_rd=1.2))
        assert tiny.estimates.p_detect == 0.0
        assert tiny == zero


class TestEstimates:
    def test_probabilities_and_se_structure(self, baseline_ctx):
        rep = run(baseline_ctx, N, seed=8)
        est = rep.estimates
        assert est.method == "monte_carlo"
        for p in (est.p_detect, est.p_s1, est.p_s2, est.p_s3, est.p_eff_one):
            assert 0.0 <= p <= 1.0
        assert est.se is not None
        assert est.se["p_detect"] == pytest.approx(
            math.sqrt(est.p_detect * (1.0 - est.p_detect) / N), rel=1e-12
        )
        assert est.se["key_rate"] == pytest.approx(1e8 * est.se["p_eff_one"], rel=1e-12)
        assert est.ci_halfwidth["p_detect"] == pytest.approx(1.96 * est.se["p_detect"])
        assert rep.clamp_rate == 0.0

    def test_qber_bounds_with_enough_bits(self, baseline_ctx):
        est = run(baseline_ctx, N, seed=9).estimates
        assert 0.0 <= est.qber <= 0.5

    def test_key_rate_scaling(self, baseline_ctx):
        est = run(baseline_ctx, N, seed=10).estimates
        assert est.key_rate == pytest.approx(est.p_eff_one / baseline_ctx.T_qs, rel=1e-12)

    def test_grid_capture_mode_close_to_exact_mode(self, baseline_ctx):
        exact = run(baseline_ctx, N, seed=11).estimates
        grid = run(baseline_ctx, N, seed=11, options=McOptions(use_grid_mu_p=True)).estimates
        assert grid.p_detect == pytest.approx(exact.p_detect, abs=5 * exact.se["p_detect"])


class TestChannelDraws:
    def test_displacement_matches_rayleigh(self, baseline_ctx):
        rng = np.random.default_rng(12)
        rd, _, _ = _draw_channel(rng, baseline_ctx, 100_000, McOptions())
        res = stats.kstest(rd, stats.rayleigh(scale=baseline_ctx.pointing.sigma_rd).cdf)
        assert res.pvalue > 0.01

    def test_fading_matches_gamma_gamma(self, baseline_ctx):
        rng = np.random.default_rng(13)
        _, eta, _ = _draw_channel(rng, baseline_ctx, 100_000, McOptions())
        interp = gg_cdf_interpolator(
            baseline_ctx.alpha, baseline_ctx.beta, eta.min() / 2.0, eta.max() * 1.1, n=600
        )
        res = stats.kstest(eta, lambda x: np.clip(interp(x), 0.0, 1.0))
        assert res.pvalue > 0.01

    def test_fov_acceptance_rate(self, baseline_ctx):
        rng = np.random.default_rng(14)
        _, _, accept = _draw_channel(rng, baseline_ctx, 200_000, McOptions())
        target = baseline_ctx.fov.accept_prob
        se = math.sqrt(target * (1.0 - target) / 200_000)
        assert abs(accept.mean() - target) < 3.0 * se

    def test_force_hooks_pin_values(self, baseline_ctx):
        rng = np.random.default_rng(15)
        opts = McOptions(force_rd=0.02, force_eta=1.5, force_fov=False)
        rd, eta, accept = _draw_channel(rng, baseline_ctx, 1000, opts)
        assert np.all(rd == 0.02) and np.all(eta == 1.5) and not accept.any()


class TestSlotSamples:
    def test_sample_invariants(self, baseline_ctx):
        rng = np.random.default_rng(16)
        ctx = with_frozen_mu_b(baseline_ctx, 0.05)  # boost background to see all outcomes
        seen = set()
        for _ in range(5000):
            s = simulate_slot(rng, ctx)
            assert s.n_b >= 0 and s.r_d >= 0 and s.eta_turb > 0
            assert not (s.detected and not s.fov_accept)
            if s.outcome == "bit_error":
                assert not s.detected and s.n_b == 1
            if s.n_b >= 2:
                assert s.outcome == "discarded_multi"
            if not s.detected and s.n_b == 0:
                assert s.outcome == "no_bit"
            if s.detected and s.n_b == 0:
                assert s.outcome == "bit_ok"
            seen.add(s.outcome)
        assert {"no_bit", "bit_ok"} <= seen
