import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import log_uniform_field, make_context
from oracles import gg_cdf_interpolator
from uavqkd import config, montecarlo
from uavqkd.analytics import detect_prob
from uavqkd.beam import capture_exact
from uavqkd.channel import gg_sample
from uavqkd.montecarlo import (
    BATCH_SIZE,
    OUTCOMES,
    _draw_channel,
    _draw_slots,
    _fov_accepted,
    run,
)

N = 200_000


def pin_channel(monkeypatch, rd=None, eta=None, fov=None):
    """Pin channel factors of every later draw by wrapping ``_draw_channel``;
    a second call replaces the first pin.

    The channel is still drawn in full before a factor is replaced, so
    pinning one factor consumes the same random numbers and does not shift
    the others.
    """

    def pinned(rng, ctx, m):
        r, e, a = _draw_channel(rng, ctx, m)
        return (
            r if rd is None else (lambda i: np.full(np.size(i), rd)),
            e if eta is None else np.full(m, eta),
            a if fov is None else np.arange(m if fov else 0),
        )

    monkeypatch.setattr(montecarlo, "_draw_channel", pinned)


# Slot states of the oracle below, in the order of montecarlo.OUTCOMES
_NONE, _S1, _S2_OK, _S2_ERR, _S3, _MULTI = range(6)


def eager_draw_slots(rng, ctx, m):
    """An independent copy of the dense slot classifier that the sparse
    ``_draw_slots`` replaced: ``rng.normal`` draws, ``np.hypot`` on every
    slot, the thinning bound on every slot and a per-slot state array.
    Returns (state, detected, n_b, r_d, eta_turb, fov_accept, candidate, u),
    each an array over all m slots; u is the detection uniform."""
    g = rng.normal(0.0, ctx.sigma_rd, (2, m))
    rd = np.hypot(g[0], g[1])
    eta = gg_sample(rng, ctx.alpha, ctx.beta, m)
    a = rng.normal(0.0, ctx.sigma_aoa, (2, m))
    accept = np.hypot(a[0], a[1]) <= ctx.theta_fov
    u = rng.random(m)
    cand = accept & (u < -np.expm1(-ctx.mu_t * (ctx.eta_atm * ctx.mu_d * (1.0 + 1e-9) * eta)))
    t = ctx.eta_atm * ctx.mu_d * montecarlo.capture_exact(rd[cand], ctx.wz, ctx.ra) * eta[cand]
    sig = np.zeros(m, dtype=bool)
    sig[cand] = u[cand] < -np.expm1(-ctx.mu_t * t)  # n_q >= 1
    n_b = rng.poisson(ctx.mu_b, m)
    heads = rng.random(m) < 0.5  # fair polarization coin

    state = np.where(n_b >= 2, _MULTI, np.where(sig, _S1, _NONE))
    one_b = n_b == 1
    state[one_b] = np.where(sig, np.where(heads, _S3, _MULTI), np.where(heads, _S2_ERR, _S2_OK))[one_b]
    return state, sig, n_b, rd, eta, accept, cand, u


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

    def test_rejects_fewer_than_one_worker(self, baseline_ctx):
        with pytest.raises(ValueError, match="workers"):
            run(baseline_ctx, 1000, seed=1, workers=0)

    @pytest.mark.parametrize(
        "counts", [{"n_slots": True}, {"n_slots": 1000.0}, {"workers": 1.5}, {"workers": True}],
        ids=["n_slots_bool", "n_slots_float", "workers_float", "workers_bool"],
    )
    def test_rejects_a_count_that_is_not_an_integer(self, baseline_ctx, counts):
        # True simulated one slot and 1000.0 failed inside SeedSequence.spawn
        [name] = counts
        args = {"n_slots": 1000, "workers": 1, **counts}
        with pytest.raises(ValueError, match=f"{name} must be an integer, not"):
            run(baseline_ctx, args["n_slots"], seed=1, workers=args["workers"])

    def test_takes_numpy_integer_counts(self, baseline_ctx):
        report = run(baseline_ctx, np.int64(5000), seed=1, workers=np.int32(2))
        assert report == run(baseline_ctx, 5000, seed=1)
        assert type(report.n_slots) is int and type(report.estimates.p_detect) is float

    @pytest.mark.parametrize(
        "axis, value", [("wz", 0.07), ("theta_fov", 1e-4), ("sigma_aoa", 2e-5), ("sigma_theta_e", 9e-5), ("B_lambda", 1e-4)]
    )
    def test_context_of_shape_one_is_its_point(self, baseline_cfg, axis, value):
        # a one-value sweep axis builds a context of shape (1,): the same one
        # point as the context of shape (), and the same report bit for bit
        one = config._derive(baseline_cfg, {axis: np.array([value])})
        assert one.shape == (1,)
        n = BATCH_SIZE + 1001
        assert run(one, n, seed=3) == run(make_context(**{axis: value}), n, seed=3)
        with pytest.raises(ValueError, match="simulates a context of one point"):
            run(config._derive(baseline_cfg, {axis: np.array([value, 2.0 * value])}), n, seed=3)


class TestOutcomeOracles:
    def test_empty_source_never_produces_bits(self, baseline_ctx):
        ctx = replace(baseline_ctx, mu_t=1e-300, mu_b=0.0)
        report = run(ctx, 50_000, seed=3).estimates
        assert report.p_detect == 0.0
        assert report.p_eff_one == 0.0
        assert math.isnan(report.qber)

    def test_dark_runs_have_no_errors(self, baseline_ctx):
        ctx = replace(baseline_ctx, mu_b=0.0)
        report = run(ctx, N, seed=4).estimates
        assert report.p_s2 == 0.0 and report.p_s3 == 0.0
        assert report.qber == 0.0

    def test_background_only_poisson_single_count(self, baseline_ctx, monkeypatch):
        # signal path suppressed: P(bit) = P(n_b = 1) = e^-1
        ctx = replace(baseline_ctx, mu_b=1.0)
        pin_channel(monkeypatch, eta=0.0)
        report = run(ctx, 1_000_000, seed=5).estimates
        target = math.exp(-1.0)
        se = math.sqrt(target * (1.0 - target) / 1_000_000)
        assert abs(report.p_eff_one - target) < 3.0 * se
        assert report.qber == pytest.approx(0.5, abs=0.01)

    def test_poisson_thinning_closed_form(self, baseline_ctx, monkeypatch):
        # turbulence and FoV pinned, beam centered: detection is pure thinning
        pin_channel(monkeypatch, rd=0.0, eta=1.0, fov=True)
        report = run(baseline_ctx, 1_000_000, seed=6).estimates
        mu_p0 = 1.0 - math.exp(-4.5)
        target = 1.0 - math.exp(-0.5 * 0.4 * 0.6 * mu_p0)
        se = math.sqrt(target * (1.0 - target) / 1_000_000)
        assert abs(report.p_detect - target) < 3.0 * se

    def test_unbiased_where_survival_factor_exceeds_one(self, baseline_ctx):
        # ~1.8% of slots here have t > 1; clamping them at 1 put p_detect
        # 1.7% (5 SE at 1M slots) below the exact expectation
        rd, eta, _ = _draw_channel(np.random.default_rng(17), baseline_ctx, BATCH_SIZE)
        rd = rd(np.arange(BATCH_SIZE))
        t = baseline_ctx.eta_atm * baseline_ctx.mu_d * capture_exact(rd, baseline_ctx.wz, baseline_ctx.ra) * eta
        assert np.mean(t > 1.0) > 0.01
        rep = run(baseline_ctx, 1_000_000, seed=17)
        assert rep.clamp_rate == 0.0
        exact = detect_prob(replace(baseline_ctx, mu_p_mode="exact"), turbulence="averaged")
        est = rep.estimates
        assert abs(est.p_detect - exact) < 3.0 * est.se["p_detect"]

    def test_stream_does_not_depend_on_capture_underflow(self, baseline_ctx, monkeypatch):
        # capture is 1.6e-65 at rd = 1 m and exactly 0 at 1.2 m; neither
        # detects, so every other draw of the batch must be the same
        pin_channel(monkeypatch, rd=1.0)
        tiny = run(baseline_ctx, 2 * BATCH_SIZE, seed=18)
        pin_channel(monkeypatch, rd=1.2)
        zero = run(baseline_ctx, 2 * BATCH_SIZE, seed=18)
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
        assert rep.clamp_rate == 0.0

    def test_outcome_counts(self):
        ctx = make_context(mu_t=5.0, mu_b=0.05)  # every outcome occurs
        rep = run(ctx, N, seed=11)
        est, counts = rep.estimates, dict(zip(OUTCOMES, rep.outcomes))
        assert sum(rep.outcomes) == N and min(rep.outcomes) > 0
        assert counts["s1"] / N == est.p_s1 and counts["s3"] / N == est.p_s3
        assert (counts["s2_ok"] + counts["s2_err"]) / N == est.p_s2
        assert est.qber == counts["s2_err"] / (counts["s1"] + counts["s2_ok"] + counts["s2_err"] + counts["s3"])
        assert counts["s1"] + counts["s3"] <= round(est.p_detect * N)  # kept signal bits were detected

    def test_qber_bounds_with_enough_bits(self, baseline_ctx):
        est = run(baseline_ctx, N, seed=9).estimates
        assert 0.0 <= est.qber <= 0.5

    def test_key_rate_scaling(self, baseline_ctx):
        est = run(baseline_ctx, N, seed=10).estimates
        assert est.key_rate == pytest.approx(est.p_eff_one / baseline_ctx.T_qs, rel=1e-12)


class TestChannelDraws:
    def test_displacement_matches_rayleigh(self, baseline_ctx):
        rng = np.random.default_rng(12)
        rd, _, _ = _draw_channel(rng, baseline_ctx, 100_000)
        res = stats.kstest(rd(np.arange(100_000)), stats.rayleigh(scale=baseline_ctx.sigma_rd).cdf)
        assert res.pvalue > 0.01

    def test_fading_matches_gamma_gamma(self, baseline_ctx):
        rng = np.random.default_rng(13)
        _, eta, _ = _draw_channel(rng, baseline_ctx, 100_000)
        interp = gg_cdf_interpolator(
            baseline_ctx.alpha, baseline_ctx.beta, eta.min() / 2.0, eta.max() * 1.1, n=600
        )
        res = stats.kstest(eta, lambda x: np.clip(interp(x), 0.0, 1.0))
        assert res.pvalue > 0.01

    def test_fov_acceptance_rate(self, baseline_ctx):
        rng = np.random.default_rng(14)
        _, _, accepted = _draw_channel(rng, baseline_ctx, 200_000)
        target = baseline_ctx.p_fov
        se = math.sqrt(target * (1.0 - target) / 200_000)
        assert abs(accepted.size / 200_000 - target) < 3.0 * se

    def test_force_hooks_pin_values(self, baseline_ctx, monkeypatch):
        free = _draw_slots(np.random.default_rng(15), baseline_ctx, 1000)
        pin_channel(monkeypatch, rd=0.02, eta=1.5, fov=False)
        rd, eta, accepted = montecarlo._draw_channel(np.random.default_rng(15), baseline_ctx, 1000)
        assert np.all(rd(np.arange(1000)) == 0.02) and np.all(eta == 1.5) and accepted.size == 0
        counts, detected, n_b, cand = _draw_slots(np.random.default_rng(15), baseline_ctx, 1000)
        assert detected.size == 0 and cand.size == 0 and counts[OUTCOMES.index("s1")] == 0
        assert np.array_equal(n_b, free[2])  # the later draws are not shifted


class TestSlotSamples:
    def test_sample_invariants(self, baseline_ctx):
        m = 20_000
        ctx = replace(baseline_ctx, mu_b=0.05)  # boost background to see all outcomes
        rd, eta, accepted = _draw_channel(np.random.default_rng(16), ctx, m)  # the same channel draws
        counts, detected, n_b, cand = _draw_slots(np.random.default_rng(16), ctx, m)
        none, s1, s2_ok, s2_err, s3, multi = counts
        assert np.all(n_b >= 0) and np.all(rd(np.arange(m)) >= 0) and np.all(eta > 0)
        assert np.isin(detected, cand).all() and np.isin(cand, accepted).all()  # none outside the FoV
        dark = n_b[detected] == 0
        assert s1 == np.count_nonzero(dark)  # signal alone is a kept bit
        assert s3 <= np.count_nonzero(n_b[detected] == 1)  # the coin keeps some signal + background
        assert s2_ok + s2_err == np.count_nonzero(n_b == 1) - np.count_nonzero(n_b[detected] == 1)
        assert none == np.count_nonzero(n_b == 0) - s1  # no count, no bit
        assert multi >= np.count_nonzero(n_b >= 2)  # multi-counts are discarded
        assert counts.sum() == m and np.all(counts > 0)  # every outcome is exercised


class TestThinning:
    @pytest.mark.parametrize(
        "capture",
        [
            lambda rd, wz, ra: np.ones_like(rd),
            lambda rd, wz, ra: np.full_like(rd, 1.0 - 1e-16),
            lambda rd, wz, ra: np.zeros_like(rd),
            capture_exact,
        ],
        ids=["one", "one_minus_1e-16", "zero", "exact"],
    )
    def test_matches_eager_classifier(self, baseline_ctx, monkeypatch, capture):
        monkeypatch.setattr(montecarlo, "capture_exact", capture)
        ctx = replace(baseline_ctx, mu_t=5.0, mu_b=0.05)  # many detections, every state
        state, sig, n_b, rd, eta, accept, cand, u = eager_draw_slots(np.random.default_rng(19), ctx, BATCH_SIZE)
        counts, detected, got_n_b, got_cand = _draw_slots(np.random.default_rng(19), ctx, BATCH_SIZE)
        assert np.array_equal(counts, np.bincount(state, minlength=len(OUTCOMES)))
        assert np.array_equal(detected, np.flatnonzero(sig))
        assert np.array_equal(got_n_b, n_b)
        assert np.array_equal(got_cand, np.flatnonzero(cand))
        # thinning decides as a capture value on every slot would
        t = ctx.eta_atm * ctx.mu_d * capture(rd, ctx.wz, ctx.ra) * eta
        assert np.array_equal(sig, u < -np.expm1(-ctx.mu_t * np.where(accept, t, 0.0)))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(mu_b=100.0),  # every slot a multi-count
            dict(Ng=2, wz=0.005, ra=1.5, mu_t=5.0, sigma_theta_e=1e-3),
            dict(theta_fov=2e-3, mu_b=0.05),
            dict(theta_fov=5e-7),  # almost no slot inside the FoV
            dict(theta_fov=5e-6, sigma_aoa=5e-6, mu_t=5.0, mu_b=0.3),
        ],
        ids=["mu_b=100", "grid_corner", "fov=2mrad", "fov=0.5urad", "fov=sigma_aoa"],
    )
    def test_matches_eager_classifier_over_the_box(self, overrides):
        ctx = make_context(**overrides)
        for seed, m in ((23, BATCH_SIZE), (24, 1001)):
            state, sig, n_b, *_, cand, _ = eager_draw_slots(np.random.default_rng(seed), ctx, m)
            counts, detected, got_n_b, got_cand = _draw_slots(np.random.default_rng(seed), ctx, m)
            assert np.array_equal(counts, np.bincount(state, minlength=len(OUTCOMES)))
            assert np.array_equal(detected, np.flatnonzero(sig))
            assert np.array_equal(got_n_b, n_b)
            assert np.array_equal(got_cand, np.flatnonzero(cand))

    @settings(max_examples=200, deadline=None)
    @given(log_uniform_field("wz"), log_uniform_field("ra"), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @example(0.005, 1.5, [0.0, 0.5])  # b = 2 ra / wz = 600, rd inside the aperture
    @example(10.0, 0.015, [0.0, 1.0])  # b = 0.003
    def test_exact_capture_never_exceeds_the_thinning_bound(self, wz, ra, fractions):
        # the thinning is exact only while no exact capture value exceeds
        # _CAP_MAX_EXACT: over the box, rd = 0, rd = 1e-161 (a subnormal
        # noncentrality) and draws up to ra + 12 wz, array and scalar path
        rd = np.array([0.0, 1e-161] + [f * (ra + 12.0 * wz) for f in fractions])
        assert capture_exact(rd, wz, ra).max() <= montecarlo._CAP_MAX_EXACT
        assert max(capture_exact(r, wz, ra) for r in rd.tolist()) <= montecarlo._CAP_MAX_EXACT

    def test_capture_evals_counts_candidates(self, baseline_ctx):
        n = 2 * BATCH_SIZE + 1001
        rep = run(baseline_ctx, n, seed=21)
        children = np.random.SeedSequence(21).spawn(3)
        sizes = (BATCH_SIZE, BATCH_SIZE, 1001)
        cands = [_draw_slots(np.random.default_rng(ss), baseline_ctx, m)[-1] for ss, m in zip(children, sizes)]
        assert rep.capture_evals == sum(c.size for c in cands)
        assert round(rep.estimates.p_detect * n) <= rep.capture_evals < n // 10
        assert run(baseline_ctx, n, seed=21, workers=2) == rep


class TestFovEdge:
    def test_matches_hypot_off_the_edge(self):
        rng = np.random.default_rng(26)
        z = rng.standard_normal((2, BATCH_SIZE))
        for sigma, theta in ((50e-6, 100e-6), (5e-6, 2e-3), (2e-3, 5e-7), (5e-6, 5e-6)):
            want = np.flatnonzero(np.hypot(sigma * z[0], sigma * z[1]) <= theta)
            assert np.array_equal(_fov_accepted(z, sigma, theta), want)


# sha256 of repr(McReport.estimates), recorded with the eager classifier
# (capture on every slot) before thinning: any change to the draw stream
# or to a detection decision changes them
PINNED_DIGESTS = {
    "baseline": "c09d58434032de7b",
    "grid_corner": "ef9c3ef0a9476027",
    "no_bits": "d2f5a59ecd7cb18b",  # QBER and its SE are NaN
}
DIGEST_CONFIGS = {
    "baseline": {},
    # N_g=2, wz=5 mm, ra=1.5 m: the corner where the grid sum reaches 239,
    # with 1 mrad of jitter (sigma_rd = 1 m)
    "grid_corner": dict(Ng=2, wz=0.005, ra=1.5, mu_t=5.0, sigma_theta_e=1e-3),
    "no_bits": dict(mu_b=100.0),
}


@pytest.mark.parametrize("workers", [1, 2])
# ids end in "-False" (exact capture) to match the ids of earlier test reports
@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS), ids=lambda name: f"{name}-False")
def test_reports_match_pinned_digests(name, workers):
    ctx = make_context(**DIGEST_CONFIGS[name])
    rep = run(ctx, 2 * BATCH_SIZE + 1001, seed=20261018, workers=workers)
    assert hashlib.sha256(repr(rep.estimates).encode()).hexdigest()[:16] == PINNED_DIGESTS[name]
