import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import oracles
import uavqkd
from conftest import log_uniform_field, make_config, make_context
from uavqkd import analytics, config
from uavqkd.analytics import detect_prob, evaluate
from uavqkd.beam import build_grid, capture_exact, capture_grid
from uavqkd.channel import background_mean, solid_angle
from uavqkd.config import LinkConfig, build_context
from uavqkd.errors import CaptureOverflowWarning, LinearizationWarning
from uavqkd.sweep import SWEEPABLE

_GL16 = np.polynomial.legendre.leggauss(16)


def _oracle_detect_prob(ctx) -> float:
    """Linearized detection probability by dense composite Gauss-Legendre over rd.

    Panels no wider than half of min(sigma_rd, wz), up to min(12 sigma_rd,
    ra + 9 wz): the first bound leaves e^-72 of the Rayleigh mass out, which
    stays negligible where a grid value reaches ~240 (N_g=2, wz=5 mm,
    ra=1.5 m), and past the second no capture model holds more than
    e^-162 of the beam.
    Grid capture sums, for each node, the segments within 9 wz of it;
    exact capture is the noncentral chi-square CDF 1 - Q1(2 rd/wz, 2 ra/wz).
    """
    sigma, wz, ra = ctx.sigma_rd, ctx.wz, ctx.ra
    top = min(12.0 * sigma, ra + 9.0 * wz)
    panels = max(4, math.ceil(top / (0.5 * min(sigma, wz))))
    edges = np.linspace(0.0, top, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    r = (edges[:-1, None] + half * (1.0 + _GL16[0])).ravel()
    w = (half * _GL16[1]).ravel() * r / sigma**2 * np.exp(-0.5 * (r / sigma) ** 2)
    if ctx.mu_p_mode == "exact":
        mu = special.chndtr((2.0 * ra / wz) ** 2, 2.0, (2.0 * r / wz) ** 2)
    else:
        x, c, ng = ctx.grid.centers, ctx.grid.weights, ctx.grid.ng
        k = min(ng, math.ceil(18.0 * wz / ctx.grid.dx) + 2)
        mu = np.empty_like(r)
        step = max(1, (1 << 20) // k)
        for i in range(0, r.size, step):
            rr = r[i : i + step, None]
            idx = np.clip(np.searchsorted(x, rr - 9.0 * wz), 0, ng - k) + np.arange(k)
            mu[i : i + step] = np.sum(c[idx] * np.exp(-2.0 * ((x[idx] - rr) / wz) ** 2), axis=1)
    p_fov = -math.expm1(-0.5 * (ctx.theta_fov / ctx.sigma_aoa) ** 2)
    return ctx.c_pt * p_fov * float(w @ mu)


def _assert_matches_oracle(ctx) -> None:
    # an absolute 2e-14 c_pt for values near 0; the 12 sigma_rd cut of the
    # oracle leaves out far less
    got, want = detect_prob(ctx), _oracle_detect_prob(ctx)
    assert abs(got - want) <= 1e-9 * want + 2e-14 * ctx.c_pt, (
        f"{ctx.mu_p_mode}: closed form {got:.15g} vs oracle {want:.15g}"
    )


def test_package_exports_its_warnings():
    assert (uavqkd.CaptureOverflowWarning, uavqkd.LinearizationWarning) == (CaptureOverflowWarning, LinearizationWarning)


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
        for field in ("theta_fov", "sigma_aoa"):
            for bad in (0.0, math.nan):
                with pytest.raises(ValueError, match=field):
                    replace(baseline_ctx, **{field: bad})

    @pytest.mark.parametrize("points", [{}, {"wz": np.geomspace(0.005, 2.0, 24)}], ids=["one point", "24 wz"])
    def test_capture_columns_are_the_models_own(self, baseline_cfg, points):
        # mu_p0 and peak: the grid's under "grid", capture_exact at rd = 0 under
        # "exact", for one point and for a wz axis
        ctx = config._derive(baseline_cfg, points)
        grid, wz = ctx.grid, np.atleast_1d(ctx.grid.wz)
        for name in ("mu_p0", "peak"):
            assert ctx._cols[name].tobytes() == np.atleast_1d(getattr(grid, name)).astype(float).tobytes()
        exact = replace(ctx, mu_p_mode="exact")
        want = np.array([capture_exact(0.0, w, ctx.ra) for w in wz.tolist()])
        for name in ("mu_p0", "peak"):
            got = exact._cols[name]
            assert np.all(np.abs(got - want) <= 8.0 * np.spacing(want)), f"{name}: {got} vs {want}"
        assert np.array_equal(exact._cols["mu_p0"], exact._cols["peak"])

    @pytest.mark.parametrize("mode", ["grid", "exact"])
    def test_mu_p_takes_one_beam_radius(self, baseline_cfg, mode):
        # a stated error, not numpy's "truth value of an array is ambiguous"
        ctx = replace(config._derive(baseline_cfg, {"wz": np.array([0.05, 0.1])}), mu_p_mode=mode)
        with pytest.raises(ValueError, match="one point"):
            ctx.mu_p(0.0)
        # P points of one radius share one capture function
        ctx = replace(config._derive(baseline_cfg, {"sigma_theta_e": np.array([1e-5, 2e-5])}), mu_p_mode=mode)
        assert ctx.mu_p(0.0) == replace(build_context(baseline_cfg), mu_p_mode=mode).mu_p(0.0)

    @pytest.mark.parametrize("mode", ["grid", "exact"])
    @pytest.mark.parametrize("axis, value", [("wz", 0.07), ("theta_fov", 1e-4), ("sigma_theta_e", 9e-5)])
    def test_context_of_shape_one_is_its_point(self, baseline_cfg, mode, axis, value):
        # a one-value sweep axis builds a context of shape (1,): the one-point
        # consumers give the values of the context of shape (), bit for bit
        one = replace(config._derive(baseline_cfg, {axis: np.array([value])}), mu_p_mode=mode)
        alone = replace(build_context(replace(baseline_cfg, **{axis: value})), mu_p_mode=mode)
        assert one.shape == (1,)
        got = detect_prob(one, turbulence="averaged")
        assert type(got) is float and got == detect_prob(alone, turbulence="averaged")
        got = one.mu_p(0.02)
        assert type(got) is float and got == alone.mu_p(0.02)
        many = replace(config._derive(baseline_cfg, {axis: np.array([value, 2.0 * value])}), mu_p_mode=mode)
        with pytest.raises(ValueError, match="averaged expectation takes a context of one point"):
            detect_prob(many, turbulence="averaged")

    def test_exact_mu_p_of_a_one_point_wz_axis(self, baseline_cfg):
        # a one-element wz is one beam radius, as it was
        ctx = replace(config._derive(baseline_cfg, {"wz": np.array([0.1])}), mu_p_mode="exact")
        rd = np.array([0.0, 0.02])
        assert ctx.mu_p(rd).tobytes() == capture_exact(rd, 0.1, ctx.ra).tobytes()

    POINTS = {"wz": (0.03, 0.1, 2.0), "sigma_theta_e": (1e-5, 5e-5, 2e-3), "sigma_aoa": (2e-5, 6e-5, 1.5e-4),
              "theta_fov": (5e-6, 1e-4, 2e-3), "B_lambda": (0.0, 1e-6, 1e-4)}

    @pytest.mark.parametrize("base", [make_config(), LinkConfig()], ids=["fov_set", "fov_and_mu_b_derived"])
    @pytest.mark.parametrize("axis", list(POINTS))
    def test_point_k_is_the_points_own_context(self, base, axis):
        # point k of a P-point context holds the floats and the cached grid
        # of the point's own context, and evaluates as it does, bit for bit
        assert set(self.POINTS) == set(SWEEPABLE)
        values = self.POINTS[axis]
        ctx = config._derive(base, {axis: np.array(values)})
        for k, v in enumerate(values):
            point, alone = analytics._point(ctx, k), build_context(replace(base, **{axis: v}))
            assert point.shape == () and point.grid is alone.grid
            for name in ("sigma_rd", "theta_fov", "sigma_aoa", "mu_b"):
                got = getattr(point, name)
                assert type(got) is float and got == getattr(alone, name), name
            assert repr(evaluate(point)) == repr(evaluate(alone))  # every field, NaN included
        assert analytics._point(alone, 2) is alone

    @pytest.mark.parametrize("field", ["sigma_rd", "theta_fov", "sigma_aoa", "mu_b"])
    def test_rejects_a_two_dimensional_per_point_field(self, baseline_ctx, field):
        with pytest.raises(ValueError, match=r"floats or arrays of shape \(P,\)"):
            replace(baseline_ctx, **{field: np.full((2, 2), 0.05)})

    @pytest.mark.parametrize("odd", [2, 1, None], ids=["(2,) beside (3,)", "(1,) beside (3,)", "floats beside (3,)"])
    def test_per_point_field_shapes(self, baseline_cfg, odd):
        """Per-point fields are floats or arrays of one shape (P,): an array
        of another shape, (1,) included, raises, and a float stands for every
        point, bit for bit as the np.full copies of ``_derive``'s former form."""
        ctx = config._derive(baseline_cfg, {"sigma_theta_e": np.array([20e-6, 50e-6, 90e-6])})
        assert ctx.shape == (3,) and np.ndim(ctx.theta_fov) == np.ndim(ctx.sigma_aoa) == np.ndim(ctx.mu_b) == 0
        if odd is not None:
            with pytest.raises(ValueError, match=rf"per-point fields of different shapes \[\({odd},\), \(3,\)\]"):
                replace(ctx, theta_fov=np.full(odd, ctx.theta_fov))
        else:
            cfg, theta = baseline_cfg, np.full(3, ctx.theta_fov)
            mu_b = background_mean(np.full(3, cfg.B_lambda), math.pi * cfg.ra**2, solid_angle(theta),
                                   cfg.delta_lambda, cfg.T_qs, cfg.wavelength, cfg.energy_convention)
            copies = replace(ctx, theta_fov=theta, sigma_aoa=np.full(3, ctx.sigma_aoa), mu_b=mu_b)
            got, want = vars(evaluate(ctx)), vars(evaluate(copies))
            assert ctx.p_fov.tobytes() == copies.p_fov.tobytes()
            assert {k: np.asarray(v).tobytes() for k, v in got.items()} == {
                k: np.asarray(v).tobytes() for k, v in want.items()
            }

    def test_wz_rows_evaluate_in_bounded_memory(self, baseline_cfg):
        # 512 radii at N_g = 2,000: a P x N_g weight matrix would take 8.2 MB;
        # the grid and the Rayleigh average read the weights of 32 rows at a
        # time, and every row equals its point evaluated alone
        cfg = replace(baseline_cfg, Ng=2000)
        wz = np.geomspace(0.005, 2.0, 512)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tracemalloc.start()
            try:
                report = evaluate(config._derive(cfg, {"wz": wz}))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            for k, w in enumerate(wz.tolist()):
                alone = evaluate(build_context(replace(cfg, wz=w)))
                for name, column in vars(report).items():
                    if isinstance(column, np.ndarray):
                        assert column[k].tobytes() == np.float64(getattr(alone, name)).tobytes(), (w, name)
        assert peak < 6 * 2**20

    def test_rejects_nan_slot_time_and_nonpositive_fading_shapes(self, baseline_ctx):
        # a NaN T_qs gave a NaN key rate, alpha or beta <= 0 a NaN averaged p_detect
        with pytest.raises(ValueError, match="T_qs"):
            replace(baseline_ctx, T_qs=math.nan)
        for field in ("alpha", "beta"):
            for bad in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match="alpha and beta"):
                    replace(baseline_ctx, **{field: bad})


class TestDetectProb:
    def test_collapses_to_conditional_at_tiny_jitter(self, baseline_ctx):
        # sigma_rd = 1e-9 m: the Rayleigh average collapses onto rd = 0
        ctx = replace(baseline_ctx, sigma_rd=1e-9)
        assert detect_prob(ctx) == pytest.approx(ctx.c_pt * ctx.p_fov * ctx.mu_p(0.0), abs=1e-6)

    def test_monotone_in_pointing_jitter(self):
        vals = [
            detect_prob(make_context(sigma_theta_e=s))
            for s in (25e-6, 50e-6, 100e-6, 200e-6, 400e-6)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_quadrature_consistency(self, baseline_ctx):
        # the fixed-node engine against the nested adaptive quadrature oracle
        for mode in ("grid", "exact"):
            ctx = replace(baseline_ctx, mu_p_mode=mode)
            got, want = detect_prob(ctx, turbulence="averaged"), oracles.detect_prob_averaged(ctx)
            assert got == pytest.approx(want, rel=1e-9)

    def test_closed_form_reports_no_quadrature_error(self, baseline_ctx):
        # no mode integrates adaptively, so there is no error estimate to return
        for mode in ("grid", "exact"):
            ctx = replace(baseline_ctx, mu_p_mode=mode)
            for turbulence in ("linearized", "averaged"):
                assert type(detect_prob(ctx, turbulence=turbulence)) is float
        with pytest.raises(TypeError):
            detect_prob(baseline_ctx, with_error=True)

    def test_closed_form_makes_no_quadrature_call(self, baseline_ctx, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("detect_prob called scipy.integrate.quad")

        calls = []

        def counting_capture_grid(*args, **kwargs):
            calls.append(args)
            return capture_grid(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", no_quad)
        monkeypatch.setattr(analytics, "capture_grid", counting_capture_grid)
        detect_prob(make_context(wz=0.30))
        assert len(calls) == 0  # mu_p(0) for the linearization check is kept with the grid
        calls.clear()
        detect_prob(baseline_ctx, turbulence="averaged")
        assert len(calls) == 1  # mu_p once, on all the Rayleigh nodes
        detect_prob(replace(baseline_ctx, mu_p_mode="exact"), turbulence="averaged")

    def test_exact_linearized_pass_makes_no_capture_call(self, monkeypatch):
        # mu_p(0) for the linearization check is the closed form at sigma_rd = 0
        wz = np.array([0.03, 0.1, 0.03, 0.5])
        cfg = LinkConfig(mu_t=1.0)
        ctx = replace(config._derive(cfg, {"wz": wz}), mu_p_mode="exact")
        lin = [ctx.c_pt * capture_exact(0.0, w, ctx.ra) for w in wz.tolist()]
        hits = [v for v in lin if v > 0.1]
        want = [f"c_pt * mu_p(0) = {min(hits):.3f} to {max(hits):.3f} > 0.1 at {len(hits)} of 4 points"]

        def no_capture(*args, **kwargs):
            raise AssertionError("linearized detect_prob called capture_exact")

        monkeypatch.setattr(analytics, "capture_exact", no_capture)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = detect_prob(ctx)
        assert got.shape == (4,)
        texts = [str(w.message).split(":")[0] for w in caught if w.category is LinearizationWarning]
        # one warning for the radii where the check fires, with the range of capture_exact's values
        assert 1 < len(hits) < 4 and f"{min(hits):.3f}" != f"{max(hits):.3f}" and texts == want

    def test_wide_jitter_regression(self):
        # sigma_rd = 20 m on the reference link: an adaptive quadrature over
        # the Rayleigh CDF placed no node where the beam lands and gave 8.5e-61
        ctx = build_context(LinkConfig(sigma_theta_e=2e-2))
        assert ctx.sigma_rd == pytest.approx(20.0)
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

    def test_grid_overflow_reported_where_segments_span_half_the_beam(self):
        # dx = wz with even N_g: rd = 0 is a dip (0.9856) between two peaks,
        # and the grid sum reaches 1.0144 at the segment centre 2.5 cm out
        ctx = make_context(Ng=10, ra=0.25, wz=0.05)
        assert ctx.grid.dx == ctx.wz and ctx.grid.mu_p0 < 1.0
        with pytest.warns(CaptureOverflowWarning, match="1.44e-02"):
            evaluate(ctx)

    @pytest.mark.parametrize(
        "ng,wz,ra,linearization",
        [
            (2, 0.005, 1.5, 0),  # spikes between segments, seen by the segment-centre probe
            (5, 0.065, 0.15, 1),  # dx/wz = 0.92: the grid sum at rd = 0 exceeds 1
        ],
    )
    def test_warnings_once_per_call(self, ng, wz, ra, linearization):
        build_grid.cache_clear()
        ctx = make_context(Ng=ng, wz=wz, ra=ra, sigma_theta_e=7.5e-4)
        assert (ctx.grid.dx > wz) == (ng == 2)
        for _ in range(3):  # the first call, then calls on the same cached grid
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                detect_prob(ctx)
            got = [w.category for w in caught]
            assert got.count(CaptureOverflowWarning) == 1
            assert got.count(LinearizationWarning) == linearization
            assert len(got) == 1 + linearization

    def test_averaged_path_finite_for_vanishing_signal(self, baseline_ctx):
        # 1 - E[e^-s eta] is computed directly, never as a difference divided by s
        ctx = replace(baseline_ctx, mu_t=1e-300)
        val = detect_prob(ctx, turbulence="averaged")
        # the linearization is exact here, and the fixed-node engine is
        # relative-accurate however small the signal
        assert math.isfinite(val) and val > 0.0
        assert val == pytest.approx(detect_prob(ctx), rel=1e-12)

    def test_averaged_path_sees_grid_spikes(self):
        # N_g = 2 segments 1.5 m wide for a 5 mm beam: the grid model is two
        # 5 mm spikes at rd = 0.75 m, which an adaptive quadrature over the
        # Rayleigh CDF stepped over (8.0e-15 for 1.88e-3 at sigma_rd = 2 m)
        ctx = make_context(Ng=2, wz=0.005, ra=1.5, sigma_theta_e=2e-3)
        assert ctx.sigma_rd == pytest.approx(2.0)
        got = detect_prob(ctx, turbulence="averaged")
        assert got == pytest.approx(oracles.detect_prob_averaged(ctx), rel=1e-9)
        assert got == pytest.approx(1.885e-3, rel=1e-3)

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
        scaled = replace(scaled, mu_b=baseline_ctx.mu_b)
        assert detect_prob(scaled) == pytest.approx(detect_prob(baseline_ctx), rel=1e-10)
        assert evaluate(scaled).key_rate == pytest.approx(evaluate(baseline_ctx).key_rate, rel=1e-10)


class TestKeyMetrics:
    def test_dark_limit(self, baseline_ctx):
        ctx = replace(baseline_ctx, mu_b=0.0)
        i = detect_prob(ctx)
        r = evaluate(ctx)
        assert (r.p_s1, r.p_s2, r.p_s3) == pytest.approx((i, 0.0, 0.0), rel=1e-12)
        assert r.p_eff_one == pytest.approx(i, rel=1e-12)
        assert r.qber == 0.0

    def test_no_signal_limit(self):
        # pointing jitter so large (sigma_rd = 20 m) that the beam rarely hits
        ctx = replace(make_context(sigma_theta_e=2e-2), mu_b=1.0)
        sigma, wz, ra = ctx.sigma_rd, ctx.wz, ctx.ra
        scale = ctx.c_pt * -math.expm1(-0.5 * (ctx.theta_fov / ctx.sigma_aoa) ** 2)
        # exact-capture closed form; the grid model differs from it by at most
        # the Rayleigh average of |grid - exact| capture, which vanishes past ra + 9 wz
        i_exact = scale * -math.expm1(-2.0 * ra * ra / (wz * wz + 4.0 * sigma * sigma))
        rd = np.linspace(0.0, ra + 9.0 * wz, 4001)
        pdf = rd / sigma**2 * np.exp(-0.5 * (rd / sigma) ** 2)
        gap = np.abs(capture_grid(ctx.grid, rd) - capture_exact(rd, wz, ra))
        tol = scale * float(np.trapezoid(gap * pdf, rd)) * 1.01
        eb = math.exp(-1.0)
        r = evaluate(ctx)
        s1, s2, s3 = r.p_s1, r.p_s2, r.p_s3
        assert s1 == pytest.approx(eb * i_exact, abs=eb * tol)
        assert s2 == pytest.approx(eb * (1.0 - i_exact), abs=eb * tol)
        assert s3 == pytest.approx(0.5 * eb * i_exact, abs=0.5 * eb * tol)
        assert s1 < 1e-5 and s3 < 1e-5
        assert r.p_eff_one == pytest.approx(eb, rel=1e-5)
        assert r.qber == pytest.approx(0.5, abs=1e-4)

    def test_state_decomposition_identity(self, baseline_ctx):
        r = evaluate(baseline_ctx)
        assert abs(r.p_eff_one - (r.p_s1 + r.p_s2 + r.p_s3)) < 1e-15

    def test_key_rate_product(self, baseline_ctx):
        r = evaluate(baseline_ctx)
        assert r.key_rate == pytest.approx(r.p_eff_one / baseline_ctx.T_qs, rel=1e-12)

    def test_evaluate_consistency(self, baseline_ctx):
        report = evaluate(baseline_ctx)
        assert report.method == "analytic"
        assert report.se is None
        assert report.p_detect == pytest.approx(detect_prob(baseline_ctx), rel=1e-12)
        assert report.qber == pytest.approx(0.5 * report.p_s2 / report.p_eff_one, rel=1e-12)
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
    report = evaluate(ctx)
    assert 0.0 <= report.qber <= 0.5
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
    ctx = replace(ctx, sigma_rd=sigma_rd)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinearizationWarning)
        _assert_matches_oracle(ctx)
        _assert_matches_oracle(replace(ctx, mu_p_mode="exact"))


@settings(max_examples=15, deadline=None)
@given(
    ng=log_uniform_field("Ng").map(lambda v: int(round(v))),
    wz=log_uniform_field("wz"),
    ra=log_uniform_field("ra"),
    sigma_theta_e=log_uniform_field("sigma_theta_e"),
    lz=log_uniform_field("Lz"),
    mu_t=log_uniform_field("mu_t"),
    eta_atm=log_uniform_field("eta_atm"),
    mu_d=log_uniform_field("mu_d"),
    alpha=log_uniform_field("alpha"),
    beta=log_uniform_field("beta"),
)
# N_g = 10 over ra = 15 cm: dx / wz = 0.3, the widest segments that take wide panels
# (at c_pt mu_p(0) = 0.099), then 0.34 and 0.75, where the grid sum ripples (at c_pt = 5)
@example(ng=10, wz=0.1, ra=0.15, sigma_theta_e=1e-4, lz=1e3, mu_t=0.5, eta_atm=0.4, mu_d=0.5, alpha=0.2, beta=25.0)
@example(ng=10, wz=0.0882, ra=0.15, sigma_theta_e=1e-4, lz=1e3, mu_t=5.0, eta_atm=1.0, mu_d=1.0, alpha=0.2, beta=25.0)
@example(ng=10, wz=0.04, ra=0.15, sigma_theta_e=1e-4, lz=1e3, mu_t=5.0, eta_atm=1.0, mu_d=1.0, alpha=0.2, beta=25.0)
# sigma_rd = 20 wz at c_pt = 5 and c_pt mu_p(0) = 0.072: wide panels miss by 3.5e-13 here
@example(ng=100, wz=0.176, ra=0.015, sigma_theta_e=3.5e-3, lz=1e3, mu_t=5.0, eta_atm=1.0, mu_d=1.0, alpha=0.41, beta=0.26)
def test_averaged_engine_matches_nested_quadrature_oracle(ng, wz, ra, sigma_theta_e, lz, mu_t, eta_atm, mu_d, alpha, beta):
    ctx = make_context(
        Ng=ng, wz=wz, ra=ra, sigma_theta_e=sigma_theta_e, Lz=lz, mu_t=mu_t, eta_atm=eta_atm, mu_d=mu_d, alpha=alpha,
        beta=beta,
    )
    for mode in ("grid", "exact"):
        c = replace(ctx, mu_p_mode=mode)
        got, want = detect_prob(c, turbulence="averaged"), oracles.detect_prob_averaged(c)
        assert abs(got - want) <= 1e-9 * want, f"{mode}: engine {got:.15g} vs oracle {want:.15g}"


@pytest.mark.parametrize(
    "ra,sigma_theta_e,alpha", [(0.03, 1.5e-4, 24.6), (0.06, 2.5e-3, 24.5)], ids=["sigma_rd=wz", "sigma_rd=17wz"]
)
def test_averaged_engine_keeps_narrow_panels_for_a_strong_signal(ra, sigma_theta_e, alpha):
    # c_pt = 5 and c_pt mu_p(0) = 0.38 and 1.4 on a smooth grid: the fading
    # mean's branch cut at negative c_pt mu_p lies close enough to the rd axis
    # that panels of 2 min(sigma_rd, wz) missed the oracle by 4.6e-11 and
    # 2.7e-11; those of min(sigma_rd, wz) by 3e-15
    ctx = make_context(Ng=1000, wz=0.15, ra=ra, sigma_theta_e=sigma_theta_e, mu_t=5.0, eta_atm=1.0, mu_d=1.0,
                       alpha=alpha, beta=0.23)
    for mode in ("grid", "exact"):
        c = replace(ctx, mu_p_mode=mode)
        got, want = detect_prob(c, turbulence="averaged"), oracles.detect_prob_averaged(c)
        assert abs(got - want) <= 1e-11 * want, f"{mode}: engine {got:.15g} vs oracle {want:.15g}"


@pytest.mark.parametrize(
    "overrides,grid_nodes,exact_nodes",
    [
        (dict(mu_t=0.25), 64, 64),  # dx / wz = 0.3 and c_pt mu_p(0) = 0.059: half the nodes of narrow panels
        (dict(mu_t=0.25, Ng=4), 128, 64),  # dx / wz = 0.75: the grid sum ripples, exact capture does not
        (dict(), 128, 128),  # c_pt mu_p(0) = 0.119, past the linearization's limit
    ],
    ids=["smooth", "ripple", "strong"],
)
def test_averaged_engine_node_count(monkeypatch, overrides, grid_nodes, exact_nodes):
    # sigma_rd = 5 cm and wz = 10 cm: nodes over [0, 8 sigma_rd] in panels of
    # min(sigma_rd, wz) hold 8 x 16 = 128, in panels twice as wide 64
    sizes = []

    def counting_nodes(*args):
        r, w = rayleigh_nodes(*args)
        sizes.append(r.size)
        return r, w

    rayleigh_nodes = analytics._rayleigh_nodes
    monkeypatch.setattr(analytics, "_rayleigh_nodes", counting_nodes)
    ctx = make_context(**overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CaptureOverflowWarning)
        for mode in ("grid", "exact"):
            detect_prob(replace(ctx, mu_p_mode=mode), turbulence="averaged")
    assert sizes == [grid_nodes, exact_nodes]


def test_averaged_engine_matches_oracle_at_grid_corner():
    # N_g = 2, wz = 5 mm, ra = 1.5 m across the jitter range of the box,
    # with the strongest signal the box allows; at sigma_rd = 0.065 m the
    # spike at rd = 0.75 m lies past 8 sigma_rd, and a cut there returns 0
    # for 4.5e-29
    for sigma_theta_e, lz in ((5e-6, 1e2), (6.5e-5, 1e3), (1e-4, 1e3), (7.5e-4, 1e3), (2e-3, 1e3), (2e-2, 1e4)):
        ctx = make_context(Ng=2, wz=0.005, ra=1.5, sigma_theta_e=sigma_theta_e, Lz=lz, mu_t=5.0)
        for mode in ("grid", "exact"):
            c = replace(ctx, mu_p_mode=mode)
            got, want = detect_prob(c, turbulence="averaged"), oracles.detect_prob_averaged(c)
            assert abs(got - want) <= 1e-9 * want, f"{mode} sigma_rd={c.sigma_rd}: {got!r} vs {want!r}"


@pytest.mark.parametrize(
    "ra,wz,sigma_rd,link",
    [
        (0.906, 0.64, 11.7,
         dict(mu_t=3.68, eta_atm=0.166, mu_d=0.265, theta_fov=1.43e-4, sigma_aoa=5.17e-5, alpha=0.652, beta=8.39)),
        (0.0332, 7.9e-3, 0.171,
         dict(mu_t=0.206, eta_atm=1.48e-3, mu_d=0.144, theta_fov=2.78e-5, sigma_aoa=2.14e-5, alpha=0.888, beta=0.893)),
    ],
    ids=["wz=0.64m", "wz=7.9mm"],
)
def test_averaged_engine_matches_oracle_on_the_blocked_grid_sum(ra, wz, sigma_rd, link):
    # two N_g = 100,000 design points, grids 35,000 and 12,000 segments per
    # wz: the engine's capture values come from the blocked grid sum, the
    # oracle's from the full sum over every segment
    grid = build_grid(ra, wz, 100_000)
    assert grid._blocks[2] > 0.0
    ctx = analytics.AnalyticContext(T_qs=1e-8, grid=grid, sigma_rd=sigma_rd, mu_b=0.0, **link)
    got, want = detect_prob(ctx, turbulence="averaged"), oracles.detect_prob_averaged(ctx)
    assert abs(got - want) <= 1e-9 * want, f"engine {got:.15g} vs oracle {want:.15g}"


@settings(max_examples=40, deadline=None)
@given(
    alpha=log_uniform_field("alpha"),
    beta=log_uniform_field("beta"),
    s=st.floats(-8.0, 3.3).map(lambda e: 10.0**e),
)
def test_fading_mean_matches_tricomi_u(alpha, beta, s):
    # E[exp(-s eta)] = z^alpha U(alpha, alpha - beta + 1, z), z = alpha beta / s,
    # for unit-mean Gamma-Gamma eta; mpmath at 40 digits, because
    # scipy.special.hyperu is itself off by orders of magnitude at
    # alpha = beta = 25, s = 1e3
    got = analytics._fading_mean(np.array([s]), alpha, beta)[0]
    with mpmath.workdps(40):
        z = mpmath.mpf(alpha) * mpmath.mpf(beta) / mpmath.mpf(s)
        want = float(1 - z**alpha * mpmath.hyperu(alpha, alpha - beta + 1, z))
    assert got == pytest.approx(want, rel=1e-12)
