import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_config
from uavqkd import analytics, beam, config, montecarlo, output
from uavqkd import sweep as sweep_module
from uavqkd.config import LinkConfig, build_context
from uavqkd.errors import CaptureOverflowWarning, ConfigError, LinearizationWarning
from uavqkd.analytics import PerformanceReport
from uavqkd.sweep import OptimizeResult, SweepSpec, optimize, sweep

# report field -> output row column
_FIELDS = {
    "p_detect": "p_detect",
    "p_s1": "p_s1",
    "p_s2": "p_s2",
    "p_s3": "p_s3",
    "p_eff_one": "p_eff_one",
    "key_rate": "key_rate_bps",
    "qber": "qber",
}


def _recorded(fn):
    """fn()'s result and the (category, text) of every warning it issued, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [(w.category, str(w.message)) for w in caught]


def _one_by_one(base, spec):
    """(report, warnings) of every sweep point evaluated from its own config, in sweep order."""
    overlays = spec.overlay_values if spec.overlay else (None,)
    out = []
    for ov in overlays:
        for v in spec.values:
            cfg = replace(base, **{spec.axis: v, **({spec.overlay: ov} if spec.overlay else {})})
            out.append(_recorded(lambda: analytics.evaluate(build_context(cfg))))
    return out


# a warning's figures: "by <lo>[ to <hi>] ... at <k> of <n> points" or "= <lo>[ to <hi>] ..."
_CROSSING = re.compile(r"(?:by|=) (\S+)(?: to (\S+))? .*?at (\d+) of (\d+) points")


def _crossings(warned):
    """Each warning as (category, lo, hi, count, of points, its text without the figures)."""
    out = []
    for cat, text in warned:
        m = _CROSSING.search(text)
        lo, hi, k, n = m.groups()
        out.append((cat, float(lo), float(hi or lo), int(k), int(n), text[: m.start()] + text[m.end() :]))
    return out


def _assert_same(got, want):
    """A report, or an output row of the array pass, equals the report of
    the point evaluated alone, bit for bit (NaN equals NaN)."""
    for name, column in _FIELDS.items():
        a = got[column] if isinstance(got, dict) else getattr(got, name)
        b = getattr(want, name)
        assert type(a) is float, name
        assert a == b or (math.isnan(a) and math.isnan(b)), f"{name}: {a!r} vs {b!r}"


def _assert_array_pass_matches(base, spec):
    """The rows of the array pass equal each point evaluated alone, bit for
    bit. Its warnings: the pass's one ``evaluate`` call issues one warning
    of each kind that a point issues alone, which names how many of the
    points warn alone and the min and max of their values. Returns the
    sweep result and the pass's (category, text) warnings."""
    result, warned = _recorded(lambda: sweep(base, spec))
    alone = _one_by_one(base, spec)
    assert len(result.rows) == len(alone)
    for row, (rep, _) in zip(result.rows, alone):
        _assert_same(row, rep)
    points = [_crossings(point_warned) for _, point_warned in alone]
    assert all((w[3], w[4]) == (1, 1) and w[1] == w[2] for point in points for w in point)
    want = []
    for cat in (CaptureOverflowWarning, LinearizationWarning):
        hits = [w for point in points for w in point if w[0] is cat]
        if hits:
            lo, hi = min(w[1] for w in hits), max(w[2] for w in hits)
            want.append((cat, lo, hi, len(hits), len(points), hits[0][5]))
    assert _crossings(warned) == want
    return result, warned


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="mu_t", values=(0.1, 0.2))
        with pytest.raises(ValueError):
            SweepSpec(axis="wz", values=())
        with pytest.raises(ValueError):
            SweepSpec(axis="wz", values=(0.2, 0.1))
        with pytest.raises(ValueError):
            SweepSpec(axis="wz", values=(0.1,), overlay="wz", overlay_values=(0.2,))
        with pytest.raises(ValueError):
            SweepSpec(axis="wz", values=(0.1,), overlay="B_lambda")
        with pytest.raises(ValueError):
            SweepSpec(axis="wz", values=(0.1,), engine="exact")
        with pytest.raises(ValueError, match="increasing"):
            SweepSpec(axis="wz", values=(0.1, 0.1))
        with pytest.raises(ValueError, match="given together"):
            SweepSpec("wz", (0.05, 0.1), overlay_values=(1e-6, 2e-6))

    @pytest.mark.parametrize("kind", [list, np.array], ids=["list", "ndarray"])
    def test_any_sequence_of_values(self, baseline_cfg, kind):
        # kept as tuples of floats: the spec is hashable and sweeps as the tuple spec
        spec = SweepSpec("wz", kind([0.05, 0.1]), "sigma_aoa", kind([3e-5, 8e-5]))
        tuples = SweepSpec("wz", (0.05, 0.1), "sigma_aoa", (3e-5, 8e-5))
        assert spec == tuples and hash(spec) == hash(tuples)
        assert all(type(v) is float for v in spec.values + spec.overlay_values)
        rows = sweep(baseline_cfg, spec).rows
        assert rows == sweep(baseline_cfg, tuples).rows and len(rows) == 4
        spec = SweepSpec("wz", np.geomspace(0.05, 1.0, 12))
        assert spec.values == tuple(np.geomspace(0.05, 1.0, 12).tolist())
        with pytest.raises(ValueError, match="at least one value"):
            SweepSpec("wz", np.array([]))
        with pytest.raises(ValueError, match="increasing"):
            SweepSpec("wz", [0.1, 0.05])

    @pytest.mark.parametrize(
        "values,overlay_values",
        [((0.05, math.nan, 0.1), ()), ((math.inf,), ()), ((0.05, 0.1), (1e-6, math.nan)), ((0.05,), (-math.inf,))],
    )
    def test_non_finite_values_rejected(self, values, overlay_values):
        # NaN compares false both ways, so an ordering test alone let it through
        overlay = "B_lambda" if overlay_values else None
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(axis="wz", values=values, overlay=overlay, overlay_values=overlay_values)


class TestSweep:
    def test_degenerate_sweep_equals_direct_evaluation(self, baseline_cfg):
        spec = SweepSpec(axis="wz", values=(0.1,))
        result = sweep(baseline_cfg, spec)
        assert len(result.rows) == 1
        direct = analytics.evaluate(build_context(baseline_cfg))
        assert result.rows[0] == output.perf_rows(direct, "wz", [0.1])[0]
        _assert_same(result.rows[0], direct)

    def test_row_count_engine_both(self, baseline_cfg):
        cfg = replace(baseline_cfg, n_slots=20_000)
        values = tuple(np.linspace(0.05, 0.5, 20).tolist())
        result = sweep(cfg, SweepSpec(axis="wz", values=values, engine="both"))
        assert len(result.rows) == 40
        # rows interleave analytic + MC per point, preserving input order
        for i, v in enumerate(values):
            assert result.rows[2 * i]["axis_value"] == v
            assert result.rows[2 * i]["method"] == "analytic"
            assert result.rows[2 * i + 1]["axis_value"] == v
            assert result.rows[2 * i + 1]["method"] == "monte_carlo"

    def test_overlay_grid(self, baseline_cfg):
        spec = SweepSpec(
            axis="theta_fov",
            values=(50e-6, 100e-6, 150e-6),
            overlay="B_lambda",
            overlay_values=(1e-6, 1e-4),
        )
        result = sweep(baseline_cfg, spec)
        assert len(result.rows) == 6
        # higher radiance -> strictly worse QBER at each FoV
        for i in range(3):
            assert result.rows[i + 3]["qber"] > result.rows[i]["qber"]

    def test_detection_has_interior_waist_maximum(self, baseline_cfg):
        values = tuple(np.linspace(0.05, 1.0, 30).tolist())
        result = sweep(baseline_cfg, SweepSpec(axis="wz", values=values))
        detect = [row["p_detect"] for row in result.rows]
        best = int(np.argmax(detect))
        assert values[best] < 0.10

    def test_qber_increases_with_fov_at_high_radiance(self, baseline_cfg):
        cfg = replace(baseline_cfg, B_lambda=1e-4, theta_fov=None)
        values = tuple(np.linspace(5e-6, 200e-6, 25).tolist())
        result = sweep(cfg, SweepSpec(axis="theta_fov", values=values))
        qbers = [row["qber"] for row in result.rows]
        assert all(b > a for a, b in zip(qbers, qbers[1:]))

    def test_mc_sweep_reproducible(self, baseline_cfg):
        cfg = replace(baseline_cfg, n_slots=20_000)
        spec = SweepSpec(axis="wz", values=(0.05, 0.1, 0.2), engine="monte_carlo")
        assert sweep(cfg, spec) == sweep(cfg, spec)

    @pytest.mark.parametrize("engine", ["analytic", "monte_carlo", "both"])
    def test_mc_seeds_spawned_only_for_mc(self, baseline_cfg, engine, monkeypatch):
        spawned, seeds = [], []
        real_seed_sequence = np.random.SeedSequence

        def recording_seed_sequence(*args, **kwargs):
            spawned.append(args)
            return real_seed_sequence(*args, **kwargs)

        def recording_run(ctx, n_slots, seed):
            seeds.append(seed)
            return SimpleNamespace(estimates=analytics.evaluate(ctx))

        monkeypatch.setattr(np.random, "SeedSequence", recording_seed_sequence)
        monkeypatch.setattr(montecarlo, "run", recording_run)
        spec = SweepSpec(axis="wz", values=(0.05, 0.1), overlay="sigma_aoa", overlay_values=(30e-6, 60e-6), engine=engine)
        sweep(baseline_cfg, spec)
        if engine == "analytic":
            assert spawned == [] and seeds == []
        else:
            # one seed per point, from the config seed's spawn tree, in point order
            want = [int(ss.generate_state(1, dtype=np.uint64)[0])
                    for ss in real_seed_sequence(baseline_cfg.seed).spawn(4)]
            assert spawned == [(baseline_cfg.seed,)] and seeds == want

    @pytest.mark.parametrize(
        "base, spec",
        [
            (make_config(), SweepSpec("wz", (0.05, 0.1, 0.3), "sigma_aoa", (30e-6, 80e-6), engine="both")),
            # theta_fov x B_lambda on the reference config: FoV and mu_b derived
            (LinkConfig(), SweepSpec("theta_fov", (20e-6, 100e-6), "B_lambda", (1e-6, 1e-4), engine="monte_carlo")),
            (make_config(), SweepSpec("sigma_theta_e", (20e-6, 300e-6), "wz", (0.05, 0.2), engine="monte_carlo")),
            (make_config(), SweepSpec("wz", (0.07,), engine="both")),
        ],
        ids=["wz_both", "theta_fov_derived", "sigma_theta_e", "one_value"],
    )
    def test_mc_rows_are_each_points_own_run(self, base, spec):
        # each Monte Carlo row is the run of the point's own context on the
        # point's spawned seed, field for field (NaN equals NaN)
        base = replace(base, n_slots=montecarlo.BATCH_SIZE + 3_000)
        points = [(v, ov) for ov in spec.overlay_values or (None,) for v in spec.values]
        seeds = np.random.SeedSequence(base.seed).spawn(len(points))
        rows = [row for row in sweep(base, spec).rows if row["method"] == "monte_carlo"]
        assert len(rows) == len(points)
        for row, (v, ov), ss in zip(rows, points, seeds):
            cfg = replace(base, **{spec.axis: v, **({spec.overlay: ov} if spec.overlay else {})})
            seed = int(ss.generate_state(1, dtype=np.uint64)[0])
            report = montecarlo.run(build_context(cfg), base.n_slots, seed).estimates
            [want] = output.perf_rows(report, spec.axis, [v], spec.overlay or "", [ov])
            assert row.keys() == want.keys()
            for key, a in row.items():
                b = want[key]
                assert a == b or (math.isnan(a) and math.isnan(b)), f"{key}: {a!r} vs {b!r}"

    def test_invalid_point_reports_location(self, baseline_cfg):
        spec = SweepSpec(axis="wz", values=(0.1, 1e6))
        with pytest.raises(ValueError, match="wz"):
            sweep(baseline_cfg, spec)


class TestArrayPass:
    """An analytic sweep evaluates all points in one context; every row must
    match the point evaluated alone, warnings included."""

    BASES = {
        "fov_set_mu_b_derived": make_config(),
        "fov_derived_mu_b_derived": LinkConfig(),
        "fov_set_mu_b_set": make_config(mu_b=0.01),
        "fov_derived_mu_b_set": LinkConfig(mu_b=2e-3),
    }
    SPECS = [
        SweepSpec("wz", (0.03, 0.07, 0.1, 0.5, 2.0), "sigma_aoa", (30e-6, 80e-6)),
        SweepSpec("sigma_theta_e", (10e-6, 50e-6, 300e-6, 2e-3), "B_lambda", (1e-7, 1e-4)),
        SweepSpec("sigma_aoa", (20e-6, 60e-6, 150e-6), "theta_fov", (20e-6, 150e-6)),
        SweepSpec("theta_fov", (5e-6, 50e-6, 100e-6, 200e-6), "B_lambda", (1e-7, 1e-5, 1e-4)),
        SweepSpec("B_lambda", (0.0, 1e-7, 1e-6, 1e-4), "wz", (0.05, 0.3)),
    ]

    @pytest.mark.parametrize("base", list(BASES.values()), ids=list(BASES))
    @pytest.mark.parametrize("spec", SPECS, ids=[s.axis for s in SPECS])
    def test_every_axis_with_an_overlay(self, base, spec):
        _assert_array_pass_matches(base, spec)

    def test_wz_on_the_windowed_grid_sum(self):
        # wz << 2 ra with N_g = 20,000: mu_p(0) sums a window of the segments
        base = make_config(Ng=20_000, ra=1.5, sigma_theta_e=2e-3)
        spec = SweepSpec("wz", (0.005, 0.008, 0.012, 0.02, 0.03), "sigma_aoa", (30e-6, 80e-6))
        _assert_array_pass_matches(base, spec)

    def test_wz_blocks_bound_the_grid_weights(self):
        # 48 points of 100,000 weights would be 38 MB; one pass reads the
        # grid rows' weights max(1, _CHUNK // N_g) rows at a time, here one,
        # overlay duplicates included
        base = make_config(Ng=100_000)
        spec = SweepSpec("wz", tuple(0.05 * k for k in range(1, 13)), "sigma_aoa", (30e-6, 50e-6, 80e-6, 1e-4))
        tracemalloc.start()
        try:
            result, _ = _recorded(lambda: sweep(base, spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.rows) == 48
        assert peak < 0.5 * 48 * base.Ng * 8

    @pytest.mark.parametrize("axis,lo,hi", [("theta_fov", 5e-6, 200e-6), ("sigma_aoa", 20e-6, 150e-6),
                                            ("B_lambda", 1e-7, 1e-4)])
    def test_unswept_sigma_and_wz_sum_one_grid_mean_row(self, monkeypatch, axis, lo, hi):
        # sigma_rd and wz stay one value each, so every point shares one row of
        # the grid's Rayleigh mean: a 64-point pass at N_g = 100,000 sums it
        # once, not once a point
        base, row_sums, summed = make_config(Ng=100_000), beam._row_sums, []

        def spy(grid, wz, terms):
            if sys._getframe(1).f_code.co_name == "capture_grid_mean":
                summed.append(wz.size)
            return row_sums(grid, wz, terms)

        monkeypatch.setattr(beam, "_row_sums", spy)
        assert len(sweep(base, SweepSpec(axis, tuple(np.linspace(lo, hi, 64).tolist()))).rows) == 64
        assert summed == [1]

    def test_theta_fov_on_a_fine_grid_matches_each_point(self):
        # the one grid-mean row of a theta_fov x B_lambda pass at N_g = 100,000
        # (wider blocks) gives each point's values bit for bit
        spec = SweepSpec("theta_fov", (5e-6, 50e-6, 100e-6, 200e-6), "B_lambda", (1e-7, 1e-5, 1e-4))
        _assert_array_pass_matches(make_config(Ng=100_000), spec)

    def test_wz_across_the_spikes_regime(self):
        # N_g = 2, ra = 1.5 m: dx = 1.5 m exceeds wz at the first four points,
        # whose segment-centre probe finds the grid sum above 1
        base = make_config(Ng=2, ra=1.5, sigma_theta_e=7.5e-4)
        spec = SweepSpec("wz", (0.005, 0.05, 0.5, 1.2, 3.0), "sigma_aoa", (30e-6, 80e-6))
        _, warned = _assert_array_pass_matches(base, spec)
        [overflow] = [w for w in _crossings(warned) if w[0] is CaptureOverflowWarning]
        assert overflow[3] >= 4 and overflow[4] == 10
        # the spikes regime with one grid shared by every point
        _, warned = _assert_array_pass_matches(base, SweepSpec("sigma_aoa", (30e-6, 50e-6, 80e-6)))
        [overflow] = [w for w in _crossings(warned) if w[0] is CaptureOverflowWarning]
        assert overflow[3:5] == (3, 3)

    def test_warnings_once_per_pass(self):
        # c_pt * mu_p(0) > 0.1 at small wz only: one overflow warning for the
        # points of dx/wz = 0.92, then one LinearizationWarning for the points
        # past the linearization limit, each naming its share of the 8 points
        base = make_config(Ng=5, ra=0.15, mu_t=1.0)
        spec = SweepSpec("wz", (0.065, 0.1, 0.4, 1.0), "sigma_aoa", (30e-6, 80e-6))
        _, warned = _assert_array_pass_matches(base, spec)
        (over, *_, n_over, of_over, _), (lin, *_, n_lin, of_lin, _) = _crossings(warned)
        assert (over, n_over, of_over) == (CaptureOverflowWarning, 2, 8)
        assert lin is LinearizationWarning and 0 < n_lin < 8 and of_lin == 8

    def test_engine_both_analytic_rows(self, baseline_cfg):
        cfg = replace(baseline_cfg, n_slots=5_000)
        spec = SweepSpec("theta_fov", (50e-6, 150e-6), "B_lambda", (1e-6, 1e-4), engine="both")
        result = sweep(cfg, spec)
        want = _one_by_one(cfg, spec)
        analytic = [row for row in result.rows if row["method"] == "analytic"]
        assert len(analytic) == 4 and len(result.rows) == 8
        for got, (rep, _) in zip(analytic, want):
            _assert_same(got, rep)

    def test_engine_both_validates_once(self, baseline_cfg, monkeypatch):
        # the first point's validation and the range checks of the swept
        # values cover every point, the Monte Carlo points too
        calls = []
        validate = config.validate

        def counted(cfg):
            calls.append(cfg)
            validate(cfg)

        monkeypatch.setattr(config, "validate", counted)
        monkeypatch.setattr(sweep_module, "validate", counted)
        spec = SweepSpec("wz", (0.05, 0.1), "sigma_aoa", (50e-6, 100e-6), engine="both")
        assert len(sweep(replace(baseline_cfg, n_slots=1_000), spec).rows) == 8
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "spec,message",
        [
            (SweepSpec("wz", (0.05, 0.1, 1e6)), r"sweep point wz=1000000.0, overlay=None: wz: value 1000000.0 outside"),
            (SweepSpec("wz", (0.05, 0.1), "sigma_aoa", (50e-6, 1.0)), r"sweep point wz=0.05, overlay=1.0: sigma_aoa"),
            (SweepSpec("theta_fov", (1e-4, 1.0), "B_lambda", (-1.0, 1e-6)), r"sweep point theta_fov=0.0001, overlay=-1.0"),
            # a later axis value and a later overlay value: the axis value at the first overlay value comes first
            (SweepSpec("wz", (0.05, 1e6), "sigma_aoa", (50e-6, 1.0)), r"sweep point wz=1000000.0, overlay=5e-05: wz:"),
            (SweepSpec("wz", (0.05, 0.1), "sigma_aoa", (1.0, 50e-6)), r"sweep point wz=0.05, overlay=1.0: sigma_aoa:"),
        ],
    )
    def test_invalid_value_raises_before_any_point_is_evaluated(self, baseline_cfg, monkeypatch, spec, message):
        calls = []
        monkeypatch.setattr(analytics, "evaluate", lambda ctx: calls.append(ctx))
        with pytest.raises(ValueError, match=message):
            sweep(baseline_cfg, spec)
        assert calls == []

    def test_invalid_base_raises_like_the_first_point(self):
        base = replace(make_config(), mu_t=50.0)
        with pytest.raises(ValueError, match=r"sweep point wz=0.05, overlay=None: mu_t"):
            sweep(base, SweepSpec("wz", (0.05, 0.1)))
        # the swept field of the base is replaced, so its own value is not checked
        assert len(sweep(replace(make_config(), wz=100.0), SweepSpec("wz", (0.05, 0.1))).rows) == 2

    def test_out_of_range_value_is_a_config_error(self):
        # the same bound raises the same error type from sweep and optimize
        with pytest.raises(ConfigError, match=r"^sweep point wz=100.0, overlay=None: wz: value 100.0 outside"):
            sweep(LinkConfig(), SweepSpec("wz", (0.05, 100.0)))
        with pytest.raises(ConfigError, match=r"^wz: value 100.0 outside"):
            optimize(LinkConfig(), "wz", 1e-3, (0.05, 100.0))

    @pytest.mark.parametrize("engine", ["analytic", "monte_carlo"])
    def test_derived_quantity_error_names_the_first_point(self, engine):
        # alpha_a = 0.05 /m over 1 km: eta_atm = exp(-50) = 1.9e-22, below its 1e-3 bound
        base = LinkConfig(eta_atm=None, alpha_a=0.05, n_slots=100)
        with pytest.raises(ValueError, match=r"^sweep point wz=0.05, overlay=None: eta_atm derived from alpha_a, Lz: 1\.9287\d*e-22 "):
            sweep(base, SweepSpec("wz", (0.05, 0.1), engine=engine))

    def test_array_context_returns_arrays(self, baseline_cfg):
        ctx = config._derive(baseline_cfg, {"wz": np.array([0.05, 0.1, 0.2])})
        assert ctx.shape == (3,)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinearizationWarning)
            report = analytics.evaluate(ctx)
            assert report.p_detect.shape == (3,)
            assert report.p_detect[1] == analytics.evaluate(build_context(baseline_cfg)).p_detect
        with pytest.raises(ValueError, match="one point"):
            analytics.detect_prob(ctx, turbulence="averaged")
        with pytest.raises(ValueError, match="one point"):
            montecarlo.run(ctx, 100, 1)
        with pytest.raises(ValueError):
            replace(ctx, sigma_aoa=np.full(2, 50e-6))


def _loop_optimize(base, variable, qber_max, bounds):
    """``optimize``'s selection as the Python loops over one report per point
    that its numpy masks replaced: the oracle of the masked selection. It
    evaluates through the same ``analytics.evaluate``, so a test can swap in
    synthetic columns for both."""
    lo, hi = bounds
    xs = np.linspace(lo, hi, sweep_module._COARSE)
    cfg = replace(base, **{variable: float(xs[0])})

    def reports(xs):
        r = analytics.evaluate(config._derive(cfg, {variable: xs}))
        return [sweep_module._point(r, i) for i in range(len(xs))]

    rs = reports(xs)
    feas = [r.qber <= qber_max for r in rs]
    if not any(feas):
        i = int(np.argmin([r.qber for r in rs]))
        return OptimizeResult(variable, float(xs[i]), rs[i], False, qber_max)
    best = max((i for i in range(len(xs)) if feas[i]), key=lambda i: rs[i].key_rate)
    best_x, best_r = float(xs[best]), rs[best]
    step = (hi - lo) / (sweep_module._COARSE - 1)
    while step > sweep_module._TOL * (hi - lo):
        a, b = max(best_x - step, lo), min(best_x + step, hi)
        xs = np.linspace(a, b, sweep_module._REFINE + 2)[1:-1]
        step = (b - a) / (sweep_module._REFINE + 1)
        for x, r in zip(xs.tolist(), reports(xs)):
            if r.qber <= qber_max and r.key_rate > best_r.key_rate:
                best_x, best_r = x, r
    return OptimizeResult(variable, best_x, best_r, True, qber_max)


def _assert_same_optimum(got, want):
    assert (got.variable, got.value, got.feasible, got.qber_max) == (want.variable, want.value, want.feasible, want.qber_max)
    assert got.report.method == want.report.method
    _assert_same(got.report, want.report)


def _synthetic(key_rate, qber):
    """An ``analytics.evaluate`` stand-in whose columns are functions of
    the one swept variable, wz."""

    def report(ctx):
        x = ctx.wz
        k, q = key_rate(x), qber(x)
        return PerformanceReport(k, k, 0.0 * x, 0.0 * x, k, k, q, method="analytic")

    return report


class TestOptimizeSelection:
    """The masked selection of ``optimize`` against the loops it replaced."""

    COARSE = np.linspace(0.05, 1.0, 64)

    @pytest.mark.parametrize(
        "variable,qber_max,bounds,overrides",
        [
            ("wz", 1e-3, (0.05, 1.0), {}),
            ("wz", 1e-3, (0.05, 1.0), {"B_lambda": 0.0}),
            ("theta_fov", 1e-3, (10e-6, 500e-6), {}),
            ("theta_fov", 4.2e-4, (5e-6, 30e-6), {"theta_fov": None, "B_lambda": 1e-6}),
            ("theta_fov", 1e-3, (5e-6, 200e-6), {"theta_fov": None, "B_lambda": 1e-6}),
            ("theta_fov", 1e-3, (5e-6, 200e-6), {"theta_fov": None, "B_lambda": 1e-4}),
            ("theta_fov", 1e-9, (5e-6, 200e-6), {"theta_fov": None, "B_lambda": 1e-4}),
        ],
    )
    def test_matches_the_loops_on_the_model(self, baseline_cfg, variable, qber_max, bounds, overrides):
        cfg = replace(baseline_cfg, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinearizationWarning)
            _assert_same_optimum(optimize(cfg, variable, qber_max, bounds), _loop_optimize(cfg, variable, qber_max, bounds))

    def test_tied_key_rates_first_wins_and_an_equal_refinement_keeps_it(self, baseline_cfg, monkeypatch):
        # key rate 2 on the plateau [0.5, 0.75), feasible up to 0.6: seven
        # coarse points tie, the first of them wins, and no refinement point
        # beats it strictly, so it stays
        monkeypatch.setattr(analytics, "evaluate", _synthetic(lambda x: np.floor(4.0 * x), lambda x: 0.1 * x))
        got = optimize(baseline_cfg, "wz", 0.06, (0.05, 1.0))
        tied = np.flatnonzero((np.floor(4.0 * self.COARSE) == 2.0) & (0.1 * self.COARSE <= 0.06))
        assert len(tied) > 1
        assert got.feasible and got.value == float(self.COARSE[tied[0]])
        _assert_same_optimum(got, _loop_optimize(baseline_cfg, "wz", 0.06, (0.05, 1.0)))

    def test_refinement_replaces_on_a_strictly_higher_key_rate(self, baseline_cfg, monkeypatch):
        # the key rate peaks at 0.3337 between coarse points; the NaN-QBER
        # points above 0.9 have the highest key rate but are infeasible
        key = lambda x: np.where(x > 0.9, 10.0, 1.0 - (x - 0.3337) ** 2)
        qber = lambda x: np.where(x > 0.9, np.nan, 0.01 + 0.0 * x)
        monkeypatch.setattr(analytics, "evaluate", _synthetic(key, qber))
        got = optimize(baseline_cfg, "wz", 0.02, (0.05, 1.0))
        assert got.feasible and got.value not in self.COARSE.tolist()
        assert got.value == pytest.approx(0.3337, abs=1e-5)
        _assert_same_optimum(got, _loop_optimize(baseline_cfg, "wz", 0.02, (0.05, 1.0)))

    def test_an_all_infeasible_refinement_pass_never_replaces(self, baseline_cfg, monkeypatch):
        # only the coarse points are feasible; every refinement point has a
        # higher key rate but exceeds the ceiling
        on_grid = lambda x: np.isin(x, self.COARSE)
        key, qber = lambda x: np.where(on_grid(x), 0.5, 1.0), lambda x: np.where(on_grid(x), 0.0, 0.4)
        monkeypatch.setattr(analytics, "evaluate", _synthetic(key, qber))
        got = optimize(baseline_cfg, "wz", 0.01, (0.05, 1.0))
        assert got.feasible and got.value == 0.05 and got.report.key_rate == 0.5
        _assert_same_optimum(got, _loop_optimize(baseline_cfg, "wz", 0.01, (0.05, 1.0)))

    def test_all_infeasible_takes_the_argmin_nan_included(self, baseline_cfg, monkeypatch):
        # np.argmin stops at the first NaN, as it did over the loop's list
        qber = lambda x: np.where(x < 0.4, 0.45 - 0.1 * x, np.nan)
        monkeypatch.setattr(analytics, "evaluate", _synthetic(lambda x: 1.0 + 0.0 * x, qber))
        got = optimize(baseline_cfg, "wz", 0.01, (0.05, 1.0))
        first_nan = int(np.flatnonzero(self.COARSE >= 0.4)[0])
        assert not got.feasible and got.value == float(self.COARSE[first_nan])
        assert math.isnan(got.report.qber) and type(got.report.key_rate) is float
        _assert_same_optimum(got, _loop_optimize(baseline_cfg, "wz", 0.01, (0.05, 1.0)))


class TestOptimize:
    def test_inactive_constraint_in_the_dark(self, baseline_cfg):
        cfg = replace(baseline_cfg, B_lambda=0.0)
        result = optimize(cfg, "wz", 1e-3, (0.05, 1.0))
        assert result.feasible
        assert result.report.qber == 0.0
        # with no background the objective is detection alone: small waist wins
        assert result.value < 0.10

    def test_reference_waist_optimum(self, baseline_cfg):
        result = optimize(baseline_cfg, "wz", 1e-3, (0.05, 1.0))
        assert result.feasible
        assert result.value < 0.10
        assert result.report.key_rate > 2e6
        assert result.report.qber <= 1e-3 + 1e-12

    def test_infeasible_returns_min_qber_point(self, baseline_cfg):
        cfg = replace(baseline_cfg, B_lambda=1e-4, theta_fov=None)
        result = optimize(cfg, "theta_fov", 1e-9, (5e-6, 200e-6))
        assert not result.feasible
        assert isinstance(result, OptimizeResult)
        # QBER rises with FoV here, so the least-bad point is the lower bound
        assert result.value == pytest.approx(5e-6)
        assert result.report.qber > 1e-9

    def test_refinement_never_hurts(self, baseline_cfg):
        # the optimum beats every feasible point of the 64-point coarse grid,
        # each evaluated on its own config
        result = optimize(baseline_cfg, "wz", 1e-3, (0.05, 1.0))
        coarse = [build_context(replace(baseline_cfg, wz=x)) for x in np.linspace(0.05, 1.0, 64)]
        best = max(r.key_rate for r in map(analytics.evaluate, coarse) if r.qber <= 1e-3)
        assert result.feasible
        assert result.report.key_rate >= best * (1.0 - 1e-9)

    @pytest.mark.parametrize("variable,bounds", [("wz", (0.05, 1.0)), ("theta_fov", (10e-6, 500e-6))])
    def test_optimum_matches_the_point_evaluated_alone(self, baseline_cfg, variable, bounds):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinearizationWarning)
            result = optimize(baseline_cfg, variable, 1e-3, bounds)
            _assert_same(result.report, analytics.evaluate(build_context(replace(baseline_cfg, **{variable: result.value}))))

    def test_out_of_range_bounds_raise_the_config_error(self, baseline_cfg):
        with pytest.raises(ValueError, match=r"wz: value 0.001 outside allowed range"):
            optimize(baseline_cfg, "wz", 1e-3, (1e-3, 1.0))
        with pytest.raises(ValueError, match=r"wz: value 20.0 outside allowed range"):
            optimize(baseline_cfg, "wz", 1e-3, (0.05, 20.0))

    def test_range_checks_hi_once_and_no_refinement_point(self, baseline_cfg, monkeypatch):
        seen = []
        check = sweep_module._check_range

        def counted(key, value):
            seen.append((key, value))
            check(key, value)

        monkeypatch.setattr(sweep_module, "_check_range", counted)
        optimize(baseline_cfg, "wz", 1e-3, (0.05, 1.0))
        assert seen == [("wz", 1.0)]

    @pytest.mark.parametrize("qber_max,bounds", [(4.2e-4, (5e-6, 30e-6)), (1e-3, (5e-6, 200e-6))])
    def test_theta_fov_optimum_reaches_the_qber_ceiling(self, qber_max, bounds):
        # key rate rises and QBER rises with FoV here, so the optimum is the
        # FoV at which QBER meets the ceiling, found apart by bisection; the
        # search's stop rule is relative to the bounds, so it refines even
        # when hi - lo is far below 1
        cfg = LinkConfig(theta_fov=None, B_lambda=1e-6)

        def excess(x):
            return analytics.evaluate(build_context(replace(cfg, theta_fov=x))).qber - qber_max

        lo, hi = bounds
        assert excess(lo) < 0.0 < excess(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) <= 0.0 else (lo, mid)
        result = optimize(cfg, "theta_fov", qber_max, bounds)
        assert result.feasible
        assert abs(result.value - lo) <= 1e-5 * (bounds[1] - bounds[0])

    @pytest.mark.parametrize("variable,bounds", [("wz", (0.05, 1.0)), ("theta_fov", (5e-6, 200e-6))])
    def test_makes_only_array_passes(self, baseline_cfg, monkeypatch, variable, bounds):
        shapes = []
        evaluate = sweep_module.analytics.evaluate

        def counted(ctx):
            shapes.append(ctx.shape)
            return evaluate(ctx)

        monkeypatch.setattr(sweep_module.analytics, "evaluate", counted)
        optimize(baseline_cfg, variable, 1e-3, bounds)
        assert 0 < len(shapes) <= 10
        assert all(shape != () for shape in shapes)

    def test_validation(self, baseline_cfg):
        with pytest.raises(ValueError):
            optimize(baseline_cfg, "mu_t", 1e-3, (0.1, 1.0))
        with pytest.raises(ValueError):
            optimize(baseline_cfg, "wz", 0.7, (0.05, 1.0))
        with pytest.raises(ValueError):
            optimize(baseline_cfg, "wz", 1e-3, (1.0, 0.05))
