from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_config
from uavqkd import analytics, montecarlo
from uavqkd.config import build_context
from uavqkd.sweep import OptimizeResult, SweepSpec, optimize, sweep


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


class TestSweep:
    def test_degenerate_sweep_equals_direct_evaluation(self, baseline_cfg):
        spec = SweepSpec(axis="wz", values=(0.1,))
        result = sweep(baseline_cfg, spec)
        assert len(result.rows) == 1
        direct = analytics.evaluate(build_context(baseline_cfg))
        assert result.rows[0].report == direct

    def test_row_count_engine_both(self, baseline_cfg):
        cfg = replace(baseline_cfg, n_slots=20_000)
        values = tuple(np.linspace(0.05, 0.5, 20).tolist())
        result = sweep(cfg, SweepSpec(axis="wz", values=values, engine="both"))
        assert len(result.rows) == 40
        # rows interleave analytic + MC per point, preserving input order
        for i, v in enumerate(values):
            assert result.rows[2 * i].axis_value == v
            assert result.rows[2 * i].report.method == "analytic"
            assert result.rows[2 * i + 1].axis_value == v
            assert result.rows[2 * i + 1].report.method == "monte_carlo"

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
            assert result.rows[i + 3].report.qber > result.rows[i].report.qber

    def test_detection_has_interior_waist_maximum(self, baseline_cfg):
        values = tuple(np.linspace(0.05, 1.0, 30).tolist())
        result = sweep(baseline_cfg, SweepSpec(axis="wz", values=values))
        detect = [row.report.p_detect for row in result.rows]
        best = int(np.argmax(detect))
        assert values[best] < 0.10

    def test_qber_increases_with_fov_at_high_radiance(self, baseline_cfg):
        cfg = replace(baseline_cfg, B_lambda=1e-4, theta_fov=None)
        values = tuple(np.linspace(5e-6, 200e-6, 25).tolist())
        result = sweep(cfg, SweepSpec(axis="theta_fov", values=values))
        qbers = [row.report.qber for row in result.rows]
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

    def test_invalid_point_reports_location(self, baseline_cfg):
        spec = SweepSpec(axis="wz", values=(0.1, 1e6))
        with pytest.raises(ValueError, match="wz"):
            sweep(baseline_cfg, spec)


class TestOptimize:
    def test_inactive_constraint_in_the_dark(self, baseline_cfg):
        cfg = replace(baseline_cfg, B_lambda=0.0)
        result = optimize(cfg, "wz", 1e-3, (0.05, 1.0), coarse=24)
        assert result.feasible
        assert result.report.qber == 0.0
        # with no background the objective is detection alone: small waist wins
        assert result.value < 0.10

    def test_reference_waist_optimum(self, baseline_cfg):
        result = optimize(baseline_cfg, "wz", 1e-3, (0.05, 1.0), coarse=32)
        assert result.feasible
        assert result.value < 0.10
        assert result.report.key_rate > 2e6
        assert result.report.qber <= 1e-3 + 1e-12

    def test_infeasible_returns_min_qber_point(self, baseline_cfg):
        cfg = replace(baseline_cfg, B_lambda=1e-4, theta_fov=None)
        result = optimize(cfg, "theta_fov", 1e-9, (5e-6, 200e-6), coarse=24)
        assert not result.feasible
        assert isinstance(result, OptimizeResult)
        # QBER rises with FoV here, so the least-bad point is the lower bound
        assert result.value == pytest.approx(5e-6)
        assert result.report.qber > 1e-9

    def test_refinement_never_hurts(self, baseline_cfg):
        coarse = optimize(baseline_cfg, "wz", 1e-3, (0.05, 1.0), coarse=8)
        fine = optimize(baseline_cfg, "wz", 1e-3, (0.05, 1.0), coarse=64)
        assert fine.report.key_rate >= coarse.report.key_rate * (1.0 - 1e-9)

    def test_validation(self, baseline_cfg):
        with pytest.raises(ValueError):
            optimize(baseline_cfg, "mu_t", 1e-3, (0.1, 1.0))
        with pytest.raises(ValueError):
            optimize(baseline_cfg, "wz", 0.7, (0.05, 1.0))
        with pytest.raises(ValueError):
            optimize(baseline_cfg, "wz", 1e-3, (1.0, 0.05))
