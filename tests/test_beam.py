import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import log_uniform_field
from uavqkd.beam import (
    ApertureSpec,
    BeamGeometry,
    beam_radius,
    build_grid,
    capture_classical,
    capture_exact,
    capture_exact_many,
    capture_grid,
    photon_density,
)

RA = 0.15


def _rician_capture(rd, wz, ra):
    """Capture probability as the Rician integral, to 30 digits.

    The photon's distance from the aperture centre, scaled by 2 / wz, is
    Rician with parameter a = 2 rd / wz, so mu_p is
    int_0^b r exp(-(r^2 + a^2) / 2) I0(a r) dr with b = 2 ra / wz. a and b
    come from the same rounded squares as the closed form's arguments, so
    the comparison measures the evaluator, not the rounding of its inputs.
    The integrand lies below e^-800 of its peak farther than 40 from r = a,
    so only that window is integrated.
    """
    with mpmath.workdps(30):
        a = mpmath.sqrt(mpmath.mpf((2.0 * rd / wz) ** 2))
        b = mpmath.sqrt(mpmath.mpf((2.0 * ra / wz) ** 2))
        lo, hi = max(a - 40, 0), min(a + 40, b)
        if lo >= hi:
            return 0.0

        def f(r):
            return r * mpmath.exp(-((r - a) ** 2) / 2) * mpmath.besseli(0, a * r) * mpmath.exp(-a * r)

        breaks = {lo, hi} | {mpmath.mpf(p) for p in (a - 12, a - 4, a, a + 4, a + 12, 1, 4, 12) if lo < p < hi}
        return float(mpmath.quad(f, sorted(breaks)))


@st.composite
def _capture_box(draw):
    wz = draw(log_uniform_field("wz"))
    ra = draw(log_uniform_field("ra"))
    return draw(st.floats(0.0, ra + 10.0 * wz)), wz, ra


class TestBeamRadius:
    def test_reference_value(self):
        # direct evaluation of the divergence formula
        expected = 1e-2 * math.sqrt(1.0 + (1.55e-6 * 1000.0 / (math.pi * 1e-4)) ** 2)
        assert beam_radius(1e-2, 1.55e-6, 1000.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(5.034e-2, rel=1e-3)

    def test_zero_distance_identity(self):
        assert beam_radius(1e-2, 1.55e-6, 0.0) == 1e-2

    def test_never_below_waist(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w0 = rng.uniform(1e-3, 0.2)
            lam = rng.uniform(0.5e-6, 2e-6)
            lz = rng.uniform(1.0, 1e4)
            assert beam_radius(w0, lam, lz) >= w0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beam_radius(0.0, 1.55e-6, 1000.0)
        with pytest.raises(ValueError):
            beam_radius(1e-2, -1.0, 1000.0)


class TestPhotonDensity:
    def test_peak_value(self):
        wz = 0.07
        assert photon_density(0.3, -0.2, wz, rd=(0.3, -0.2)) == pytest.approx(
            2.0 / (math.pi * wz * wz), rel=1e-14
        )

    def test_unit_mass_over_disc(self):
        wz = 0.05
        rd = (0.02, -0.01)

        def integrand(r, phi):
            return r * photon_density(rd[0] + r * np.cos(phi), rd[1] + r * np.sin(phi), wz, rd)

        mass, _ = integrate.dblquad(integrand, 0, 2 * np.pi, 0, 6 * wz, epsabs=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_radial_symmetry(self):
        wz = 0.03
        assert photon_density(0.01, 0.04, wz) == pytest.approx(
            photon_density(0.04, 0.01, wz), rel=1e-14
        )

    def test_rejects_bad_wz(self):
        with pytest.raises(ValueError):
            photon_density(0.0, 0.0, 0.0)


class TestCaptureExact:
    def test_centered_closed_form(self):
        # centered beam over a disc integrates to 1 - exp(-2 ra^2 / wz^2)
        assert capture_exact(0.0, 0.05, RA) == pytest.approx(1.0 - math.exp(-18.0), abs=1e-9)
        assert capture_exact(0.0, 0.10, RA) == pytest.approx(1.0 - math.exp(-4.5), abs=1e-9)

    def test_centered_closed_form_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            wz = rng.uniform(0.02, 1.0)
            ra = rng.uniform(0.02, 0.5)
            assert capture_exact(0.0, wz, ra) == pytest.approx(
                -math.expm1(-2.0 * ra * ra / (wz * wz)), abs=1e-9
            )

    def test_against_mc_integration(self):
        # brute-force 2D Monte Carlo of the displaced Gaussian over the disc
        rd, wz = 0.10, 0.10
        rng = np.random.default_rng(2024)
        n = 10_000_000
        pts = rng.normal(0.0, wz / 2.0, (2, n))
        pts[0] += rd
        hits = (pts[0] ** 2 + pts[1] ** 2 <= RA * RA).mean()
        se = math.sqrt(hits * (1.0 - hits) / n)
        assert abs(capture_exact(rd, wz, RA) - hits) < 3.0 * se

    def test_scalar_gives_float_array_gives_array(self):
        assert type(capture_exact(0.05, 0.08, RA)) is float
        rd = np.linspace(0.0, 0.3, 40)
        vals = capture_exact(rd, 0.08, RA)
        assert isinstance(vals, np.ndarray) and vals.shape == rd.shape
        assert isinstance(capture_exact([0.0], 0.08, RA), np.ndarray)

    def test_old_name_is_an_alias(self):
        assert capture_exact_many is capture_exact

    @settings(max_examples=40, deadline=None)
    @given(_capture_box())
    @example((1.49, 0.005, 1.5))  # near chndtr's worst error: 2.0e-14 here
    @example((0.0, 0.005, 0.015))
    @example((0.0, 10.0, 0.015))
    @example((1.55, 0.005, 1.5))
    @example((2.004504958609584e-161, 1.0, 1.0))  # subnormal noncentrality: chndtr was 8.4e-4 off
    def test_matches_rician_oracle_over_config_box(self, point):
        # chndtr's rounding error grows with b = 2 ra / wz: measured worst
        # 1.2e-15 at b = 30, 1.1e-14 at 100, 3.5e-14 at 600 (the box's edge)
        rd, wz, ra = point
        b = 2.0 * ra / wz
        assert abs(capture_exact(rd, wz, ra) - _rician_capture(rd, wz, ra)) <= 1e-14 + 1e-16 * b

    @pytest.mark.parametrize("rd,wz,ra", [(0.0, 0.005, 0.15), (0.1, 0.005, 1.5)])
    def test_narrow_beam_fully_captured(self, rd, wz, ra):
        # the former fixed-node rule gave 0.755 and adaptive quadrature 0.0 here
        assert capture_exact(rd, wz, ra) == 1.0

    def test_monotone_in_displacement(self):
        rd = np.linspace(0.0, 0.4, 60)
        vals = capture_exact(rd, 0.07, RA)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_rejects_negative_rd(self):
        with pytest.raises(ValueError):
            capture_exact(-0.1, 0.1, RA)
        with pytest.raises(ValueError):
            capture_exact(np.array([0.0, -1e-3]), 0.1, RA)

    @pytest.mark.parametrize("wz,ra", [(0.0, RA), (-0.1, RA), (0.1, 0.0), (0.1, -RA)])
    def test_rejects_nonpositive_geometry(self, wz, ra):
        with pytest.raises(ValueError):
            capture_exact(0.0, wz, ra)


class TestCaptureClassical:
    def test_nonphysical_value_not_clamped(self):
        res = capture_classical(0.0, 0.05, RA)
        assert res.value == pytest.approx(18.0, rel=1e-14)
        assert not res.valid

    def test_wide_beam_agrees_with_exact(self):
        # wz = 1.0 sits just below the 8*ra validity threshold, where the
        # relative error of the wide-beam formula is ~2.3%
        res = capture_classical(0.0, 1.0, RA)
        assert res.value == pytest.approx(0.045, rel=1e-14)
        assert res.value == pytest.approx(capture_exact(0.0, 1.0, RA), rel=0.025)

    def test_vanishes_at_large_displacement(self):
        assert capture_classical(50.0, 0.3, RA).value < 1e-300 * 1e10

    def test_validity_regime(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ra = rng.uniform(0.02, 0.3)
            wz = rng.uniform(8.0 * ra, 12.0 * ra)
            rd = rng.uniform(0.0, wz)
            approx = capture_classical(rd, wz, ra)
            assert approx.valid
            assert approx.value / capture_exact(rd, wz, ra) == pytest.approx(1.0, abs=0.02)


class TestCaptureGrid:
    def test_midpoint_arithmetic(self):
        grid = build_grid(RA, 0.10, 10)
        assert grid.dx == pytest.approx(0.03)
        assert grid.centers[0] == pytest.approx(-0.135)
        assert grid.centers[-1] == pytest.approx(0.135)
        assert len(grid.centers) == len(grid.weights) == 10

    def test_weight_symmetry_and_positivity(self):
        grid = build_grid(RA, 0.07, 17)
        w = np.asarray(grid.weights)
        assert np.all(w > 0.0)
        assert np.max(np.abs(w - w[::-1])) < 1e-15
        assert np.all(np.diff(grid.centers) > 0)

    def test_matches_exact_at_center(self):
        grid = build_grid(RA, 0.10, 10)
        assert abs(capture_grid(grid, 0.0) - capture_exact(0.0, 0.10, RA)) < 1e-2

    def test_sweep_accuracy_ng10(self):
        # The 10-segment midpoint rule undersamples a wz = 0.05 beam
        # (segment width 0.03 vs Gaussian sigma 0.025): the worst-case
        # absolute error on this sweep is 0.0395, frozen here from a
        # quadrature + Monte Carlo cross-check of the exact integral.
        grid = build_grid(RA, 0.05, 10)
        rd = np.linspace(0.0, 0.2, 50)
        err = np.abs(capture_grid(grid, rd) - capture_exact(rd, 0.05, RA))
        assert err.max() == pytest.approx(0.0395, abs=0.001)
        # the wider reference beam halves the aliasing error
        grid = build_grid(RA, 0.10, 10)
        err = np.abs(capture_grid(grid, rd) - capture_exact(rd, 0.10, RA))
        assert err.max() == pytest.approx(0.0183, abs=0.001)

    def test_fine_grid_accuracy(self):
        # convergence is limited by the sqrt cusp of the weight profile at
        # the aperture edge; 200 segments reach a few 1e-4 absolute
        grid = build_grid(RA, 0.10, 200)
        rd = np.linspace(0.0, 2 * RA, 80)
        err = np.abs(capture_grid(grid, rd) - capture_exact(rd, 0.10, RA))
        assert err.max() < 5e-4

    def test_convergence_is_monotone(self):
        rd = np.linspace(0.0, 2 * RA, 60)
        exact = capture_exact(rd, 0.08, RA)
        errs = []
        for ng in (5, 10, 20, 40, 80):
            grid = build_grid(RA, 0.08, ng)
            errs.append(np.abs(capture_grid(grid, rd) - exact).max())
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_vanishes_at_large_displacement(self):
        grid = build_grid(RA, 0.05, 10)
        assert capture_grid(grid, 5.0) < 1e-300 * 1e10

    def test_monotone_in_displacement(self):
        grid = build_grid(RA, 0.06, 40)
        vals = capture_grid(grid, np.linspace(0.0, 0.4, 50))
        assert np.all(np.diff(vals) <= 1e-12)

    def test_wz_mismatch_rejected(self):
        grid = build_grid(RA, 0.10, 10)
        with pytest.raises(ValueError):
            capture_grid(grid, 0.0, wz=0.05)
        # matching wz is fine
        capture_grid(grid, 0.0, wz=0.10)

    def test_too_few_segments_rejected(self):
        with pytest.raises(ValueError):
            build_grid(RA, 0.1, 1)

    def test_cache_returns_same_object(self):
        assert build_grid(RA, 0.1, 10) is build_grid(RA, 0.1, 10)


class TestGeometryTypes:
    def test_beam_geometry_consistency(self):
        wz = beam_radius(1e-2, 1.55e-6, 1000.0)
        BeamGeometry(wz=wz, wavelength=1.55e-6, Lz=1000.0, w0=1e-2)
        with pytest.raises(ValueError):
            BeamGeometry(wz=2 * wz, wavelength=1.55e-6, Lz=1000.0, w0=1e-2)

    def test_from_waist(self):
        geom = BeamGeometry.from_waist(1e-2, 1.55e-6, 1000.0)
        assert geom.wz >= geom.w0

    def test_aperture(self):
        assert ApertureSpec(RA).area == pytest.approx(math.pi * RA * RA)
        with pytest.raises(ValueError):
            ApertureSpec(0.0)
