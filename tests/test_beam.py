import hashlib
import itertools
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import log_uniform_field
from uavqkd import beam
from uavqkd.beam import (
    CaptureGrid,
    _half_block,
    beam_radius,
    build_grid,
    capture_classical,
    capture_exact,
    capture_exact_many,
    capture_grid,
)
from uavqkd.errors import CaptureOverflowWarning

RA = 0.15

# the ways to build a grid of (ra, wz, ng): the cache, a one-point grid, and a
# two-row grid whose second row has radius wz, in an array of wz's own dtype
# (so a bool wz gives an array of bools, not the radius 1.0)
GRID_BUILDERS = {
    "build_grid": build_grid,
    "one point": CaptureGrid,
    "second row": lambda ra, wz, ng: CaptureGrid(ra, np.array([0.1, wz], dtype=np.asarray(wz).dtype), ng),
}


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


@st.composite
def _blocked_grid(draw):
    """(ra, wz, N_g) over the validator box whose grid sums by wider blocks."""
    ra = draw(log_uniform_field("ra"))
    wz = draw(log_uniform_field("wz"))
    lo = 16 * 73 * 2.0 * ra / wz  # wz >= 16 * 73 dx, dx = 2 ra / N_g
    assume(lo < 100_000)
    ng = draw(st.integers(max(math.ceil(lo), 32), 100_000))
    assume(_half_block(wz, 2.0 * ra / ng, ng))
    return ra, wz, ng


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

    @settings(max_examples=200, deadline=None)
    @given(_capture_box())
    @example((0.189, 0.073, 0.182))  # 2 rd / wz squared by C pow (a numpy float64's ** 2), not t * t, is an ulp off
    @example((0.829, 0.073, 0.745))
    @example((2.004504958609584e-161, 1.0, 1.0))  # a subnormal noncentrality, set to 0 on both paths
    @example((0.0, 0.005, 1.5))
    @example((1.0, 0.5, 0.3))  # an integral rd, also passed as an int
    def test_scalar_path_matches_array_path(self, point):
        # a float, a numpy float64, a 0-d array and an int all take the scalar path
        rd, wz, ra = point
        want = capture_exact(np.array([rd]), wz, ra)[0]
        scalars = [rd, np.float64(rd), np.array(rd)] + ([int(rd)] if rd.is_integer() else [])
        for got in (capture_exact(x, wz, ra) for x in scalars):
            assert type(got) is float and got == want

    @settings(max_examples=60, deadline=None)
    @given(_capture_box(), st.sampled_from(("rd", "wz", "ra")), st.booleans(), st.floats(1e-300, 1e3))
    @example((0.1, 0.1, RA), "wz", False, 0.0)
    @example((0.1, 0.1, RA), "ra", False, 0.0)
    def test_scalar_path_raises_the_array_path_error(self, point, which, nan, size):
        # a NaN or negative rd, or a NaN, zero or negative wz or ra
        args = dict(zip(("rd", "wz", "ra"), point))
        args[which] = math.nan if nan else -size
        with pytest.raises(ValueError) as want:
            capture_exact(np.array([args["rd"]]), args["wz"], args["ra"])
        for rd in (args["rd"], np.float64(args["rd"]), np.array(args["rd"])):
            with pytest.raises(ValueError) as got:
                capture_exact(rd, args["wz"], args["ra"])
            assert str(got.value) == str(want.value)

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
        with pytest.raises(ValueError):
            capture_exact(np.array([0.0, math.nan]), 0.1, RA)

    @pytest.mark.parametrize("wz,ra", [(0.0, RA), (-0.1, RA), (0.1, 0.0), (0.1, -RA), (math.nan, RA), (0.1, math.nan),
                                       (True, RA), (0.1, True), (np.True_, RA), (0.1, np.True_), (np.array([True]), RA)])
    def test_rejects_nonpositive_geometry(self, wz, ra):
        # a bool is no radius: True > 0, and capture_exact(0.0, True, RA) gave the value of wz = 1 m
        for capture in (capture_exact, capture_classical):
            with pytest.raises(ValueError, match="^capture probability requires wz > 0 and ra > 0$"):
                capture(0.0, wz, ra)


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

    @pytest.mark.parametrize("ra,wz,n", [(1.5, 0.005, 4096), (RA, 0.10, 512), (1.5, 0.10, 4096)])
    def test_bounded_memory_matches_dense_sum(self, ra, wz, n):
        # N_g = 100,000: a dense (displacements x segments) matrix would take
        # 3.3 GB (n = 4096) or 410 MB (n = 512); the first case sums a window
        # of 3,002 segments per displacement, the second all 110 blocks of
        # the blocked sum, the third a window of 663 of its 1,099 blocks
        grid = build_grid(ra, wz, 100_000)
        rd = np.linspace(0.0, ra + 12.0 * wz, n)
        tracemalloc.start()
        try:
            vals = capture_grid(grid, rd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # against the long-double sum over every segment, to exp's
        # conditioning: a relative error eps in the exponent ln v moves the
        # value by eps |ln v|
        truth = oracles.grid_sum(grid, rd[::31])
        bound = 8.0 * np.finfo(float).eps * (1.0 + np.abs(np.log(truth)))
        assert np.all(np.abs(vals[::31] - truth) <= bound * truth)

    @settings(max_examples=60, deadline=None)
    @given(_blocked_grid(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @example((0.9055136353362503, 0.6401209080546303, 100_000), [0.0, 0.5, 1.0])  # attribution, ra / wz = 1.41
    @example((0.033246923835565545, 0.007896699905734874, 100_000), [0.0, 0.3, 1.0])  # attribution, ra / wz = 4.21
    @example((1.5, 0.0375, 100_000), [0.0, 0.1, 0.5])  # ra / wz = 40: 2,858 blocks of 35 segments
    @example((0.25651473265499575, 6.522242884064645, 21_317), [0.0, 0.01, 1.0])  # ra / wz = 0.039: edge blocks only
    @example((0.094, 1.0, 4544), [0.0, 0.05, 0.5])  # 2 interior blocks of 7: one weight a segment throughout
    @example((1.0, 0.2, 99_986), [0.0, 0.3, 0.9])  # the last block holds 68 of its 273 segments
    def test_blocked_sum_matches_long_double_oracle(self, grid_args, fractions):
        # grids of wider blocks, whose interior blocks take their moments from
        # Chebyshev samples of the chord weight, against the long-double sum
        # over every segment, to exp's conditioning, at rd = 0, ra and draws
        # up to ra + 12 wz
        ra, wz, ng = grid_args
        grid = build_grid(ra, wz, ng)
        rd = np.array([0.0, ra] + [f * (ra + 12.0 * wz) for f in fractions])
        truth = oracles.grid_sum(grid, rd)
        bound = 8.0 * np.finfo(float).eps * (1.0 + np.abs(np.log(truth)))
        assert np.all(np.abs(capture_grid(grid, rd) - truth) <= bound * truth)

    def test_sum_in_a_gap_between_spikes_keeps_both_neighbours(self):
        # segments 1/3 apart, 33 wz: where no centre lies within 9 wz left of
        # rd, a window starting right of rd left out its left neighbour,
        # giving half the sum at a gap's middle and 0 just left of it
        grid = build_grid(1.5, 0.01, 9)
        rd = np.linspace(0.0, 1.5, 46)
        truth = oracles.grid_sum(grid, rd)
        bound = 8.0 * np.finfo(float).eps * (1.0 + np.abs(np.log(truth)))
        assert np.all(np.abs(capture_grid(grid, rd) - truth) <= bound * truth)
        assert grid.mu_p0 == capture_grid(grid, 0.0)

    @pytest.mark.parametrize("ng", [10, 1000, 100_000])
    def test_value_does_not_depend_on_the_batch(self, ng):
        # a row's grid sum must not depend on its place in the batch: 2,000
        # scalar calls equal the same rows of one 65,536-row call, bit for
        # bit, on the direct sum and (ng = 100,000) the blocked one
        grid = build_grid(0.15, 0.1, ng)
        rng = np.random.default_rng(27)
        rd = rng.uniform(0.0, 0.45, 1 << 16)
        batch = capture_grid(grid, rd)
        rows = rng.choice(rd.size, 2000, replace=False)
        scalar = np.array([capture_grid(grid, float(r)) for r in rd[rows]])
        assert np.array_equal(scalar, batch[rows])
        rows.sort()
        assert np.array_equal(capture_grid(grid, rd[rows]), batch[rows])

    @pytest.mark.parametrize(
        "ra,wz,ng,blocked",
        [
            (0.15, 0.10, 10, False),
            (1.5, 0.005, 100_000, False),
            (0.15, 0.10, 100_000, True),
            (1.5, 0.10, 100_000, True),
        ],
        ids=["dense-direct", "windowed-direct", "blocked", "blocked-windowed"],
    )
    def test_far_displacement_gives_zero(self, ra, wz, ng, blocked):
        # past every segment by far more than 9 wz the grid sum is exactly 0,
        # never NaN, and no overflow warns on the way, for one-segment and
        # wider blocks, summed whole or by windows
        grid = build_grid(ra, wz, ng)
        assert (grid._blocks[2] > 0.0) == blocked
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for rd in (1e3, 1e200, math.inf):
                assert capture_grid(grid, rd) == 0.0
            assert np.array_equal(capture_grid(grid, np.array([0.0, 1e3, 1e200, math.inf]))[1:], np.zeros(3))
        assert not caught

    def test_keeps_the_shape_of_rd(self):
        grid = build_grid(RA, 0.01, 300)
        rd = np.linspace(0.0, 0.3, 12).reshape(3, 4)
        vals = capture_grid(grid, rd)
        assert vals.shape == (3, 4)
        assert vals[1, 2] == capture_grid(grid, rd[1, 2])
        assert isinstance(capture_grid(grid, 0.1), float)

    @pytest.mark.parametrize("rd", [-0.1, math.nan, np.array([0.0, math.nan]), np.array([0.0, -1e-3])])
    def test_rejects_bad_displacement(self, rd):
        # the displacement check of capture_exact: a NaN rd gave a NaN
        with pytest.raises(ValueError, match="rd"):
            capture_grid(build_grid(RA, 0.1, 10), rd)

    def test_too_few_segments_rejected(self):
        # a one-segment grid built directly gave mu_p(0) = 2.39
        for build, ng in itertools.product(GRID_BUILDERS.values(), [1, 0, -3, np.int64(1)]):
            for _ in range(2):  # on a repeat call as on the first
                with pytest.raises(ValueError, match="^grid needs at least 2 segments$"):
                    build(RA, 0.1, ng)

    @pytest.mark.parametrize("ng", [10.0, 10.5, 1e5, True, np.float64(10.0), "10"],
                             ids=["10.0", "10.5", "1e5", "True", "float64", "str"])
    def test_non_integer_segment_count_rejected(self, ng):
        # no float, even an integral one, and no bool is a segment count, and
        # an equal int's cached grid must not answer for one
        build_grid(RA, 0.1, 10)
        for build in GRID_BUILDERS.values():
            for _ in range(2):  # on a repeat call as on the first
                with pytest.raises(ValueError, match="^grid segment count must be an integer, not "):
                    build(RA, 0.1, ng)
            assert build(RA, 0.1, np.int64(10)).ng == 10
        assert build_grid.cache_info().currsize >= 1 and callable(build_grid.cache_clear)

    def test_grid_of_rows_rejected(self):
        # a stated error, not numpy's "truth value of an array is ambiguous"
        with pytest.raises(ValueError, match="one point"):
            capture_grid(CaptureGrid(RA, np.array([0.05, 0.1]), 10), 0.0)
        with pytest.raises(ValueError, match="one point"):
            capture_exact(0.0, np.array([0.05, 0.1]), RA)
        # a one-element wz is one beam radius, as it was
        rd = np.array([0.0, 0.02, 0.3])
        assert capture_exact(rd, np.array([0.1]), RA).tobytes() == capture_exact(rd, 0.1, RA).tobytes()
        assert capture_classical(rd, np.array([0.1]), RA).value.tobytes() == capture_classical(rd, 0.1, RA).value.tobytes()

    @pytest.mark.parametrize("ra, ng", [(RA, 10), (1.5, 100_000)], ids=["one-segment blocks", "wider blocks"])
    def test_one_element_wz_with_a_float_rd(self, ra, ng):
        # a one-element wz (a one-value wz axis) gives the float values of its
        # radius, for a float rd too: a float, and one bool of validity
        got = capture_classical(0.01, np.array([0.1]), ra)
        assert type(got.value) is float and type(got.valid) is bool
        assert got == capture_classical(0.01, 0.1, ra)
        got = capture_exact(0.01, np.array([0.1]), ra)
        assert type(got) is float and got == capture_exact(0.01, 0.1, ra)
        got = capture_grid(CaptureGrid(ra, np.array([0.1]), ng), 0.01)
        assert type(got) is float and got == capture_grid(CaptureGrid(ra, 0.1, ng), 0.01)

    @pytest.mark.parametrize("ra,wz", [(math.nan, 0.1), (RA, math.nan), (0.0, 0.1), (RA, 0.0), (-RA, 0.1),
                                       (RA, -0.1), (math.inf, 0.1), (RA, math.inf),
                                       (RA, True), (True, 0.1), (RA, np.True_), (np.True_, 0.1)])
    def test_rejects_bad_geometry(self, ra, wz):
        # an infinite ra gave a NaN grid, a NaN row of a P-row grid a NaN
        # mu_p0, a zero or negative radius failed inside numpy, and a bool
        # radius built the grid of a 1 m radius
        for build in GRID_BUILDERS.values():
            for _ in range(2):  # on a repeat call as on the first
                with pytest.raises(ValueError, match="^the capture grid requires finite ra > 0 and wz > 0"):
                    build(ra, wz, 10)

    def test_rejects_a_wz_that_is_not_a_float_or_a_1d_array(self):
        # a list of radii built mu_p0 but failed as its weights were read
        for wz in (np.full((2, 2), 0.1), np.full((1, 1), 0.1), [0.05, 0.1], (0.1,)):
            with pytest.raises(ValueError, match="wz a float or 1-D array"):
                CaptureGrid(RA, wz, 10)
        assert CaptureGrid(RA, np.array(0.1), 10).mu_p0 == CaptureGrid(RA, 0.1, 10).mu_p0

    def test_rules_are_checked_in_order(self):
        # the segment count's type, then its size, then ra and wz
        with pytest.raises(ValueError, match="integer"):
            CaptureGrid(math.nan, np.array([0.1, math.nan]), 1.0)
        with pytest.raises(ValueError, match="at least 2"):
            CaptureGrid(math.nan, np.array([0.1, math.nan]), 1)

    def test_cache_returns_same_object(self):
        grid = build_grid(RA, 0.1, 10)
        assert grid is build_grid(RA, 0.1, 10)
        # the cached grid is shared, so its arrays must be read-only
        with pytest.raises(ValueError):
            grid.weights[0] = 0.0

    def test_blocked_grid_computes_its_weights_on_first_use(self):
        # a one-point grid of wider blocks sums without its N_g centres and
        # weights; read at once from 8 threads they come out equal and read-only
        grid = CaptureGrid(0.906, 0.64, 100_000)
        assert "centers" not in vars(grid) and "weights" not in vars(grid)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                seen = list(pool.map(lambda _: (grid.centers, grid.weights), range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for k in range(2):
            assert all(np.array_equal(a[k], seen[0][k]) and not a[k].flags.writeable for a in seen)

    # tracemalloc peak, in bytes, of building each grid and summing it at 16
    # rd before the blocked grids stopped building their centres (5,604,955,
    # 2,908,802, 2,695,174 and 3,266,869 bytes), rounded down
    PEAK_BEFORE = {
        (0.015, 10.0, 100_000): 5_600_000,  # a single block of 100,001 segments
        (0.906, 0.64, 100_000): 2_900_000,
        (0.0332, 0.0079, 100_000): 2_690_000,
        (1.5, 0.10, 100_000): 3_260_000,  # windowed
    }

    @pytest.mark.parametrize("ra,wz,ng", list(PEAK_BEFORE))
    def test_blocked_grid_holds_nothing_per_segment(self, ra, wz, ng):
        # a grid of wider blocks builds and sums with neither its centres nor
        # its weights, and its build temporaries stay in column chunks
        tracemalloc.start()
        try:
            grid = CaptureGrid(ra, wz, ng)
            capture_grid(grid, np.linspace(0.0, ra + 12.0 * wz, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "centers" not in vars(grid) and "weights" not in vars(grid)
        assert peak <= self.PEAK_BEFORE[ra, wz, ng]

    def test_block_offsets_match_exact_arithmetic(self):
        # each block's centre is the segment centre (i_b + 0.5) dx - ra bit for
        # bit, and its offset the exact mean of x_j - X_b - s tau_j over its
        # segments' centres x_j, to the rounding of the two differences of a
        # term (each under an ulp of s): at the first, a random and the last
        # (padded) block of seeded grids over the box
        def scaled(v):  # v 2^1100 as an int, exact for every double
            n, d = v.as_integer_ratio()
            return n * (2**1100 // d)

        rng = np.random.default_rng(32)
        checked = 0
        while checked < 40:
            ra, wz = np.exp(rng.uniform(np.log([0.015, 0.005]), np.log([1.5, 10.0]))).tolist()
            ng = int(rng.integers(32, 100_001))
            dx = 2.0 * ra / ng
            h = int(_half_block(wz, dx, ng))
            if not h:
                continue
            checked += 1
            size, s = 2 * h + 1, h * dx
            middle = np.arange(h, ng + h, size) + 0.5
            centre, d = beam._block_offsets(middle, h, dx, ra)
            assert np.array_equal(centre, middle * dx - ra)
            tau = sum(map(scaled, (np.arange(-h, h + 1.0) / h).tolist()))
            for b in {0, int(rng.integers(middle.size)), middle.size - 1}:
                x = (b * size + np.arange(size) + 0.5) * dx - ra  # the operations of CaptureGrid.centers
                exact = (sum(map(scaled, x.tolist())) - size * scaled(centre[b])) * 2**1100 - scaled(s) * tau
                assert abs(Fraction(d[b]) - Fraction(exact, size * 2**2200)) <= Fraction(s) * 2**-51

    def test_block_shift_follows_the_stored_centres(self):
        # the stored centres' roundings run together over neighbouring segments:
        # here a block's mean offset is X_b's own rounding plus as much again,
        # and a shift by X_b's rounding alone put the sum at rd = 0.2426 at
        # 1.04 times the oracle bound (0.04 with the mean offset)
        ra, wz, ng = 0.33967191059600993, 0.008659643233600654, 92773
        grid = build_grid(ra, wz, ng)
        rd = np.array([0.0, ra, 0.546875 * (ra + 12.0 * wz)])
        truth = oracles.grid_sum(grid, rd)
        bound = 8.0 * np.finfo(float).eps * (1.0 + np.abs(np.log(truth)))
        assert np.all(np.abs(capture_grid(grid, rd) - truth) <= bound * truth)

    @pytest.mark.parametrize("ng", [2, 3, 10, 101, 1000, 10_000, 100_000])
    @pytest.mark.parametrize("ra,wz", [(RA, 0.10), (1.5, 0.005), (0.015, 10.0)])
    def test_cached_mu_p0_is_capture_grid_at_zero(self, ng, ra, wz):
        # one evaluator: the value kept with the grid is the grid sum itself,
        # bit for bit, on the dense and on the windowed path
        grid = build_grid(ra, wz, ng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CaptureOverflowWarning)
            assert grid.mu_p0 == capture_grid(grid, 0.0)
        assert isinstance(grid.mu_p0, float)

    @pytest.mark.parametrize(
        "ng,ra,wz",
        [(2, 1.5, 0.005), (3, RA, 0.05), (100, 1.5, 0.005), (10, RA, 0.10), (20_000, 1.5, 0.005), (10, 0.25, 0.05)],
    )
    def test_peak_is_the_largest_probed_grid_sum(self, ng, ra, wz):
        # segments wider than half the beam: the grid sum peaks near the
        # segment centres (at N_g = 10, ra = 25 cm, wz = 5 cm it dips to
        # 0.9856 at rd = 0 and reaches 1.0144 at the centre 2.5 cm out), so
        # peak is its largest value at rd = 0 and the positive centres
        grid = build_grid(ra, wz, ng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CaptureOverflowWarning)
            if 2.0 * grid.dx > wz:
                probe = np.concatenate(([0.0], grid.centers[grid.centers > 0.0]))
                assert grid.peak == capture_grid(grid, probe).max()
                assert grid.peak >= grid.mu_p0
            else:
                assert grid.peak == grid.mu_p0
        assert isinstance(grid.peak, float)

    @pytest.mark.parametrize("ng", [2, 100, 20_000])
    def test_rows_equal_the_grids_of_one_point(self, ng):
        wz = np.array([0.005, 0.1, 0.005, 2.0, 0.03])
        rows = CaptureGrid(1.5, wz, ng)
        for k, w in enumerate(wz.tolist()):
            one = build_grid(1.5, w, ng)
            assert np.array_equal(rows.weights[k], one.weights)
            assert (rows.mu_p0[k], rows.peak[k]) == (one.mu_p0, one.peak)
            assert np.array_equal(rows.centers, one.centers) and rows.dx == one.dx

    @pytest.mark.parametrize(
        "ra,wz,ng",
        [(1.5, 0.005, 2), (0.1368702680575047, 0.01974931768544306, 4544)],
        ids=["corner", "ra/wz=6.93"],
    )
    def test_grid_sum_passes_exp_no_subnormal_result(self, monkeypatch, ra, wz, ng):
        # exp of an argument below ln(tiny) = -708.40 is subnormal, ~100x
        # slower than a normal result: the kernel passes -inf for such terms
        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, *args, **kwargs):
                seen.append(np.array(x))
                return np.exp(x, *args, **kwargs)

        seen = []
        grid = build_grid(ra, wz, ng)
        blocks = grid._blocks
        monkeypatch.setattr(beam, "np", RecordingNumpy())
        beam._grid_sum(*blocks, wz, np.linspace(0.0, ra + 9.0 * wz, 128))
        args = np.concatenate([a.ravel() for a in seen])
        assert args.size >= 128 * ng
        assert not ((args < math.log(np.finfo(float).tiny)) & (args > -np.inf)).any()

    def test_grid_sums_match_pinned_digest(self):
        assert grid_sum_digests() == (ONE_SEGMENT_DIGEST, WIDER_BLOCK_DIGEST)

    def test_cached_mu_p0_covers_the_windowed_path(self):
        # the parameter grid above reaches the windowed sum: fewer segments
        # lie within 9 wz of rd = 0 than the grid has
        grid = build_grid(1.5, 0.005, 1000)
        assert math.ceil(18.0 * grid.wz / grid.dx) + 2 < grid.ng


ROW_KINDS = ("one-segment", "windowed", "spike", "wider")


def _row_kind(grid) -> str:
    """How a one-point grid derives its mu_p0: the dense row sum over the
    whole grid ("one-segment"), or ``_grid_sum`` over a window of it, over
    spikes (2 dx > wz) or over wider blocks."""
    if _half_block(grid.wz, grid.dx, grid.ng):
        return "wider"
    if 2.0 * grid.dx > grid.wz:
        return "spike"
    return "windowed" if beam._window(grid.wz, 0.0, grid.dx) < grid.ng else "one-segment"


@st.composite
def _mean_case(draw):
    """(ra, wz, N_g <= 500, sigma = sigma_theta_e Lz) over the validator box,
    of a grid of each row kind in turn: spikes below N_g = 4 ra / wz, wider
    blocks from N_g = 2,336 ra / wz (wz >= 1,168 dx)."""
    kind = draw(st.sampled_from(ROW_KINDS))
    ra, wz = draw(log_uniform_field("ra")), draw(log_uniform_field("wz"))
    spike = math.ceil(4.0 * ra / wz)
    lo, hi = {"spike": (2, spike - 1), "wider": (max(32, math.ceil(2336.0 * ra / wz)), 500)}.get(kind, (spike, 500))
    lo, hi = max(lo, 2), min(hi, 500)
    assume(lo <= hi)
    ng = draw(st.integers(lo, hi))
    assume(_row_kind(build_grid(ra, wz, ng)) == kind)
    return ra, wz, ng, draw(log_uniform_field("sigma_theta_e")) * draw(log_uniform_field("Lz"))


class TestCaptureGridMean:
    @settings(max_examples=150, deadline=None)
    @given(_mean_case())
    @example((0.15, 0.10, 10, 0.05))  # the reference link: one-segment blocks
    @example((1.5, 0.03, 500, 0.05))  # windowed
    @example((1.5, 0.005, 2, 5e-4))  # spikes, the mean far below the smallest double
    @example((0.015, 10.0, 500, 200.0))  # wider blocks, sigma at the top of the box
    @example((1.5, 0.005, 300, 1e-3))  # spikes: a sum without the odd part misses by 15 bounds
    @example((1.0, 0.01, 6, 1e-3))  # spikes 33 wz apart: a mu_p0 without rd = 0's left neighbour missed by 34 bounds
    def test_matches_40_digit_oracle(self, case):
        # against sum_i c_i J(x_i) at 40 digits, to the grid sum's own bound;
        # a mean below the smallest normal double may come back as 0 or subnormal
        ra, wz, ng, sigma = case
        grid = build_grid(ra, wz, ng)
        got = beam.capture_grid_mean(grid, np.array([sigma]))
        assert got.shape == (1,)
        truth = oracles.grid_mean(grid, sigma)
        bound = 8.0 * np.finfo(float).eps * (1.0 + abs(mpmath.log(truth)))
        assert abs(mpmath.mpf(got[0]) - truth) <= bound * truth + np.finfo(float).tiny

    def test_draw_covers_every_row_kind(self):
        kinds = set()

        # derandomized: windowed grids are about 7% of the draws
        @settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @given(_mean_case())
        def record(case):
            kinds.add(_row_kind(build_grid(*case[:3])))

        record()
        assert kinds == set(ROW_KINDS)

    def test_zero_sigma_gives_mu_p0(self):
        # z = 0 makes the sum 0 and wz^2 / s2 is exactly 1: bit for bit, on
        # every row of a grid holding each row kind and on one-point grids
        wz = np.array([1.0, 0.005, 0.03, 10.0])
        rows = CaptureGrid(1.5, wz, 500)
        assert {_row_kind(build_grid(1.5, w, 500)) for w in wz.tolist()} == set(ROW_KINDS)
        assert np.array_equal(beam.capture_grid_mean(rows, np.zeros(wz.size)), rows.mu_p0)
        for w in wz.tolist():
            grid = build_grid(1.5, w, 500)
            assert np.array_equal(beam.capture_grid_mean(grid, np.zeros(3)), np.full(3, grid.mu_p0))


# sha256 of the bytes of capture_grid values (signs of zero included) and of
# mu_p0, one digest for the grids of one-segment blocks and one for those of
# wider blocks: any change to the arithmetic of the grid sum changes one.
# ONE_SEGMENT_DIGEST has held since the two were split from one digest
# (last ac95cb25584fecec, re-pinned when the interior blocks began to take
# their moments from Chebyshev samples of the chord weight). WIDER_BLOCK_DIGEST
# was 660a017db1b78500 until every block's moments came from one table of
# nominal offsets, shifted by the block's mean offset: 72 of its 205 values
# moved, and the worst of them against the long-double oracle stayed at 0.166
# of the bound (0.166 before)
ONE_SEGMENT_DIGEST = "9e86913306605d21"
WIDER_BLOCK_DIGEST = "1fb2613d764213e7"
GRID_SUM_CASES = [
    (0.15, 0.10, 10), (1.5, 2.0, 1000),  # one-segment blocks, whole grid
    (1.5, 0.005, 1000), (1.5, 0.005, 100_000),  # one-segment blocks, windowed
    (0.15, 0.10, 100_000), (0.906, 0.64, 100_000), (0.015, 10.0, 5000),  # wider blocks, whole grid
    (1.5, 0.10, 100_000),  # wider blocks, windowed
    (1.5, 0.005, 2), (0.15, 0.05, 3), (0.25, 0.05, 10),  # segments wider than half the beam
]


def grid_sum_digests() -> tuple[str, str]:
    """Digests of the grid sums of one-segment and of wider-block grids: of
    GRID_SUM_CASES and 8 seeded grids over the validator box at rd = 0, 24
    seeded draws up to ra + 12 wz, 1e3, 1e200 and inf, and of the mu_p0 row
    of a grid of 5 radii, each value in the digest of its grid or row."""
    rng = np.random.default_rng(19)
    box = np.exp(rng.uniform(np.log([0.015, 0.005, 2.0]), np.log([1.5, 10.0, 100_000.0]), (8, 3)))
    cases = GRID_SUM_CASES + [(ra, wz, round(ng)) for ra, wz, ng in box.tolist()]
    digests = hashlib.sha256(), hashlib.sha256()
    for ra, wz, ng in cases:
        grid = build_grid(ra, wz, ng)
        rd = np.concatenate(([0.0], rng.uniform(0.0, ra + 12.0 * wz, 24), [1e3, 1e200, math.inf]))
        digest = digests[bool(_half_block(wz, grid.dx, ng))]
        digest.update(capture_grid(grid, rd).tobytes())
        digest.update(np.float64(grid.mu_p0).tobytes())
    rows = CaptureGrid(1.5, np.array([0.005, 0.1, 2.0, 0.03, 5.0]), 20_000)
    wider = _half_block(rows.wz, rows.dx, rows.ng) > 0
    digests[0].update(rows.mu_p0[~wider].tobytes())
    digests[1].update(rows.mu_p0[wider].tobytes())
    return tuple(d.hexdigest()[:16] for d in digests)
