import math
import re
import sys
import warnings
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import log_uniform_field
from uavqkd import analytics, config
from uavqkd.config import (
    _FIELDS,
    LinkConfig,
    _check_range,
    build_context,
    dumps,
    load_config,
    loads,
    parse_quantity,
    validate,
)
from uavqkd.errors import ConfigError


def _log_uniform_from_zero(name):
    """Zero or a log-uniform draw over the top nine decades of a field whose range starts at zero."""
    _, lo, hi = _FIELDS[name]
    assert lo == 0.0
    return st.just(0.0) | st.floats(-9.0, 0.0).map(lambda e: hi * 10.0**e)


def _evaluated(cfg):
    """The repr of ``cfg``'s analytic evaluation, exact to the bit, or of the error it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return repr(analytics.evaluate(build_context(cfg)))
    except ValueError as exc:
        return repr(exc)


class TestParseQuantity:
    def test_unit_conversions(self):
        assert parse_quantity("50 urad", "angle") == pytest.approx(5e-5)
        assert parse_quantity("50 µrad", "angle") == pytest.approx(5e-5)
        assert parse_quantity("10 cm", "length") == pytest.approx(0.10)
        assert parse_quantity("1.55 um", "length") == pytest.approx(1.55e-6)
        assert parse_quantity("10 ns", "time") == pytest.approx(1e-8)
        assert parse_quantity("1 nm", "bandwidth_nm") == 1.0
        assert parse_quantity("1e-6 W/m2/sr/nm", "radiance") == 1e-6
        assert parse_quantity("0.9163 1/km", "attenuation") == pytest.approx(9.163e-4)

    @pytest.mark.parametrize("key", [k for k, (kind, _, _) in config._FIELDS.items() if kind in config._UNITS])
    def test_every_bound_exact_in_every_unit(self, key):
        # a factor of 1e-6 read 5 urad as 4.9999999999999996e-06, below its own bound
        # a set partner keeps loads from deriving wz or eta_atm, which fall outside
        # their own ranges at w0 = 10 m (wz = 10.0000000001 m) and alpha_a = 0.069 /m (eta_atm = e^-69)
        partner = {"w0": "\nwz = 10 cm", "alpha_a": "\neta_atm = 0.4"}.get(key, "")
        kind, lo, hi = config._FIELDS[key]
        for bound in (lo, hi):
            for unit, power in config._UNITS[kind].items():
                text = f"{Decimal(repr(bound)).scaleb(-power)} {unit}"
                assert parse_quantity(text, kind) == bound, text
                assert getattr(loads(f"{key} = {text}{partner}"), key) == bound, text

    def test_prefixed_unit_gives_the_nearest_double(self):
        # the README's 50 urad was an ulp below LinkConfig()'s 50e-6
        assert parse_quantity("50 urad", "angle") == LinkConfig().sigma_theta_e
        assert parse_quantity("1.55 um", "length") == LinkConfig().wavelength
        assert parse_quantity("0.9163 1/km", "attenuation") == 9.163e-4

    def test_dimensionless(self):
        assert parse_quantity("0.5", "float") == 0.5
        assert parse_quantity("-1e-3", "float") == -1e-3
        with pytest.raises(ConfigError):
            parse_quantity("0.5 m", "float")

    def test_bare_number_rejected_for_dimensioned(self):
        with pytest.raises(ConfigError, match="unit"):
            parse_quantity("0.1", "length")

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigError, match="unknown unit"):
            parse_quantity("10 furlong", "length")

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity("ten cm", "length")

    def test_exponent_past_the_int_digit_limit_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_quantity("1e" + "0" * 5000 + "1 cm", "length")


class TestDefaults:
    def test_reference_parameter_set(self):
        cfg = loads("")
        assert cfg.Lz == 1000.0
        assert cfg.ra == 0.15
        assert cfg.mu_t == 0.5
        assert cfg.eta_atm == 0.4
        assert cfg.mu_d == 0.6
        assert cfg.T_qs == 1e-8
        assert cfg.r_f == 5e-6
        assert cfg.L_f == 0.15
        assert cfg.alpha == 2.1
        assert cfg.beta == 1.8
        assert cfg.wavelength == 1.55e-6
        assert cfg.delta_lambda == 1.0
        assert cfg.Ng == 10

    def test_derived_fov_default(self):
        cfg = loads("")
        assert build_context(cfg).theta_fov == pytest.approx(33.333e-6, rel=1e-3)

    def test_explicit_theta_fov_wins(self):
        cfg = loads("theta_fov = 100 urad\nr_f = 10 um")
        assert build_context(cfg).theta_fov == 1e-4

    def test_resolved_mu_b(self):
        cfg = loads("theta_fov = 100 urad")
        assert build_context(cfg).mu_b == pytest.approx(1.73e-4, rel=1e-2)

    def test_explicit_mu_b_wins(self):
        cfg = loads("mu_b = 0.25")
        assert build_context(cfg).mu_b == 0.25


class TestLoads:
    def test_basic_file(self):
        cfg = loads(
            """
            # pointing jitter study
            sigma_theta_e = 50 urad
            wz = 10 cm
            B_lambda = 1e-5 W/m2/sr/nm
            mu_t = 0.7
            """
        )
        assert cfg.sigma_theta_e == pytest.approx(5e-5)
        assert cfg.wz == pytest.approx(0.10)
        assert cfg.B_lambda == 1e-5
        assert cfg.mu_t == 0.7

    def test_range_violation(self):
        with pytest.raises(ConfigError, match="range"):
            loads("mu_t = -1")
        with pytest.raises(ConfigError, match="range"):
            loads("T_qs = 1 ms")

    def test_parse_error_wins_over_an_earlier_range_error(self):
        # every line is parsed before any value is range-checked
        with pytest.raises(ConfigError, match="line 2: mu_t: cannot parse"):
            loads("wz = 50 m\nmu_t = abc")

    def test_each_set_field_range_checked_once_by_validate(self, monkeypatch):
        seen = []

        def check(key, value):
            seen.append((key, sys._getframe(1).f_code.co_name))
            _check_range(key, value)

        monkeypatch.setattr(config, "_check_range", check)
        cfg = loads("wz = 7 cm\nmu_t = 0.4\ntheta_fov = 100 urad")
        assert seen == [(name, "validate") for name in _FIELDS if getattr(cfg, name) is not None]

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            loads("waist = 10 cm")

    def test_retired_quad_tol_key(self):
        # no evaluation integrates adaptively any more, so its tolerance is gone
        with pytest.raises(ConfigError, match="unknown key 'quad_tol'"):
            loads("quad_tol = 1e-10")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            loads("mu_t = 0.5\nmu_t = 0.6")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            loads("just some words")

    def test_missing_unit_names_field_and_line(self):
        with pytest.raises(ConfigError, match="line 1: wz"):
            loads("wz = 0.1")

    def test_int_fields(self):
        assert loads("Ng = 50").Ng == 50
        with pytest.raises(ConfigError, match="integer"):
            loads("Ng = 12.5")

    def test_enum_field(self):
        assert loads("energy_convention = planck_hbar").energy_convention == "planck_hbar"
        with pytest.raises(ConfigError):
            loads("energy_convention = joule")

    def test_alpha_a_derivation(self):
        alpha_a = math.log(2.5) / 1000.0
        cfg = loads(f"alpha_a = {alpha_a} 1/m")
        assert cfg.eta_atm is None
        assert build_context(cfg).eta_atm == pytest.approx(0.4, rel=1e-12)

    def test_direct_eta_atm_wins_over_alpha_a(self):
        cfg = loads("alpha_a = 1e-3 1/m\neta_atm = 0.7")
        assert cfg.alpha_a == 1e-3
        assert build_context(cfg).eta_atm == 0.7

    def test_w0_derivation_when_wz_unset(self):
        cfg = LinkConfig(wz=None, w0=1e-2)
        assert build_context(cfg).wz == pytest.approx(5.034e-2, rel=1e-3)

    def test_direct_wz_wins_over_w0(self):
        cfg = LinkConfig(wz=0.08, w0=1e-2)
        assert build_context(cfg).wz == 0.08

    def test_w0_in_a_file_derives_wz(self):
        # wz's 10 cm default used to win over a w0 the file set
        cfg = loads("w0 = 1 cm\n")
        assert cfg == LinkConfig(wz=None, w0=0.01)
        assert build_context(cfg).wz == pytest.approx(5.034e-2, rel=1e-3)

    def test_wz_in_a_file_wins_over_w0(self):
        cfg = loads("w0 = 1 cm\nwz = 8 cm")
        assert (cfg.w0, cfg.wz) == (0.01, 0.08)
        assert build_context(cfg).wz == 0.08

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "link.cfg"
        path.write_text("wz = 5 cm\nseed = 99\n")
        cfg = load_config(str(path))
        assert cfg.wz == pytest.approx(0.05)
        assert cfg.seed == 99


class TestRoundTrip:
    def test_dump_then_load_is_identity(self):
        cfg = loads("wz = 7 cm\nsigma_theta_e = 75 urad\nB_lambda = 2e-6 W/m2/sr/nm")
        assert loads(dumps(cfg)) == cfg

    def test_default_round_trip(self):
        cfg = LinkConfig()
        assert loads(dumps(cfg)) == cfg

    @settings(max_examples=60, deadline=None)
    @given(
        lz=log_uniform_field("Lz"),
        wavelength=log_uniform_field("wavelength"),
        eta_atm=st.none() | log_uniform_field("eta_atm"),
        alpha_a=st.none() | _log_uniform_from_zero("alpha_a"),
        wz=st.none() | log_uniform_field("wz"),
        w0=st.none() | log_uniform_field("w0"),
        theta_fov=st.none() | log_uniform_field("theta_fov"),
        mu_b=st.none() | _log_uniform_from_zero("mu_b"),
    )
    @example(lz=1000.0, wavelength=1.55e-6, eta_atm=0.4, alpha_a=None, wz=None, w0=0.01, theta_fov=None, mu_b=None)
    @example(lz=1000.0, wavelength=1.55e-6, eta_atm=None, alpha_a=1e-4, wz=0.1, w0=None, theta_fov=None, mu_b=None)
    def test_round_trip_over_the_validator_box(self, lz, wavelength, eta_atm, alpha_a, wz, w0, theta_fov, mu_b):
        assume(eta_atm is not None or alpha_a is not None)
        assume(wz is not None or w0 is not None)
        cfg = LinkConfig(Lz=lz, wavelength=wavelength, eta_atm=eta_atm, alpha_a=alpha_a, wz=wz, w0=w0,
                         theta_fov=theta_fov, mu_b=mu_b)
        try:
            validate(cfg)
        except ConfigError as exc:  # a derived field outside its range: loading the text raises it too
            with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
                loads(dumps(cfg))
            return
        loaded = loads(dumps(cfg))
        assert loaded == cfg
        assert _evaluated(loaded) == _evaluated(cfg)

    def test_canonical_text(self):
        # every unit kind in its SI unit, the optional fields included
        assert dumps(LinkConfig()) == (
            "Lz = 1000.0 m\nra = 0.15 m\nmu_t = 0.5\neta_atm = 0.4\nmu_d = 0.6\nT_qs = 1e-08 s\n"
            "r_f = 5e-06 m\nL_f = 0.15 m\nalpha = 2.1\nbeta = 1.8\nwavelength = 1.55e-06 m\n"
            "delta_lambda = 1.0 nm\nNg = 10\nwz = 0.1 m\nsigma_theta_e = 5e-05 rad\nsigma_aoa = 5e-05 rad\n"
            "B_lambda = 1e-06 W/m2/sr/nm\nenergy_convention = planck_h\nn_slots = 1000000\nseed = 12345\n"
        )
        cfg = LinkConfig(eta_atm=None, alpha_a=1e-4, w0=0.02, wz=None, theta_fov=1e-4, mu_b=0.001)
        assert dumps(cfg) == (
            "Lz = 1000.0 m\nra = 0.15 m\nmu_t = 0.5\nalpha_a = 0.0001 1/m\nmu_d = 0.6\nT_qs = 1e-08 s\n"
            "r_f = 5e-06 m\nL_f = 0.15 m\nalpha = 2.1\nbeta = 1.8\nwavelength = 1.55e-06 m\n"
            "delta_lambda = 1.0 nm\nNg = 10\nw0 = 0.02 m\nsigma_theta_e = 5e-05 rad\nsigma_aoa = 5e-05 rad\n"
            "theta_fov = 0.0001 rad\nB_lambda = 1e-06 W/m2/sr/nm\nenergy_convention = planck_h\n"
            "n_slots = 1000000\nseed = 12345\nmu_b = 0.001\n"
        )

    def test_numpy_scalars_round_trip(self):
        # validate accepts any numbers.Real / numbers.Integral, so dumps must
        # write numpy scalars as plain literals that loads parses back
        cfg = LinkConfig(wz=np.float64(0.07), mu_t=np.float64(0.5), sigma_aoa=np.float32(6e-5), Ng=np.int64(40),
                         seed=np.int64(7), theta_fov=np.float32(1e-4))
        text = dumps(cfg)
        assert "np." not in text
        assert "wz = 0.07 m\n" in text and "mu_t = 0.5\n" in text and "Ng = 40\n" in text
        assert loads(text) == cfg


class TestBuildContext:
    def test_wiring(self):
        ctx = build_context(loads("theta_fov = 100 urad"))
        assert ctx.c_pt == pytest.approx(0.12, rel=1e-12)
        assert ctx.R_q == pytest.approx(1e8, rel=1e-12)
        assert ctx.grid.wz == pytest.approx(0.10)
        assert ctx.grid.ng == 10
        assert ctx.sigma_rd == pytest.approx(0.05)
        assert ctx.theta_fov == pytest.approx(1e-4)
        assert ctx.mu_b == pytest.approx(1.7327552631619765e-4, rel=1e-12)

    def test_w0_derived_beam(self):
        ctx = build_context(LinkConfig(wz=None, w0=1e-2))
        assert ctx.grid.wz == pytest.approx(5.034e-2, rel=1e-3)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            # wz = 49.3 m past its 10 m bound, eta_atm = exp(-50) = 1.9e-22 below its 1e-3 bound,
            # theta_fov = 3.33 mrad past its 2 mrad bound
            ({"wz": None, "w0": 1e-3, "wavelength": 1.55e-5, "Lz": 1e4}, r"^wz derived from w0, wavelength, Lz: 49\.3"),
            ({"eta_atm": None, "alpha_a": 0.05}, r"^eta_atm derived from alpha_a, Lz: 1\.9287\d*e-22 outside allowed range"),
            ({"r_f": 50e-6, "L_f": 0.015}, r"^theta_fov derived from r_f, L_f: 0\.00333"),
        ],
    )
    def test_derived_field_range_checked(self, overrides, message):
        cfg = LinkConfig(**overrides)
        for check in (validate, build_context, lambda cfg: loads(dumps(cfg))):
            with pytest.raises(ConfigError, match=message):
                check(cfg)

    def test_rejects_incomplete_config(self):
        from dataclasses import replace

        cfg = replace(LinkConfig(), eta_atm=None)
        with pytest.raises(ConfigError):
            build_context(cfg)

    def test_required_field_rejected_when_none(self):
        with pytest.raises(ConfigError, match=r"^r_f is required$"):
            validate(replace(LinkConfig(), r_f=None))


_NUMERIC = [f.name for f in fields(LinkConfig) if isinstance(getattr(LinkConfig(), f.name), float)]
_INTEGER = ["Ng", "n_slots", "seed"]


class TestInputEdge:
    def test_nan_beam_radius_rejected(self):
        with pytest.raises(ConfigError, match="wz"):
            build_context(LinkConfig(wz=math.nan))

    def test_fractional_grid_rejected(self):
        with pytest.raises(ConfigError, match="Ng"):
            build_context(LinkConfig(Ng=10.5))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(_NUMERIC + ["mu_b", "theta_fov", "w0", "alpha_a"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_values_rejected(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            build_context(replace(LinkConfig(), **{name: bad}))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(_INTEGER),
           bad=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.text(max_size=3)))
    def test_non_integer_counts_rejected(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            build_context(replace(LinkConfig(), **{name: bad}))

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_huge_int_on_float_field_rejected(self, value):
        # beyond the float range: math.isfinite raised OverflowError here
        with pytest.raises(ConfigError, match="mu_t"):
            validate(LinkConfig(mu_t=value))
        with pytest.raises(ConfigError, match="wz"):
            build_context(LinkConfig(wz=value))

    def test_huge_int_on_int_field_rejected(self):
        with pytest.raises(ConfigError, match="Ng"):
            validate(LinkConfig(Ng=10**400))
        # past the 4,300-digit limit of int -> str conversion
        for value in (10**5000, -(10**5000)):
            for name in ("Ng", "n_slots"):
                with pytest.raises(ConfigError, match=name):
                    validate(LinkConfig(**{name: value}))

    @settings(max_examples=30, deadline=None)
    @given(ng=st.integers(2, 100_000))
    def test_integer_grid_accepted(self, ng):
        validate(LinkConfig(Ng=ng))


class _FloatSub(float):
    pass


# The verdicts of the ABC-only type test that preceded the exact-type
# shortcut in _check_range, recorded from that implementation: None
# accepts, a string is the ConfigError message.
_VERDICTS = [
    ("mu_t", True, "mu_t: True is not a finite number"),
    ("mu_t", np.bool_(True), "mu_t: np.True_ is not a finite number"),
    ("mu_t", np.int64(1), None),
    ("mu_t", np.int64(10), "mu_t: value 10 outside allowed range [0.05, 5.0]"),
    ("mu_t", np.float64(0.5), None),
    ("mu_t", _FloatSub(0.5), None),
    ("mu_t", Fraction(1, 2), None),
    ("mu_t", Decimal("0.5"), "mu_t: Decimal('0.5') is not a finite number"),
    ("mu_t", "1.0", "mu_t: '1.0' is not a finite number"),
    ("mu_t", math.nan, "mu_t: nan is not a finite number"),
    ("mu_t", math.inf, "mu_t: inf is not a finite number"),
    ("mu_t", -math.inf, "mu_t: -inf is not a finite number"),
    ("mu_t", 0.5, None),
    ("mu_t", 1, None),
    ("mu_t", 10, "mu_t: value 10 outside allowed range [0.05, 5.0]"),
    ("mu_t", 7.0, "mu_t: value 7.0 outside allowed range [0.05, 5.0]"),
    ("Ng", True, "Ng: True is not an integer"),
    ("Ng", np.bool_(True), "Ng: np.True_ is not an integer"),
    ("Ng", np.int64(1), "Ng: value 1 outside allowed range [2, 100000]"),
    ("Ng", np.int64(10), None),
    ("Ng", np.float64(0.5), "Ng: np.float64(0.5) is not an integer"),
    ("Ng", _FloatSub(0.5), "Ng: 0.5 is not an integer"),
    ("Ng", Fraction(1, 2), "Ng: Fraction(1, 2) is not an integer"),
    ("Ng", Decimal("0.5"), "Ng: Decimal('0.5') is not an integer"),
    ("Ng", "1.0", "Ng: '1.0' is not an integer"),
    ("Ng", math.nan, "Ng: nan is not an integer"),
    ("Ng", math.inf, "Ng: inf is not an integer"),
    ("Ng", -math.inf, "Ng: -inf is not an integer"),
    ("Ng", 0.5, "Ng: 0.5 is not an integer"),
    ("Ng", 1, "Ng: value 1 outside allowed range [2, 100000]"),
    ("Ng", 10, None),
    ("Ng", 7.0, "Ng: 7.0 is not an integer"),
]


@pytest.mark.parametrize("key,value,verdict", _VERDICTS, ids=lambda v: repr(v))
def test_check_range_verdicts_unchanged(key, value, verdict):
    if verdict is None:
        _check_range(key, value)
    else:
        with pytest.raises(ConfigError) as exc:
            _check_range(key, value)
        assert str(exc.value) == verdict
