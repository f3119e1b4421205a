"""Configuration: flat key-value files with explicit units, validated ranges.

Format: one ``key = value`` pair per line, ``#`` comments. Dimensioned
fields require a unit suffix ("wz = 10 cm", "sigma_theta_e = 50 urad");
bare numbers are rejected for them, because silently misread units are the
dominant user error in a parameter set that mixes cm, urad and nm.
Dimensionless fields (mu_t, alpha, ...) take bare numbers.

Every value is converted to SI on load and validated against the physical
ranges of the reference parameter set with a 10x margin on each side.
Unknown keys are errors.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .analytics import AnalyticContext
from .beam import CaptureGrid, beam_radius, build_grid
from .channel import atm_transmittance, background_mean, fov_geometry, solid_angle
from .errors import ConfigError

__all__ = ["LinkConfig", "load_config", "loads", "dumps", "build_context", "parse_quantity"]

# unit -> power of ten to SI (bandwidth is kept in nm to pair with B_lambda per nm)
_UNITS = {
    "length": {"m": 0, "cm": -2, "mm": -3, "um": -6, "µm": -6, "nm": -9, "km": 3},
    "angle": {"rad": 0, "mrad": -3, "urad": -6, "µrad": -6},
    "time": {"s": 0, "ms": -3, "us": -6, "µs": -6, "ns": -9},
    "bandwidth_nm": {"nm": 0, "pm": -3, "um": 3, "µm": 3},
    "radiance": {"W/m2/sr/nm": 0, "W/m^2/sr/nm": 0},
    "attenuation": {"1/m": 0, "1/km": -3},
}

_QTY_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([^\s]*)\s*$")


def parse_quantity(text: str, kind: str, field: str = "") -> float:
    """Parse "number [unit]" into SI for the given kind.

    Dimensioned kinds require a unit from their table; bare numbers raise.
    """
    m = _QTY_RE.match(text)
    if not m:
        raise ConfigError(f"{field or kind}: cannot parse quantity {text!r}")
    number, unit = m.group(1), m.group(2)
    if kind == "float":
        if unit:
            raise ConfigError(f"{field}: unexpected unit {unit!r} on dimensionless value")
        return float(number)
    table = _UNITS[kind]
    if not unit:
        raise ConfigError(
            f"{field}: value {text!r} needs an explicit unit "
            f"(one of {', '.join(sorted(table))})"
        )
    if unit not in table:
        raise ConfigError(f"{field}: unknown unit {unit!r} (allowed: {', '.join(sorted(table))})")
    # shift the decimal exponent: the double nearest the decimal value in SI,
    # where multiplying by an inexact factor (1e-6) can miss it by an ulp
    digits, _, exp = number.lower().partition("e")
    try:
        return float(f"{digits}e{int(exp or 0) + table[unit]}")
    except ValueError:  # an exponent past Python's digit limit for int()
        raise ConfigError(f"{field or kind}: cannot parse quantity {text!r}") from None


def _field(default, kind: str, lo: float | None = None, hi: float | None = None):
    """A ``LinkConfig`` field: its default, unit kind and validator range [lo, hi]."""
    return field(default=default, metadata={"spec": (kind, lo, hi)})


@dataclass(frozen=True)
class LinkConfig:
    """Full link parameter set in SI units, defaulting to the reference values.

    Each field declares its unit kind and its validator range [lo, hi]: the
    reference value with a 10x margin; None bounds are open. Four fields
    are given or derived, and a given value wins:

    * ``eta_atm``, else derived from ``alpha_a`` and ``Lz``;
    * ``wz``, else the beam radius at ``Lz`` of the waist ``w0``;
    * ``theta_fov``, else the FoV of the fiber optics (``r_f``, ``L_f``);
    * ``mu_b``, else the mean background count from radiometry.
    """

    Lz: float = _field(1000.0, "length", 100.0, 10_000.0)
    ra: float = _field(0.15, "length", 0.015, 1.5)
    mu_t: float = _field(0.5, "float", 0.05, 5.0)
    eta_atm: float | None = _field(0.4, "float", 1e-3, 1.0)
    alpha_a: float | None = _field(None, "attenuation", 0.0, 0.069)  # ln(1000) / 100 m: eta_atm >= 1e-3 at some Lz
    mu_d: float = _field(0.6, "float", 0.06, 1.0)
    T_qs: float = _field(1e-8, "time", 1e-9, 1e-7)
    r_f: float = _field(5e-6, "length", 5e-7, 5e-5)
    L_f: float = _field(0.15, "length", 0.015, 1.5)
    alpha: float = _field(2.1, "float", 0.2, 25.0)
    beta: float = _field(1.8, "float", 0.2, 25.0)
    wavelength: float = _field(1.55e-6, "length", 1.55e-7, 1.55e-5)
    delta_lambda: float = _field(1.0, "bandwidth_nm", 0.1, 10.0)
    Ng: int = _field(10, "int", 2, 100_000)
    wz: float | None = _field(0.10, "length", 0.005, 10.0)
    w0: float | None = _field(None, "length", 0.001, 10.0)
    sigma_theta_e: float = _field(50e-6, "angle", 5e-6, 2e-2)
    sigma_aoa: float = _field(50e-6, "angle", 5e-6, 2e-3)
    theta_fov: float | None = _field(None, "angle", 5e-7, 2e-3)
    B_lambda: float = _field(1e-6, "radiance", 0.0, 1e-3)
    energy_convention: str = _field("planck_h", "enum:planck_h,planck_hbar")
    n_slots: int = _field(1_000_000, "int", 1, 10**9)
    seed: int = _field(12345, "int", 0, 2**64 - 1)
    mu_b: float | None = _field(None, "float", 0.0, 100.0)


# field -> (kind, lo, hi), in LinkConfig's declaration order
_FIELDS: dict[str, tuple[str, float | None, float | None]] = {f.name: f.metadata["spec"] for f in fields(LinkConfig)}

# the fields that may be None: one of each given-or-derived pair, theta_fov and mu_b
_OPTIONAL = {"eta_atm", "alpha_a", "wz", "w0", "theta_fov", "mu_b"}

# a field derived when unset -> its sources and evaluator (derived mu_b is not range-checked)
_DERIVED = {
    "eta_atm": (("alpha_a", "Lz"), atm_transmittance),
    "wz": (("w0", "wavelength", "Lz"), beam_radius),
    "theta_fov": (("r_f", "L_f"), fov_geometry),
}


def _resolved(cfg: LinkConfig, name: str) -> float:
    """``cfg``'s value of a ``_DERIVED`` field, else the value derived from its sources."""
    sources, derive = _DERIVED[name]
    return derive(*(getattr(cfg, s) for s in sources)) if getattr(cfg, name) is None else getattr(cfg, name)


def _mu_b(cfg: LinkConfig, theta_fov, B_lambda):
    """``cfg``'s mu_b, else the mean background count at ``theta_fov`` and
    ``B_lambda`` (floats or arrays of one value per point)."""
    if cfg.mu_b is not None:
        return cfg.mu_b
    return background_mean(
        B_lambda, math.pi * cfg.ra**2, solid_angle(theta_fov), cfg.delta_lambda, cfg.T_qs, cfg.wavelength,
        cfg.energy_convention,
    )


def _check_range(key: str, value) -> None:
    kind, lo, hi = _FIELDS[key]
    if kind.startswith("enum:"):
        allowed = kind.split(":", 1)[1].split(",")
        if value not in allowed:
            raise ConfigError(f"{key}: {value!r} not one of {allowed}")
        return
    # An exact int or float settles the type test without the slower ABC
    # isinstance dispatch; every other type takes the ABC test as before.
    t = type(value)
    if kind == "int":
        if t is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{key}: {value!r} is not an integer")
    else:
        real = t is float or t is int or (not isinstance(value, bool) and isinstance(value, numbers.Real))
        if not real:
            raise ConfigError(f"{key}: {value!r} is not a finite number")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(f"{key}: value is too large to convert to a float") from None
        if not finite:
            raise ConfigError(f"{key}: {value!r} is not a finite number")
    if lo is not None and value < lo or hi is not None and value > hi:
        try:
            shown = f" {value}"
        except ValueError:  # an int past Python's digit limit for str()
            shown = ""
        raise ConfigError(f"{key}: value{shown} outside allowed range [{lo}, {hi}]")


def loads(text: str) -> LinkConfig:
    """Parse a config string; unknown keys and bad units are errors. Every
    line is parsed before ``validate`` range-checks each set field once."""
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind = _FIELDS[key][0]
        if kind == "int":
            try:
                parsed: object = int(val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key}: not an integer: {val!r}") from exc
        elif kind.startswith("enum:"):
            parsed = val
        else:
            parsed = parse_quantity(val, kind, field=f"line {lineno}: {key}")
        overrides[key] = parsed
    # A file that sets a source but not the field it derives asks for derivation.
    for source, derived in (("alpha_a", "eta_atm"), ("w0", "wz")):
        if source in overrides and derived not in overrides:
            overrides[derived] = None
    cfg = replace(LinkConfig(), **overrides)
    validate(cfg)
    return cfg


def load_config(path: str) -> LinkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def validate(cfg: LinkConfig) -> None:
    """Range-check every set field, the cross-field constraints and each derived field of ``_DERIVED``."""
    for name in _FIELDS:
        value = getattr(cfg, name)
        if value is None:
            if name in _OPTIONAL:
                continue
            raise ConfigError(f"{name} is required")
        _check_range(name, value)
    for name, (sources, _) in _DERIVED.items():  # theta_fov's first source, r_f, is never None here
        if getattr(cfg, name) is None and getattr(cfg, sources[0]) is None:
            raise ConfigError(f"one of {name} or {sources[0]} is required")
    for name, (sources, _) in _DERIVED.items():
        _, lo, hi = _FIELDS[name]
        if getattr(cfg, name) is None and not lo <= (value := _resolved(cfg, name)) <= hi:
            raise ConfigError(f"{name} derived from {', '.join(sources)}: {value} outside allowed range [{lo}, {hi}]")


# kind -> the first unit of power 0 in _UNITS, which dumps writes
_CANONICAL_UNIT = {kind: next(u for u, p in table.items() if p == 0) for kind, table in _UNITS.items()}


def dumps(cfg: LinkConfig) -> str:
    """Serialize in canonical SI units; load(dumps(cfg)) round-trips exactly.

    Numbers are written as Python ``int``/``float`` literals, so numpy
    scalars in the config dump as plain numbers too.
    """
    lines = []
    for name in _FIELDS:
        value = getattr(cfg, name)
        if value is None:
            continue
        kind = _FIELDS[name][0]
        if kind == "int":
            lines.append(f"{name} = {int(value)}")
        elif kind.startswith("enum:"):
            lines.append(f"{name} = {value}")
        elif kind in _CANONICAL_UNIT:
            lines.append(f"{name} = {float(value)!r} {_CANONICAL_UNIT[kind]}")
        else:
            lines.append(f"{name} = {float(value)!r}")
    return "\n".join(lines) + "\n"


def build_context(cfg: LinkConfig) -> AnalyticContext:
    """Validate ``cfg``, derive every dependent quantity and assemble the
    analytic context.

    Rebuild order: beam geometry -> capture grid -> FoV -> mu_b -> context
    (which owns c_pt), so a context never holds a value derived from
    another config.
    """
    validate(cfg)
    return _derive(cfg)


def _derive(cfg: LinkConfig, points: dict[str, np.ndarray] | None = None) -> AnalyticContext:
    """The derivation chain of ``build_context`` on a validated ``cfg``.

    ``points`` maps sweepable field names (wz, sigma_theta_e, sigma_aoa,
    theta_fov, B_lambda) to float arrays of one range-checked value per
    point, all of one length P; they replace the config's values and the
    context holds P points. Each point's quantities are derived from its
    own values by the same numpy arithmetic as for a single config: a grid
    row per wz, a background mean per (theta_fov, B_lambda). An unswept
    field stays one value, which the context broadcasts to every point.
    """
    points = points or {}
    if "wz" in points:
        grid = CaptureGrid(cfg.ra, points["wz"], cfg.Ng)
    else:
        grid = build_grid(cfg.ra, _resolved(cfg, "wz"), cfg.Ng)
    theta_fov = points.get("theta_fov", _resolved(cfg, "theta_fov"))
    mu_b = _mu_b(cfg, theta_fov, points.get("B_lambda", cfg.B_lambda))
    return AnalyticContext(
        mu_t=cfg.mu_t,
        eta_atm=_resolved(cfg, "eta_atm"),
        mu_d=cfg.mu_d,
        T_qs=cfg.T_qs,
        grid=grid,
        sigma_rd=points.get("sigma_theta_e", cfg.sigma_theta_e) * cfg.Lz,
        theta_fov=theta_fov,
        sigma_aoa=points.get("sigma_aoa", cfg.sigma_aoa),
        mu_b=mu_b,
        alpha=cfg.alpha,
        beta=cfg.beta,
    )
