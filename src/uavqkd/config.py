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
from dataclasses import dataclass, fields, replace

import numpy as np

from .analytics import AnalyticContext
from .beam import _grid_rows, beam_radius, build_grid
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

# field -> (kind, lo, hi); None bounds are open. Ranges are the reference
# values with a 10x margin.
_FIELDS: dict[str, tuple[str, float | None, float | None]] = {
    "Lz": ("length", 100.0, 10_000.0),
    "ra": ("length", 0.015, 1.5),
    "mu_t": ("float", 0.05, 5.0),
    "eta_atm": ("float", 1e-3, 1.0),
    "alpha_a": ("attenuation", 0.0, 1.0),
    "mu_d": ("float", 0.06, 1.0),
    "T_qs": ("time", 1e-9, 1e-7),
    "r_f": ("length", 5e-7, 5e-5),
    "L_f": ("length", 0.015, 1.5),
    "alpha": ("float", 0.2, 25.0),
    "beta": ("float", 0.2, 25.0),
    "wavelength": ("length", 1.55e-7, 1.55e-5),
    "delta_lambda": ("bandwidth_nm", 0.1, 10.0),
    "Ng": ("int", 2, 100_000),
    "wz": ("length", 0.005, 10.0),
    "w0": ("length", 0.001, 10.0),
    "sigma_theta_e": ("angle", 5e-6, 2e-2),
    "sigma_aoa": ("angle", 5e-6, 2e-3),
    "theta_fov": ("angle", 5e-7, 2e-3),
    "B_lambda": ("radiance", 0.0, 1e-3),
    "energy_convention": ("enum:planck_h,planck_hbar", None, None),
    "n_slots": ("int", 1, 10**9),
    "seed": ("int", 0, 2**64 - 1),
    "mu_b": ("float", 0.0, 100.0),
}

_OPTIONAL = {"alpha_a", "w0", "theta_fov", "mu_b"}

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


@dataclass(frozen=True)
class LinkConfig:
    """Full link parameter set in SI units, defaulting to the reference values.

    ``theta_fov = None`` derives the field of view from (r_f, L_f);
    ``mu_b = None`` derives the mean background count from radiometry;
    ``wz`` is used directly and wins over a ``w0``-derived value.
    """

    Lz: float = 1000.0
    ra: float = 0.15
    mu_t: float = 0.5
    eta_atm: float | None = 0.4
    alpha_a: float | None = None
    mu_d: float = 0.6
    T_qs: float = 1e-8
    r_f: float = 5e-6
    L_f: float = 0.15
    alpha: float = 2.1
    beta: float = 1.8
    wavelength: float = 1.55e-6
    delta_lambda: float = 1.0  # nm
    Ng: int = 10
    wz: float | None = 0.10
    w0: float | None = None
    sigma_theta_e: float = 50e-6
    sigma_aoa: float = 50e-6
    theta_fov: float | None = None
    B_lambda: float = 1e-6
    energy_convention: str = "planck_h"
    n_slots: int = 1_000_000
    seed: int = 12345
    mu_b: float | None = None

    def resolved_wz(self) -> float:
        if self.wz is not None:
            return self.wz
        if self.w0 is not None:
            return beam_radius(self.w0, self.wavelength, self.Lz)
        raise ConfigError("one of wz or w0 is required")

    def resolved_theta_fov(self) -> float:
        if self.theta_fov is not None:
            return self.theta_fov
        return fov_geometry(self.r_f, self.L_f)[0]

    def resolved_eta_atm(self) -> float:
        # A direct transmittance wins over the attenuation coefficient.
        if self.eta_atm is not None:
            return self.eta_atm
        return atm_transmittance(self.alpha_a, self.Lz)


# LinkConfig's field names in declaration order, listed once for validate and dumps
_FIELD_NAMES = tuple(f.name for f in fields(LinkConfig))


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
    # A file that supplies alpha_a without eta_atm asks for derivation.
    if "alpha_a" in overrides and "eta_atm" not in overrides:
        overrides["eta_atm"] = None
    cfg = replace(LinkConfig(), **overrides)
    validate(cfg)
    return cfg


def load_config(path: str) -> LinkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def validate(cfg: LinkConfig) -> None:
    """Range-check every set field and the cross-field constraints."""
    for name in _FIELD_NAMES:
        value = getattr(cfg, name)
        if value is None:
            if name in _OPTIONAL or name in ("eta_atm", "wz"):
                continue
            raise ConfigError(f"{name} is required")
        _check_range(name, value)
    if cfg.eta_atm is None and cfg.alpha_a is None:
        raise ConfigError("one of eta_atm or alpha_a is required")
    cfg.resolved_wz()


# kind -> the first unit of power 0 in _UNITS, which dumps writes
_CANONICAL_UNIT = {kind: next(u for u, p in table.items() if p == 0) for kind, table in _UNITS.items()}


def dumps(cfg: LinkConfig) -> str:
    """Serialize in canonical SI units; load(dumps(cfg)) round-trips exactly.

    Numbers are written as Python ``int``/``float`` literals, so numpy
    scalars in the config dump as plain numbers too.
    """
    lines = []
    for name in _FIELD_NAMES:
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
    theta_fov, B_lambda) to arrays of one range-checked value per point,
    all of one length P; they replace the config's values and the context
    holds P points. Each point's quantities are derived from its own
    values by the same numpy arithmetic as for a single config: a grid row
    per wz, a background mean per (theta_fov, B_lambda).
    """
    points = points or {}
    n = len(next(iter(points.values()))) if points else 0

    def per_point(name: str, value):
        """``value`` for one config; for P points, the array of ``name``'s values."""
        if not points:
            return value
        return np.asarray(points[name] if name in points else np.full(n, value), dtype=float)

    if "wz" in points:
        grid = _grid_rows(cfg.ra, per_point("wz", None), cfg.Ng)
    else:
        grid = build_grid(cfg.ra, cfg.resolved_wz(), cfg.Ng)
    theta_fov = per_point("theta_fov", cfg.resolved_theta_fov())
    if cfg.mu_b is not None:
        mu_b = per_point("mu_b", cfg.mu_b)
    else:
        mu_b = background_mean(
            per_point("B_lambda", cfg.B_lambda), math.pi * cfg.ra**2, solid_angle(theta_fov),
            cfg.delta_lambda, cfg.T_qs, cfg.wavelength, cfg.energy_convention,
        )
    return AnalyticContext(
        mu_t=cfg.mu_t,
        eta_atm=cfg.resolved_eta_atm(),
        mu_d=cfg.mu_d,
        T_qs=cfg.T_qs,
        grid=grid,
        sigma_rd=per_point("sigma_theta_e", cfg.sigma_theta_e) * cfg.Lz,
        theta_fov=theta_fov,
        sigma_aoa=per_point("sigma_aoa", cfg.sigma_aoa),
        mu_b=mu_b,
        alpha=cfg.alpha,
        beta=cfg.beta,
    )
