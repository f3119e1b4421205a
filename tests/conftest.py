import math
from dataclasses import replace

import pytest
from hypothesis import strategies as st

from uavqkd.config import _FIELDS, LinkConfig, build_context


def make_config(**overrides) -> LinkConfig:
    """Reference parameter set with the FoV pinned at 100 urad."""
    return replace(LinkConfig(theta_fov=100e-6), **overrides)


def make_context(**overrides):
    return build_context(make_config(**overrides))


def log_uniform_field(name):
    """Log-uniform draws over a config field's whole validator range.

    ``10**log10(lo)`` can round to just outside [lo, hi] (0.004999999999999999
    for lo = 0.005), so each draw is clamped to the validator's own bounds.
    """
    _, lo, hi = _FIELDS[name]
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


@pytest.fixture
def baseline_cfg() -> LinkConfig:
    return make_config()


@pytest.fixture
def baseline_ctx():
    return make_context()
