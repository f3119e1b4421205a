"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad unit, or out-of-range value."""


class NumericError(RuntimeError):
    """A numerical routine failed to reach its tolerance.

    No routine of the package raises it now (capture probability and both
    detection averages are closed forms or fixed-node products); it stays
    exported for callers that test for it."""


class LinearizationWarning(UserWarning):
    """The small-signal linearization behind the analytic detection
    probability is outside its comfortable regime (c_pt * mu_p(0) > 0.1)."""


class CaptureOverflowWarning(UserWarning):
    """A capture-probability approximation exceeded 1 by more than 1e-6."""
