"""UAV-to-ground free-space QKD link simulator and analyzer."""

import scipy.integrate  # noqa: F401  (unused: bench/run.py's import-time split reads its entry)

from .analytics import AnalyticContext, PerformanceReport, detect_prob, evaluate
from .beam import CaptureGrid, beam_radius, build_grid, capture_classical, capture_exact, capture_grid
from .channel import atm_transmittance, background_mean, fov_accept_prob, fov_geometry, gg_sample
from .config import LinkConfig, build_context, load_config
from .errors import CaptureOverflowWarning, ConfigError, LinearizationWarning, NumericError
from .montecarlo import McReport, run
from .sweep import OptimizeResult, SweepResult, SweepSpec, optimize

__version__ = "0.1.0"
