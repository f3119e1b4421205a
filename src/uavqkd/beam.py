"""Gaussian beam geometry and photon capture probability.

The transverse position of a single photon at the receiver plane follows
the Gaussian density

    |psi(x, y)|^2 = (2 / (pi wz^2)) exp(-2 ((x - rdx)^2 + (y - rdy)^2) / wz^2),

where wz is the 1/e^2 beam radius and (rdx, rdy) the lateral displacement
of the beam center. The probability that the photon lands inside the
circular receiver aperture of radius ra (the capture probability mu_p) has
two evaluators and one approximation:

* ``capture_exact``     -- the closed form 1 - Q1(2 rd / wz, 2 ra / wz)
                           (Marcum's Q, the noncentral chi-square CDF),
* ``capture_grid``      -- a fast N_g-segment discretization of the exact
                           1D reduction, the paper's capture model,
* ``capture_classical`` -- the wide-beam FSO approximation (valid only for
                           wz >> ra, not clamped to [0, 1]).

By rotational symmetry the displacement enters only through its norm, so
all capture functions take rd >= 0, a norm (``capture_exact`` and
``capture_grid`` also take an array of norms); collapse a vector
displacement to its norm before calling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import CaptureOverflowWarning

__all__ = [
    "BeamGeometry",
    "ApertureSpec",
    "CaptureGrid",
    "ClassicalCapture",
    "beam_radius",
    "photon_density",
    "capture_exact",
    "capture_exact_many",
    "capture_classical",
    "build_grid",
    "capture_grid",
]


def beam_radius(w0: float, wavelength: float, Lz: float) -> float:
    """1/e^2 beam radius after propagating a distance Lz.

    wz = w0 * sqrt(1 + (lambda Lz / (pi w0^2))^2); always >= w0.
    """
    if w0 <= 0 or wavelength <= 0 or Lz < 0:
        raise ValueError("beam_radius requires w0 > 0, wavelength > 0, Lz >= 0")
    t = wavelength * Lz / (math.pi * w0 * w0)
    return w0 * math.sqrt(1.0 + t * t)


def photon_density(x, y, wz: float, rd: tuple[float, float] = (0.0, 0.0)):
    """Transverse photon probability density (1/m^2) at (x, y).

    Integrates to 1 over the plane; peak value 2 / (pi wz^2) at the beam
    center ``rd``.
    """
    if wz <= 0:
        raise ValueError("photon_density requires wz > 0")
    dx = np.asarray(x, dtype=float) - rd[0]
    dy = np.asarray(y, dtype=float) - rd[1]
    out = (2.0 / (math.pi * wz * wz)) * np.exp(-2.0 * (dx * dx + dy * dy) / (wz * wz))
    return out if out.ndim else float(out)


def _check_capture_args(rd, wz: float, ra: float) -> None:
    if wz <= 0 or ra <= 0:
        raise ValueError("capture probability requires wz > 0 and ra > 0")
    if np.any(np.asarray(rd) < 0):
        raise ValueError("rd is a displacement norm and must be >= 0")


def capture_exact(rd, wz: float, ra: float):
    """Exact capture probability mu_p = 1 - Q1(2 rd / wz, 2 ra / wz).

    The squared distance of the photon from the aperture centre, scaled
    by 4 / wz^2, is noncentral chi-square with 2 degrees of freedom and
    noncentrality (2 rd / wz)^2, so mu_p is its CDF at (2 ra / wz)^2
    (Farid & Hranilovic, J. Lightwave Technol. 25(7), 2007). Scalar ``rd``
    gives a float, array ``rd`` an array.

    Against a 30-60 digit Rician integral, over wz in [5 mm, 10 m], ra in
    [1.5 cm, 1.5 m] and rd in [0, ra + 10 wz]: the absolute error grows
    with b = 2 ra / wz, to 1.2e-15 at b = 30, 1.1e-14 at b = 100 and
    3.5e-14 at b = 600 (wz = 5 mm, ra = 1.5 m, rd just inside ra). Past the
    aperture edge the relative error is <= 4e-11 down to values of ~1e-45
    and ~3e-7 (1e-4 at b = 3) below ~1e-65; at small b, values below
    ~1e-89 come back as exactly 0.
    """
    rd_arr = np.asarray(rd, dtype=float)
    _check_capture_args(rd_arr, wz, ra)
    nc = (2.0 * rd_arr / wz) ** 2
    # chndtr is up to 1e-3 off for a subnormal noncentrality, where mu_p is
    # that of a centred beam to double precision
    nc = np.where(nc < np.finfo(float).tiny, 0.0, nc)
    vals = special.chndtr((2.0 * ra / wz) ** 2, 2.0, nc)
    return vals if vals.ndim else float(vals)


# The former fixed-node evaluator's name, still called by ``bench/``.
capture_exact_many = capture_exact


@dataclass(frozen=True)
class ClassicalCapture:
    """Wide-beam approximation result; ``valid`` is False when wz < 4 ra,
    where the approximation can exceed 1 and is nonphysical."""

    value: float
    valid: bool


def capture_classical(rd: float, wz: float, ra: float) -> ClassicalCapture:
    """Classical FSO wide-beam capture approximation.

    Returns (2 ra^2 / wz^2) exp(-2 rd^2 / wz^2) *unclamped*: in the
    narrow-beam regime the raw value exceeds 1 and that failure is itself a
    result callers may want to display.
    """
    _check_capture_args(rd, wz, ra)
    value = (2.0 * ra * ra / (wz * wz)) * math.exp(-2.0 * rd * rd / (wz * wz))
    return ClassicalCapture(value=value, valid=wz >= 4.0 * ra)


@dataclass(frozen=True)
class CaptureGrid:
    """Precomputed segment centers x_i and weights c_i for the grid model.

    dx = 2 ra / Ng, x_i are segment midpoints of [-ra, ra], and
    c_i = (2 dx / (sqrt(2 pi) wz)) erf(sqrt(2 / wz^2) sqrt(ra^2 - x_i^2)).
    Immutable after construction; safe to share between threads.
    """

    ra: float
    wz: float
    ng: int
    dx: float
    centers: tuple[float, ...]
    weights: tuple[float, ...]

    def centers_array(self) -> np.ndarray:
        return np.asarray(self.centers)

    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights)


@lru_cache(maxsize=256)
def build_grid(ra: float, wz: float, ng: int) -> CaptureGrid:
    """Build (and cache) the capture grid for an (ra, wz, Ng) triple.

    Sweeps evaluate the same grid at thousands of displacements, hence the
    cache keyed by the three defining values.
    """
    if ng < 2:
        raise ValueError("grid needs at least 2 segments")
    if ra <= 0 or wz <= 0:
        raise ValueError("build_grid requires ra > 0 and wz > 0")
    dx = 2.0 * ra / ng
    centers = -ra + dx * (np.arange(ng) + 0.5)
    weights = (2.0 * dx / (math.sqrt(2.0 * math.pi) * wz)) * special.erf(
        math.sqrt(2.0 / (wz * wz)) * np.sqrt(np.maximum(ra * ra - centers * centers, 0.0))
    )
    return CaptureGrid(
        ra=ra,
        wz=wz,
        ng=ng,
        dx=dx,
        centers=tuple(float(c) for c in centers),
        weights=tuple(float(w) for w in weights),
    )


def capture_grid(grid: CaptureGrid, rd, wz: float | None = None):
    """Grid-based capture probability sum_i c_i exp(-2 (x_i - rd)^2 / wz^2).

    ``wz``, if passed, must match the grid's beam radius. Scalar or array
    ``rd``. Emits CaptureOverflowWarning if the sum exceeds 1 + 1e-6.
    """
    if wz is not None and abs(wz - grid.wz) > 1e-12 * max(abs(grid.wz), 1.0):
        raise ValueError(f"wz={wz} does not match grid built for wz={grid.wz}")
    rd_arr = np.atleast_1d(np.asarray(rd, dtype=float))
    if np.any(rd_arr < 0):
        raise ValueError("rd must be >= 0")
    xi = grid.centers_array()
    ci = grid.weights_array()
    vals = np.exp(-2.0 * (xi[None, :] - rd_arr[:, None]) ** 2 / (grid.wz**2)) @ ci
    if np.any(vals > 1.0 + 1e-6):
        warnings.warn(
            f"grid capture probability exceeded 1 by {float(vals.max()) - 1.0:.2e}",
            CaptureOverflowWarning,
            stacklevel=2,
        )
    return vals if np.ndim(rd) else float(vals[0])


@dataclass(frozen=True)
class BeamGeometry:
    """Beam parameters at the receiver plane.

    ``wz`` may be given directly (it is what the sweeps vary) or derived
    from an initial waist ``w0``; when both are present they must be
    consistent with the free-space divergence formula.
    """

    wz: float
    wavelength: float
    Lz: float
    w0: float | None = None

    def __post_init__(self):
        if self.wz <= 0 or self.wavelength <= 0 or self.Lz <= 0:
            raise ValueError("BeamGeometry requires wz, wavelength, Lz > 0")
        if self.w0 is not None:
            expected = beam_radius(self.w0, self.wavelength, self.Lz)
            if abs(self.wz - expected) > 1e-12 * expected:
                raise ValueError(
                    f"wz={self.wz} inconsistent with w0-derived value {expected}"
                )

    @classmethod
    def from_waist(cls, w0: float, wavelength: float, Lz: float) -> "BeamGeometry":
        return cls(wz=beam_radius(w0, wavelength, Lz), wavelength=wavelength, Lz=Lz, w0=w0)


@dataclass(frozen=True)
class ApertureSpec:
    """Receiver aperture radius (the converging lens radius)."""

    ra: float

    def __post_init__(self):
        if self.ra <= 0:
            raise ValueError("aperture radius must be > 0")

    @property
    def area(self) -> float:
        return math.pi * self.ra * self.ra
