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

Both models also have their mean over a Rayleigh-distributed rd (the
pointing error) in closed form, ``capture_exact_mean`` and
``capture_grid_mean``, which the linearized analytics read. The grid's
mean reuses the mu_p(0) the grid holds and adds one erf term a segment,
so ``erf`` (the chord weights and that mean) and ``chndtr`` (exact
capture) are the only special functions the package calls.

``capture_grid`` sums the segments by blocks whose size the grid sets: one
segment each or, on a grid much finer than the beam, about wz / (36 dx)
segments (at least 32), each summed by one exp and 16 Taylor moments in
place of one exp a segment, to the same accuracy (see ``capture_grid``).
Every block's moments come from one table of the segments' nominal
offsets from the block centre, applied to chord weights taken one a
segment at the aperture edge and from 20 Chebyshev samples away from it,
then shifted by the block's mean rounding (see ``_block_moments``). Such
a grid holds its block moments and no per-segment array unless the
linearized engine reads one.

By rotational symmetry the displacement enters only through its norm, so
all capture functions take rd >= 0, a norm, or an array of norms, and give
a value of the shape of ``rd`` (a float for a float); collapse a vector
displacement to its norm before calling. Each takes one beam radius wz: a
float, or an array of one element (a one-point context of shape (1,)),
which gives the values of that float bit for bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .errors import CaptureOverflowWarning

_BOOLS = (bool, np.bool_)  # not a radius, though True > 0
_CHUNK = 1 << 16  # elements per temporary in capture_grid and the turbulence average
_OVERFLOW = 1.0 + 1e-6  # a grid capture value above this is reported
_TERMS = 16  # Taylor terms per block of the blocked grid sum
_FACTORIALS = np.array([math.factorial(k) for k in range(_TERMS)], dtype=float)
_TINY = np.finfo(float).tiny
_LN_TINY = math.log(_TINY)  # -708.40: exp of a smaller argument is subnormal
_FAR = 18.8  # within _FAR wz of rd no term's exp argument is below _LN_TINY (that starts at 18.82 wz)
_CHEB = 20  # Chebyshev samples of the chord weight per interior block
_CHEB_THETA = (np.arange(_CHEB) + 0.5) * (math.pi / _CHEB)
_CHEB_NODES = np.cos(_CHEB_THETA)  # Chebyshev points of the first kind
_CHEB_WEIGHTS = np.where(np.arange(_CHEB) % 2, -1.0, 1.0) * np.sin(_CHEB_THETA)  # their barycentric weights

__all__ = [
    "CaptureGrid",
    "ClassicalCapture",
    "beam_radius",
    "capture_exact",
    "capture_exact_many",
    "capture_exact_mean",
    "capture_classical",
    "build_grid",
    "capture_grid",
    "capture_grid_mean",
]


def beam_radius(w0: float, wavelength: float, Lz: float) -> float:
    """1/e^2 beam radius after propagating a distance Lz.

    wz = w0 * sqrt(1 + (lambda Lz / (pi w0^2))^2); always >= w0.
    """
    if not (w0 > 0 and wavelength > 0 and Lz >= 0):
        raise ValueError("beam_radius requires w0 > 0, wavelength > 0, Lz >= 0")
    t = wavelength * Lz / (math.pi * w0 * w0)
    return w0 * math.sqrt(1.0 + t * t)


def _checked_wz(rd_ok: bool, wz, ra: float) -> float:
    """The one beam radius of a capture call, checked with ``ra`` and ``rd``:
    ``wz`` itself, or the float an array of one element holds. A bool is
    not a radius: a bool or numpy bool ``wz`` or ``ra``, or an array of
    bools, is rejected like a radius <= 0."""
    if isinstance(wz, np.ndarray) and wz.size != 1:
        raise ValueError("capture probability takes one beam radius wz: a grid or context of one point")
    wz = wz.item() if isinstance(wz, np.ndarray) else wz  # a bool array gives a bool
    if not wz > 0 or not ra > 0 or isinstance(wz, _BOOLS) or isinstance(ra, _BOOLS):
        raise ValueError("capture probability requires wz > 0 and ra > 0")
    if not rd_ok:
        raise ValueError("rd is a displacement norm and must be >= 0")
    return wz


def capture_exact(rd, wz: float, ra: float):
    """Exact capture probability mu_p = 1 - Q1(2 rd / wz, 2 ra / wz).

    The squared distance of the photon from the aperture centre, scaled
    by 4 / wz^2, is noncentral chi-square with 2 degrees of freedom and
    noncentrality (2 rd / wz)^2, so mu_p is its CDF at (2 ra / wz)^2
    (Farid & Hranilovic, J. Lightwave Technol. 25(7), 2007). Scalar ``rd``
    gives a float, array ``rd`` an array.

    A scalar ``rd`` (a float, int, numpy scalar or 0-d array) is taken as a
    float: the same checks and arithmetic as an array, then one ``chndtr``
    call on floats, equal bit for bit to the array path on
    ``np.array([rd])``.

    Against a 30-60 digit Rician integral, over wz in [5 mm, 10 m], ra in
    [1.5 cm, 1.5 m] and rd in [0, ra + 10 wz]: the absolute error grows
    with b = 2 ra / wz, to 1.2e-15 at b = 30, 1.1e-14 at b = 100 and
    3.5e-14 at b = 600 (wz = 5 mm, ra = 1.5 m, rd just inside ra). Past the
    aperture edge the relative error is <= 4e-11 down to values of ~1e-45
    and ~3e-7 (1e-4 at b = 3) below ~1e-65; at small b, values below
    ~1e-89 come back as exactly 0.
    """
    scalar = isinstance(rd, float) or np.ndim(rd) == 0  # isinstance first: np.ndim of a float is slow
    rd = float(rd) if scalar else np.asarray(rd, dtype=float)
    wz = _checked_wz(rd >= 0 if scalar else np.all(rd >= 0), wz, ra)
    t = 2.0 * rd / wz
    nc = t * t  # not ** 2: on a float that is C pow, an ulp off t * t at times
    # chndtr is up to 1e-3 off for a subnormal noncentrality, where mu_p is
    # that of a centred beam to double precision
    if scalar:
        return float(special.chndtr((2.0 * ra / wz) ** 2, 2.0, 0.0 if nc < _TINY else nc))
    return special.chndtr((2.0 * ra / wz) ** 2, 2.0, np.where(nc < _TINY, 0.0, nc))


# The former fixed-node evaluator's name, still called by ``bench/``.
capture_exact_many = capture_exact


def capture_exact_mean(sigma, wz, ra: float):
    """E[capture_exact(rd, wz, ra)] over rd ~ Rayleigh(sigma), elementwise.

    The photon lands on the beam's Gaussian about a centre that is itself
    Gaussian of variance sigma^2 per axis, so it lands on a centred Gaussian
    of variance (wz^2 + 4 sigma^2) / 4 per axis and the mean is
    1 - exp(-2 ra^2 / (wz^2 + 4 sigma^2)). At sigma = 0 it is mu_p(0).

    It takes the checked columns of a context (a ``sigma`` >= 0 per point,
    and the radii of a grid its constructor checked) and checks nothing
    itself: a NaN argument gives a NaN, and a negative one the value of its
    magnitude, not an error.
    """
    return -np.expm1(-2.0 * ra**2 / (wz**2 + 4.0 * sigma**2))


@dataclass(frozen=True)
class ClassicalCapture:
    """Wide-beam approximation result: ``value`` of the shape of ``rd``, and
    one ``valid`` (it depends on wz and ra alone), False when wz < 4 ra,
    where the approximation can exceed 1 and is nonphysical."""

    value: float | np.ndarray
    valid: bool


def capture_classical(rd, wz: float, ra: float) -> ClassicalCapture:
    """Classical FSO wide-beam capture approximation.

    Returns (2 ra^2 / wz^2) exp(-2 rd^2 / wz^2) *unclamped*: in the
    narrow-beam regime the raw value exceeds 1 and that failure is itself a
    result callers may want to display.
    """
    rd_arr = np.asarray(rd, dtype=float)
    wz = _checked_wz(np.all(rd_arr >= 0), wz, ra)
    value = (2.0 * ra * ra / (wz * wz)) * np.exp(-2.0 * rd_arr * rd_arr / (wz * wz))
    return ClassicalCapture(value=value if value.ndim else float(value), valid=wz >= 4.0 * ra)


@dataclass(frozen=True, eq=False)
class CaptureGrid:
    """The grid model of an (ra, wz, N_g) triple: N_g segments of width
    dx = 2 ra / N_g, centred on x_i = (i + 0.5) dx - ra, of weights
    c_i = (2 dx / (sqrt(2 pi) wz)) erf(sqrt(2 / wz^2) sqrt(ra^2 - x_i^2)).

    The model is defined for an integer N_g >= 2 (an int or numpy integer,
    not a bool) and a finite ra > 0 and wz > 0, wz a float or a 1-D array
    of such radii (a bool, numpy bool or array of bools is no radius). The
    constructor checks that rule before it derives anything and raises
    ValueError otherwise, so every grid is checked once, however it is
    built: by ``build_grid``, as the P rows of a sweep, or directly.

    The grid holds nothing per segment until a sum reads it: ``centers``
    and ``weights`` are read-only float arrays computed on first access and
    kept, so the grid is immutable and safe to share between threads. A
    grid of one-segment blocks reads both as it derives ``mu_p0``; a grid
    of wider blocks sums without them (see ``_block_moments``), so it pays
    for its N_g centres and erfs only if the linearized engine reads them,
    and holds its moments alone, 136 bytes a block. The arrays make
    field-wise equality and hashing meaningless, so grids compare by
    identity (``build_grid`` caches one per (ra, wz, Ng)).
    ``mu_p0`` is the grid sum at rd = 0, as ``capture_grid(grid, 0.0)``
    returns it, kept with the grid for the linearization check, and
    ``peak`` the largest grid sum at rd = 0 and, where 2 dx > wz (segments
    wide enough that the sum peaks near the segment centres, not at rd = 0),
    at every positive segment centre: the value the overflow check of
    ``detect_prob`` reads. The grid derives both on construction, by the
    kernel of ``capture_grid``.

    That kernel sums the grid by blocks whose size the grid sets (one
    segment each, or on a grid much finer than the beam about
    wz / (36 dx) of them). A one-point grid builds its blocks once, as it
    derives ``mu_p0``, and keeps them in a private cached attribute.

    An array ``wz`` of P radii gives one grid of P rows (a context of P
    points that differ in wz): ``wz``, ``mu_p0`` and ``peak`` of shape (P,),
    ``weights`` of shape (P, N_g), ``ra``, ``ng``, ``dx`` and ``centers``
    shared. ``capture_grid`` takes a grid of one point. Its dense row sums
    (``_row_sums``) read row weights through ``_weights_of``, at most
    max(1, _CHUNK // N_g) rows at a time, so it never builds the P x N_g
    ``weights``.
    """

    ra: float
    wz: float
    ng: int
    dx: float = field(init=False)
    mu_p0: float = field(init=False)
    peak: float = field(init=False)

    def __post_init__(self):
        """``dx``, and ``mu_p0`` and ``peak`` of each row: ``_grid_sum`` at
        rd = 0 and its largest value at the probe (rd = 0 and, where
        2 dx > wz, every positive segment centre). Where the window covers
        every segment, 2 dx <= wz and the blocks are single segments, that is
        the dense row sum (``_row_sums``) for all such rows, equal bit
        for bit to ``_grid_sum``'s. Only those rows pay for it: every other
        row is summed by ``_grid_sum`` alone."""
        one, ng, wz = np.ndim(self.wz) == 0, self.ng, np.atleast_1d(self.wz)
        if isinstance(ng, bool) or not isinstance(ng, (int, np.integer)):
            raise ValueError(f"grid segment count must be an integer, not {ng!r}")
        if ng < 2:
            raise ValueError("grid needs at least 2 segments")
        if (not 0.0 < self.ra < math.inf or not (one or isinstance(self.wz, np.ndarray)) or wz.ndim > 1
                or isinstance(self.ra, _BOOLS) or wz.dtype == bool or not ((wz > 0.0) & (wz < math.inf)).all()):
            raise ValueError("the capture grid requires finite ra > 0 and wz > 0, wz a float or 1-D array")
        object.__setattr__(self, "dx", dx := 2.0 * self.ra / ng)
        summed = (_window(wz, 0.0, dx) < ng) | (2.0 * dx > wz) | (_half_block(wz, dx, ng) > 0)
        mu_p0, peak = np.empty(wz.size), np.empty(wz.size)
        # float_power squares by C pow, as _grid_sum's float wz**2 does (numpy's
        # col**2 is col*col, which can differ in the last bit); the centres are
        # read in the call, so a grid without dense rows builds none
        dense = wz[~summed]
        mu_p0[~summed] = peak[~summed] = _row_sums(
            self, dense, lambda rows: np.exp(self.centers * self.centers * -2.0 / np.float_power(dense[rows, None], 2)))
        for i in np.flatnonzero(summed):
            w = float(wz[i])
            probe = np.concatenate(([0.0], self.centers[self.centers > 0.0])) if 2.0 * dx > w else np.zeros(1)
            vals = _grid_sum(*(self._blocks if one else _block_moments(self, w)), w, probe)
            mu_p0[i], peak[i] = vals[0], vals.max()
        object.__setattr__(self, "mu_p0", float(mu_p0[0]) if one else mu_p0)
        object.__setattr__(self, "peak", float(peak[0]) if one else peak)

    @functools.cached_property
    def centers(self) -> np.ndarray:
        """x_i of every segment, (N_g,), computed on first use and kept."""
        x = np.arange(0.5, self.ng) * self.dx - self.ra  # i + 0.5 exactly, without np.arange(ng) + 0.5's int-to-float pass
        x.setflags(write=False)
        return x

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """c_i of every segment, (N_g,) or (P, N_g), computed on first use and kept."""
        wz = self.wz if np.ndim(self.wz) == 0 else self.wz[:, None]
        c = _chord_weights(self.ra, wz, self.dx, self.centers)
        c.setflags(write=False)
        return c

    def _weights_of(self, wz) -> np.ndarray:
        """c_i of the rows of radius ``wz`` (a float, or a column of radii):
        the cached ``weights`` of a one-point grid, else ``_chord_weights``
        of those radii, equal bit for bit to those rows of ``weights``."""
        return self.weights if np.ndim(self.wz) == 0 else _chord_weights(self.ra, wz, self.dx, self.centers)

    @functools.cached_property
    def _blocks(self):
        """``_block_moments`` of this one-point grid (of a float ``wz``, or
        an array of one radius), built on first use and kept."""
        return _block_moments(self, self.wz if np.ndim(self.wz) == 0 else self.wz.item())


@functools.lru_cache(maxsize=256, typed=True)
def build_grid(ra: float, wz: float, ng: int) -> CaptureGrid:
    """The cached ``CaptureGrid(ra, wz, ng)``.

    Sweeps evaluate the same grid at thousands of displacements, hence the
    cache keyed by the three defining values and their types, so a float
    ``ng`` is never served the grid of an equal int. The cache checks
    nothing: the constructor does (see ``CaptureGrid``), and as a failed
    call is not cached, a bad triple raises on every call.
    """
    return CaptureGrid(ra, wz, ng)


def _chord_weights(ra: float, wz, dx: float, x: np.ndarray) -> np.ndarray:
    """(2 dx / (sqrt(2 pi) wz)) erf(sqrt(2 / wz^2) sqrt(ra^2 - x^2)): the grid
    weight of a segment centred on x, 0 for |x| >= ra. ``wz`` is a float,
    or a column of P radii for P rows."""
    chord = np.sqrt(np.maximum(ra * ra - x * x, 0.0))
    return (2.0 * dx / (math.sqrt(2.0 * math.pi) * wz)) * special.erf(np.sqrt(2.0 / (wz * wz)) * chord)


def _row_sums(grid: CaptureGrid, wz: np.ndarray, terms) -> np.ndarray:
    """sum_i c_i f_i of each row of ``grid``, for rows of radii ``wz``, where
    ``terms(rows)`` gives the f_i of a slice of the rows, (rows, N_g): the
    grid's one dense row sum.

    Rows are taken in slices of at most max(1, _CHUNK // N_g), with the
    weights of those rows alone (``_weights_of``), and each row's sum is its
    own product in a stack of 1 x N_g by N_g x 1 products, so a value does
    not depend on the other rows or on its chunk.
    """
    out = np.empty(wz.size)
    step = max(1, _CHUNK // grid.ng)
    for i in range(0, wz.size, step):
        rows = slice(i, i + step)
        out[rows] = np.matmul(terms(rows)[:, None, :], grid._weights_of(wz[rows, None])[..., None])[:, 0, 0]
    return out


def _half_block(wz, dx: float, ng: int):
    """Half-width h, in segments, of the 2h + 1 segment blocks of the grid
    sum, or 0 (blocks of one segment) where a block would hold fewer than
    2 _TERMS segments. A block spans at most wz / 73 either side of its
    centre, and at most the whole grid. An array ``wz`` gives one h a row."""
    h = np.minimum(np.floor(wz / (73.0 * dx)), ng // 2).astype(int)
    return h * (h >= _TERMS)


def _window(wz, s: float, spacing: float):
    """The number of blocks, centres ``spacing`` apart, that ``_grid_sum``
    sums for one rd: enough to hold every block centre within 9 wz + s of
    it (before the cap at the grid's own block count)."""
    return np.ceil(2.0 * (9.0 * wz + s) / spacing) + 2


def _block_offsets(middle: np.ndarray, h: int, dx: float, ra: float):
    """Centres X_b = (i_b + 0.5) dx - ra of the blocks of 2h + 1 segments
    whose middle segments sit at ``middle`` (i_b + 0.5), in the operations
    of ``CaptureGrid.centers``, and each block's mean offset d_b of its
    segments' centres, as ``centers`` holds them, from their nominal places
    X_b + s tau_j (s = h dx, tau_j = (j - h) / h). d_b is X_b's own
    rounding plus the mean of its segments' roundings, which run together
    over neighbouring segments, so that X_b's rounding alone would not keep
    the sums within the oracle bound of ``capture_grid``. It takes a pass
    over the segments, in column chunks of at most _CHUNK / 2 elements,
    never an N_g-long array."""
    centre = middle * dx - ra
    d = np.zeros(centre.size)
    step = max(1, _CHUNK // 2 // centre.size)
    for j in range(-h, h + 1, step):
        offset = np.arange(j, min(j + step, h + 1), dtype=float)
        x = (middle[:, None] + offset) * dx - ra  # the segments' centres, as ``centers`` holds them
        x -= centre[:, None]
        d += (x - h * dx * (offset / h)).sum(axis=1)
    return centre, d / (2 * h + 1)


def _block_moments(grid: CaptureGrid, wz: float):
    """Block centres X_b, Taylor moments M_bk (shape (moments, blocks)),
    block half-width s and centre spacing of the grid sum of the row of
    radius ``wz`` of ``grid``: ``_grid_sum``'s first four arguments.

    Where ``_half_block`` gives 0 each block is one segment:
    (x, c[None, :], 0.0, dx), with the row's weights. Else blocks are
    runs of 2h + 1 segments centred on their middle segment's centre X_b
    (the last run padded past the grid with segments of weight 0). With the
    nominal offsets s tau_j, tau_j = (j - h) / h, s = h dx, of the segments
    from X_b, every block's moments come from one table,
    M_bk = sum_j c_bj exp(-2 (s tau_j)^2 / wz^2) tau_j^k / k! for k < _TERMS,
    applied to its chord weights c_bj in column chunks of at most
    _CHUNK // _CHEB segments, so no temporary holds more than _CHUNK
    elements and the grid never builds an N_g-long array.

    On a grid of at least 8 interior blocks, |X_b| + 5 s < ra, each takes
    its c_bj from the chord weight c(X_b + s tau) at _CHEB Chebyshev
    points of tau in [-1, 1]: the weight is analytic in tau beyond 5 (the
    square root's branch points are at +-ra), so the interpolant through
    those samples holds every c_bj of the block to rounding (Trefethen,
    Approximation Theory and Approximation Practice, SIAM 2013), and the
    table times the interpolation basis, the same for every such block,
    maps the samples to the moments. The other blocks (the edge blocks, the
    padded last block, and all blocks of a grid of fewer interior ones)
    take one weight per segment, at the segment's centre.

    A block's segments sit at X_b + s tau_j + d_b on average
    (``_block_offsets``), up to 2 ulps of ra off their nominal places, so
    every block gets one first-order shift, M_k += (d_b / s) M_(k-1) (the
    Gaussian factor's share is 4 s^2 / wz^2 < 8e-4 of that).
    """
    ra, dx, ng = grid.ra, grid.dx, grid.ng
    h = _half_block(wz, dx, ng)
    if not h:
        return grid.centers, grid._weights_of(wz)[None, :], 0.0, dx
    size = 2 * h + 1
    middle = np.arange(h, ng + h, size) + 0.5  # i_b + 0.5 of each block's middle segment
    centre, d = _block_offsets(middle, h, dx, ra)
    s = h * dx
    inner = np.abs(centre) + 5.0 * s < ra
    inner[-1] &= ng % size == 0  # the padded last block
    # the Chebyshev table costs about the per-segment weights of a few
    # interior blocks: with fewer than 8, every block keeps one weight a segment
    inner &= np.count_nonzero(inner) >= 8
    edge = np.flatnonzero(~inner)
    m, cheb = np.zeros((_TERMS, centre.size)), np.zeros((_TERMS, _CHEB))
    step = _CHUNK // max(_CHEB, edge.size)
    for j in range(-h, h + 1, step):
        offset = np.arange(j, min(j + step, h + 1), dtype=float)
        tau = offset / h
        # the moment table, k! M_k of a segment of weight 1 at each offset
        table = np.empty((_TERMS, tau.size))
        table[0] = np.exp(-2.0 * (s * tau) ** 2 / wz**2)
        for k in range(1, _TERMS):
            np.multiply(table[k - 1], tau, out=table[k])
        # the edge blocks' segment centres, past ra (weight 0) on the padding
        m[:, edge] += table @ _chord_weights(ra, wz, dx, (middle[edge, None] + offset) * dx - ra).T
        if edge.size < centre.size:
            cheb += _chebyshev_table(table, tau)
    if edge.size < centre.size:
        m[:, inner] = cheb @ _chord_weights(ra, wz, dx, centre[inner, None] + s * _CHEB_NODES).T
    m /= _FACTORIALS[:, None]
    m[1:] += d / s * m[:-1]
    return centre, m, s, centre[1] - centre[0] if centre.size > 1 else math.inf


def _chebyshev_table(table: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """(_TERMS, _CHEB) table T with k! M_bk = sum_l T_kl c(X_b + s tau_l),
    the share of the segments at the offsets ``tau``: their moment table
    exp(-2 (s tau_j)^2 / wz^2) tau_j^k (``table``) against the Lagrange
    basis of the Chebyshev points tau_l at every tau_j, in barycentric form
    (the basis sums to 1, so a constant weight is held exactly)."""
    basis = tau - _CHEB_NODES[:, None]
    # no (j - h) / h is a node for h <= 50,000 (N_g <= 100,000); past that, a
    # segment on a node takes that node's basis 1 and the others 0
    basis[basis == 0.0] = 1e-300
    np.divide(_CHEB_WEIGHTS[:, None], basis, out=basis)
    basis /= basis.sum(axis=0)
    return table @ basis.T


def _grid_sum(centre: np.ndarray, m: np.ndarray, s: float, spacing: float, wz: float, rd: np.ndarray) -> np.ndarray:
    """sum_b exp(-2 u^2 / wz^2) sum_k M_bk z^k for a flat array ``rd``, with
    u = X_b - rd and z = -4 s u / wz^2, over the blocks ``_block_moments``
    returns: the grid model's one kernel, behind ``capture_grid``,
    ``CaptureGrid.mu_p0`` and ``CaptureGrid.peak``. With one-segment blocks
    (s = 0) it is sum_i c_i exp(-2 (x_i - rd)^2 / wz^2) itself.

    The sum runs over a window of the blocks nearest rd, wide enough to hold
    every block centre within 9 wz + s of it. Where no block centre lies
    within 9 wz + s to the left of rd (a gap between blocks of more than
    that), the window starts one block earlier, at rd's left neighbour, so
    the two blocks either side of rd are both summed and a value in the
    deep tail keeps its largest terms. Past centre[-1] + 20 wz every
    segment's term is below e^-798, under the smallest double, so rd is
    clamped there: u * u and the series stay finite for any rd, and an
    infinite rd gives 0.

    A term whose exp argument lies below ln(tiny) = -708.40 (past 18.82 wz
    from rd) would be subnormal, and exp is far slower to return one; it
    is taken as an exact 0 instead, in the chunks whose windows reach past
    18.8 wz of their rd (a whole grid, a window clamped at a grid end, or a
    window of segments several wz wide). Other chunks make no extra pass.
    That moves only sums in the deep tail, in their last bits, and a sum of
    such terms alone is 0."""
    nb, wz2 = centre.size, wz**2
    lim = 9.0 * wz + s
    k = min(nb, int(_window(wz, s, spacing)))  # blocks within lim
    step = max(1, _CHUNK // k)
    rd = np.minimum(rd, centre[-1] + 20.0 * wz)
    vals = np.empty(rd.size)
    if k < nb:  # centre_w[j] and each m[t][j]: the window of the k blocks from block j on
        centre_w, m = sliding_window_view(centre, k), sliding_window_view(m, k, axis=1)
    for i in range(0, rd.size, step):
        r = rd[i : i + step, None]
        if k == nb:
            lo = slice(None)
            u = centre - r
        else:
            lo = np.minimum(np.searchsorted(centre, r[:, 0] - lim), nb - k)
            # in a gap wider than lim the window would start right of rd and
            # leave out its left neighbour, which may be the largest term
            lo -= (centre[lo] > r[:, 0]) & (lo > 0)
            u = centre_w[lo]
            u -= r
        if len(m) == 1:
            acc = m[0][lo]
        else:
            # each moment row is gathered where Horner adds it: all 16 at once
            # would hold 16 windows of every chunk
            z = u * (-4.0 * s / wz2)
            acc = np.zeros(u.shape)
            for row in m[::-1]:
                acc *= z
                acc += row[lo]
        # the windows are sorted, so their ends are their farthest blocks
        far = u[:, 0].min() < -_FAR * wz or u[:, -1].max() > _FAR * wz
        u *= u
        u /= -0.5 * wz2  # one rounding, as -2 u^2 / wz^2: -0.5 wz^2 and -2 u^2 are exact
        if far:
            u[u < _LN_TINY] = -np.inf
        np.exp(u, out=u)
        # each row is its own sum, so a value does not depend on its row's
        # place in the batch as it does with one gemv: a stack of 1 x N_g by
        # N_g x 1 products over a whole grid of segments, else pairwise
        if k == nb and len(m) == 1:
            vals[i : i + step] = np.matmul(u[:, None, :], acc[:, None])[:, 0, 0]
        else:
            u *= acc
            vals[i : i + step] = np.sum(u, axis=1)
    return vals


def capture_grid(grid: CaptureGrid, rd):
    """Grid-based capture probability sum_i c_i exp(-2 (x_i - rd)^2 / wz^2).

    Scalar or array ``rd``. Emits CaptureOverflowWarning if the sum
    exceeds 1 + 1e-6.

    Memory is bounded whatever the size of ``rd`` and N_g: displacements
    are summed in row chunks of about _CHUNK terms, and when fewer than
    N_g segments lie within 9 wz of a displacement only that window is
    summed (each segment left out adds less than c_i e^-162). Each value
    depends on its own rd alone, not on the other displacements of the call.

    One kernel sums the grid by blocks, and the grid alone (wz, dx and N_g,
    never rd) sets their size: runs of 2h + 1 segments, h = floor(wz / (73 dx))
    (about wz / (36 dx) segments, at most the whole grid), where those hold
    at least 2 x 16 (wz >= 1,168 dx and N_g >= 32), else one segment each,
    which is one exp per segment. Grids of N_g <= 100 with wz / dx <= 1,000
    (the CLI default, design sweeps) have one-segment blocks. With the
    block centre X_b, u = X_b - rd and t = x_i - X_b,
    exp(-2 (t + u)^2 / wz^2) = exp(-2 u^2 / wz^2) exp(-2 t^2 / wz^2) exp(-4 t u / wz^2),
    and the last factor is cut to 16 Taylor terms in t (a single term where
    t = 0). Each block keeps its moments, built once per grid, so a
    displacement costs one exp and 16 multiply-adds per block in a window
    holding every block centre within 9 wz + h dx (a fast Gauss transform;
    Greengard & Strain, SIAM J. Sci. Stat. Comput. 12(1), 1991). Inside
    that window |4 t u / wz^2| <= 0.494, so the cut leaves under 1e-18 of
    each term. Past the last block centre by 20 wz every term lies below
    the smallest double, so the sum is exactly 0 there and an infinite rd
    gives 0.

    Either block size is within 8 eps (1 + |ln v|) relative of the sum over
    every segment in long double, eps being the double epsilon and v the
    value: the conditioning of exp. With rd up to ra + 12 wz the worst was
    2.2 of those units over 300 random grids of wider blocks, and 1.7 over
    25 of one-segment blocks.
    """
    rd_in = np.asarray(rd, dtype=float)
    rd_arr = rd_in.ravel()
    wz = _checked_wz(np.all(rd_arr >= 0), grid.wz, grid.ra)
    vals = _grid_sum(*grid._blocks, wz, rd_arr)
    if (vals > _OVERFLOW).any():
        warnings.warn(
            f"grid capture probability exceeded 1 by {vals.max() - 1.0:.2e}", CaptureOverflowWarning, stacklevel=2
        )
    return vals.reshape(rd_in.shape) if rd_in.ndim else float(vals[0])


def capture_grid_mean(grid: CaptureGrid, sigma: np.ndarray) -> np.ndarray:
    """E[sum_i c_i exp(-2 (x_i - rd)^2 / wz^2)] over rd ~ Rayleigh(sigma): the
    mean of the grid model over the pointing error, per point.

    ``sigma`` is a float or holds one entry per point, and each point reads
    the radius wz and mu_p(0) of its row of ``grid`` (a one-point grid
    serves every point). The mean has one entry per distinct row: one for
    a float ``sigma`` on a one-point grid, however many points share it,
    else one per point. With s2 = wz^2 + 4 sigma^2, completing the square
    in the Rayleigh integral of each Gaussian term gives

        J(x) = e^(-2 x^2 / s2) [e^(-z^2) + sqrt(pi) z erfc(-z)] wz^2 / s2,
        z = 2 sqrt(2) sigma x / (wz sqrt(s2)).

    Since 2 / s2 + z^2 / x^2 = 2 / wz^2, the e^(-2 x^2 / s2) e^(-z^2) terms
    sum to the grid's own mu_p(0), and with erfc(-z) = 1 + erf(z) the mean is

        (wz^2 / s2) [mu_p0 + sqrt(pi) sum_i c_i z_i (1 + erf(z_i)) e^(-2 x_i^2 / s2)],

    a dense row sum (``_row_sums``) of one exp and one erf a segment, and at
    sigma = 0 it is ``mu_p0`` bit for bit (z = 0 and s2 = wz^2). The odd
    part, the 1 of 1 + erf(z), is kept: it would cancel over mirror-symmetric
    centres, but the stored ``centers`` sit up to an ulp of ra off that
    symmetry, and the sum follows them as the grid sum does (on grids of
    spikes, leaving it out misses the bound below many times over). Each
    mirror pair still sums to 2 c z erf(z) e^(-2 x^2 / s2) >= 0. Over
    the validator box at N_g <= 500 the mean is within 8 eps (1 + |ln v|)
    relative of sum_i c_i J(x_i) summed at 40 digits over the stored centres
    and weights (``tests/oracles.grid_mean``), eps being the double epsilon
    and v the value, the grid sum's own bound (see ``capture_grid``).

    Like ``capture_exact_mean`` it takes checked values of a context (its
    ``sigma_rd`` >= 0, and a grid its constructor checked) and checks
    nothing itself.
    """
    sigma, wz, mu_p0 = np.broadcast_arrays(np.atleast_1d(sigma), grid.wz, grid.mu_p0)
    x, s2 = grid.centers, wz * wz + 4.0 * sigma * sigma
    scale = 2.0 * math.sqrt(2.0) * sigma / (wz * np.sqrt(s2))

    def terms(rows):
        z = scale[rows, None] * x
        return np.exp(x * x * -2.0 / s2[rows, None]) * z * (1.0 + special.erf(z))

    return (mu_p0 + math.sqrt(math.pi) * _row_sums(grid, wz, terms)) * (wz * wz / s2)
