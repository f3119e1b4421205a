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

``capture_grid`` sums the segments by blocks whose size the grid sets: one
segment each or, on a grid much finer than the beam, about wz / (36 dx)
segments (at least 32), each summed by one exp and 16 Taylor moments in
place of one exp a segment, to the same accuracy (see ``capture_grid``);
away from the aperture edge a block's moments come from 20 samples of the
chord weight, not from one erf a segment (see ``_block_moments``).
At N_g = 100,000, ra = 0.906 m and wz = 0.64 m, 104 blocks take the place
of 100,000 segments.

By rotational symmetry the displacement enters only through its norm, so
all capture functions take rd >= 0, a norm, or an array of norms, and give
a value of the shape of ``rd`` (a float for a float); collapse a vector
displacement to its norm before calling.
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
    "capture_classical",
    "build_grid",
    "capture_grid",
]


def beam_radius(w0: float, wavelength: float, Lz: float) -> float:
    """1/e^2 beam radius after propagating a distance Lz.

    wz = w0 * sqrt(1 + (lambda Lz / (pi w0^2))^2); always >= w0.
    """
    if not (w0 > 0 and wavelength > 0 and Lz >= 0):
        raise ValueError("beam_radius requires w0 > 0, wavelength > 0, Lz >= 0")
    t = wavelength * Lz / (math.pi * w0 * w0)
    return w0 * math.sqrt(1.0 + t * t)


def _check_capture_args(rd_ok: bool, wz: float, ra: float) -> None:
    if not wz > 0 or not ra > 0:
        raise ValueError("capture probability requires wz > 0 and ra > 0")
    if not rd_ok:
        raise ValueError("rd is a displacement norm and must be >= 0")


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
    ``np.array([rd])`` at about a fifth of its cost.

    Against a 30-60 digit Rician integral, over wz in [5 mm, 10 m], ra in
    [1.5 cm, 1.5 m] and rd in [0, ra + 10 wz]: the absolute error grows
    with b = 2 ra / wz, to 1.2e-15 at b = 30, 1.1e-14 at b = 100 and
    3.5e-14 at b = 600 (wz = 5 mm, ra = 1.5 m, rd just inside ra). Past the
    aperture edge the relative error is <= 4e-11 down to values of ~1e-45
    and ~3e-7 (1e-4 at b = 3) below ~1e-65; at small b, values below
    ~1e-89 come back as exactly 0.
    """
    scalar = isinstance(rd, float) or np.ndim(rd) == 0  # isinstance first: np.ndim of a float takes ~3 us
    rd = float(rd) if scalar else np.asarray(rd, dtype=float)
    _check_capture_args(rd >= 0 if scalar else np.all(rd >= 0), wz, ra)
    t = 2.0 * rd / wz
    nc = t * t  # not ** 2: on a float that is C pow, an ulp off t * t at times
    # chndtr is up to 1e-3 off for a subnormal noncentrality, where mu_p is
    # that of a centred beam to double precision
    if scalar:
        return float(special.chndtr((2.0 * ra / wz) ** 2, 2.0, 0.0 if nc < _TINY else nc))
    return special.chndtr((2.0 * ra / wz) ** 2, 2.0, np.where(nc < _TINY, 0.0, nc))


# The former fixed-node evaluator's name, still called by ``bench/``.
capture_exact_many = capture_exact


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
    _check_capture_args(np.all(rd_arr >= 0), wz, ra)
    value = (2.0 * ra * ra / (wz * wz)) * np.exp(-2.0 * rd_arr * rd_arr / (wz * wz))
    return ClassicalCapture(value=value if value.ndim else float(value), valid=wz >= 4.0 * ra)


@dataclass(frozen=True, eq=False)
class CaptureGrid:
    """Segment centers x_i and weights c_i of the grid model.

    dx = 2 ra / Ng, x_i are segment midpoints of [-ra, ra], and
    c_i = (2 dx / (sqrt(2 pi) wz)) erf(sqrt(2 / wz^2) sqrt(ra^2 - x_i^2)).
    ``centers`` and ``weights`` are read-only float arrays, so the grid is
    immutable and safe to share between threads. ``weights`` are computed
    on first access and kept: a grid of wider blocks sums without them (see
    ``_block_moments``), so it pays for its N_g erfs only if the linearized
    engine reads them. The arrays make field-wise equality and hashing
    meaningless, so grids compare by identity (``build_grid`` caches one
    per (ra, wz, Ng)).
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

    A context of P points that differ in wz holds one grid of P rows
    (``_grid_rows``):
    ``wz``, ``mu_p0`` and ``peak`` of shape (P,), ``weights`` of shape (P, N_g),
    ``ra``, ``ng``, ``dx`` and ``centers`` shared. ``capture_grid`` takes a
    grid of one point. The package reads row weights through
    ``_weights_of``, at most max(1, _CHUNK // N_g) rows at a time, so it
    never builds the P x N_g ``weights``.
    """

    ra: float
    wz: float
    ng: int
    dx: float
    centers: np.ndarray
    mu_p0: float = field(init=False)
    peak: float = field(init=False)

    def __post_init__(self):
        """``mu_p0`` and ``peak`` of each row: ``_grid_sum`` at rd = 0 and its
        largest value at the probe (rd = 0 and, where 2 dx > wz, every
        positive segment centre). Where the 9 wz window covers every
        segment, 2 dx <= wz and the blocks are single segments, that is the
        same dense arithmetic for all such rows, one dot product per row, so
        a row does not depend on the others, in chunks of at most
        max(1, _CHUNK // N_g) rows. Only those rows pay for it: every other
        row is summed by ``_grid_sum`` alone."""
        one = np.ndim(self.wz) == 0
        x, dx, ng = self.centers, self.dx, self.ng
        wz = np.atleast_1d(self.wz)
        # windowed, probed or maybe of wider blocks (_half_block)
        summed = (np.ceil(18.0 * wz / dx) + 2 < ng) | (2.0 * dx > wz) | (wz / (73.0 * dx) >= _TERMS)
        mu_p0, peak = np.empty(wz.size), np.empty(wz.size)
        dense = np.flatnonzero(~summed)
        step = max(1, _CHUNK // ng)
        for i in range(0, dense.size, step):
            # the sum of one-segment blocks at rd = 0 is this dot product, bit for bit:
            # float_power squares by C pow, as _grid_sum's float wz**2 does (numpy's
            # col**2 is col*col, an ulp off on ~0.1% of radii)
            rows = dense[i : i + step]
            d = x * x * -2.0 / np.float_power(wz[rows, None], 2)
            np.exp(d, out=d)
            weights = np.atleast_2d(self._weights_of(wz[rows, None]))[:, :, None]
            mu_p0[rows] = peak[rows] = np.matmul(d[:, None, :], weights)[:, 0, 0]
        for i in np.flatnonzero(summed):
            w = float(wz[i])
            probe = np.concatenate(([0.0], x[x > 0.0])) if 2.0 * dx > w else np.zeros(1)
            vals = _grid_sum(*(self._blocks if one else _block_moments(self, w)), w, probe)
            mu_p0[i], peak[i] = vals[0], vals.max()
        object.__setattr__(self, "mu_p0", float(mu_p0[0]) if one else mu_p0)
        object.__setattr__(self, "peak", float(peak[0]) if one else peak)

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
        """``_block_moments`` of this one-point grid, built on first use and
        kept."""
        return _block_moments(self, self.wz)


@functools.lru_cache(maxsize=256)
def build_grid(ra: float, wz: float, ng: int) -> CaptureGrid:
    """Build (and cache) the capture grid for an (ra, wz, Ng) triple.

    Sweeps evaluate the same grid at thousands of displacements, hence the
    cache keyed by the three defining values.
    """
    if ng < 2:
        raise ValueError("grid needs at least 2 segments")
    if not ra > 0 or not wz > 0:
        raise ValueError("build_grid requires ra > 0 and wz > 0")
    return _grid_rows(ra, wz, ng)


def _grid_rows(ra: float, wz, ng: int) -> CaptureGrid:
    """The capture grid of the beam radius ``wz`` (> 0): a grid of one point
    for a float, and for an array one grid of len(wz) rows sharing ra, N_g
    and the segment centres, whose memory is bounded at any len(wz) (see
    ``CaptureGrid``).
    """
    dx = 2.0 * ra / ng
    centers = np.arange(0.5, ng)  # i + 0.5 exactly, without np.arange(ng) + 0.5's int-to-float pass
    centers *= dx
    centers -= ra
    centers.setflags(write=False)
    return CaptureGrid(ra, wz, ng, dx, centers)


def _chord_weights(ra: float, wz, dx: float, x: np.ndarray) -> np.ndarray:
    """(2 dx / (sqrt(2 pi) wz)) erf(sqrt(2 / wz^2) sqrt(ra^2 - x^2)): the grid
    weight of a segment centred on x, 0 for |x| >= ra. ``wz`` is a float,
    or a column of P radii for P rows."""
    chord = np.sqrt(np.maximum(ra * ra - x * x, 0.0))
    return (2.0 * dx / (math.sqrt(2.0 * math.pi) * wz)) * special.erf(np.sqrt(2.0 / (wz * wz)) * chord)


def _half_block(wz: float, dx: float, ng: int) -> int:
    """Half-width h, in segments, of the 2h + 1 segment blocks of the grid
    sum, or 0 (blocks of one segment) where a block would hold fewer than
    2 _TERMS segments. A block spans at most wz / 73 either side of its
    centre, and at most the whole grid."""
    h = min(math.floor(wz / (73.0 * dx)), ng // 2)
    return h if h >= _TERMS else 0


def _block_moments(grid: CaptureGrid, wz: float):
    """Block centres X_b, Taylor moments M_bk (shape (moments, blocks)),
    block half-width s and centre spacing of the grid sum of the row of
    radius ``wz`` of ``grid``: ``_grid_sum``'s first four arguments.

    Where ``_half_block`` gives 0 each block is one segment:
    (x, c[None, :], 0.0, dx), with the row's weights. Else blocks are
    runs of 2h + 1 segments centred on their middle segment's centre X_b
    (the last run padded past the grid with segments of weight 0), and with
    tau_i = (x_i - X_b) / s, s = h dx,
    M_bk = sum_i c_i exp(-2 (x_i - X_b)^2 / wz^2) tau_i^k / k! for k < _TERMS.

    On a grid of at least 8 interior blocks, |X_b| + 5 s < ra, each takes
    its moments from the chord weight c(X_b + s tau) at _CHEB Chebyshev
    points of tau in [-1, 1]: the weight is analytic in tau beyond 5 (the
    square root's branch points are at +-ra), so the interpolant through
    those samples holds every c_i of the block to rounding (Trefethen,
    Approximation Theory and Approximation Practice, SIAM 2013), and one
    table, the same for every such block, maps the samples to the moments.
    It places the segments at their nominal offsets (j - h) dx, off the
    stored centres by about an ulp of ra. The other blocks (the edge
    blocks, the padded last block, and all blocks of a grid of fewer
    interior ones) keep one weight per segment, at the offsets from the
    stored centres.
    """
    x, dx, ra = grid.centers, grid.dx, grid.ra
    h = _half_block(wz, dx, x.size)
    if not h:
        return x, grid._weights_of(wz)[None, :], 0.0, dx
    size = 2 * h + 1
    pad = -x.size % size
    xb = np.concatenate((x, x[-1] + dx * np.arange(1.0, pad + 1.0))).reshape(-1, size)
    centre = xb[:, h].copy()
    s = h * dx
    # from the stored centres, each to half an ulp of itself (exact for most):
    # (j - h) dx would be off by an ulp of ra, 1e-11 of t at N_g = 100,000
    t = xb - centre[:, None]
    inner = np.abs(centre) + 5.0 * s < ra
    inner[-1] &= not pad
    # the table costs about the per-segment weights of 5 to 14 interior blocks
    # (break-even measured at N_g = 969 to 100,000): with fewer, every block
    # keeps one weight a segment
    inner &= np.count_nonzero(inner) >= 8
    edge = np.flatnonzero(~inner)
    c = _chord_weights(ra, wz, dx, xb[edge])  # the weights of the edge blocks alone, 0 on the padding (past ra)
    te = t[edge]
    w = te * te
    w /= -0.5 * wz**2
    np.exp(w, out=w)
    w *= c
    te /= s
    m = np.empty((_TERMS, centre.size))
    me = np.empty((_TERMS, edge.size))
    np.sum(w, axis=1, out=me[0])
    for k in range(1, _TERMS):
        w *= te
        np.sum(w, axis=1, out=me[k])
    m[:, edge] = me / _FACTORIALS[:, None]
    if edge.size < centre.size:
        tau = np.arange(-h, h + 1.0) / h
        f = _chord_weights(ra, wz, dx, centre[inner, None] + s * _CHEB_NODES)
        mi = _chebyshev_table(tau, s, wz) @ f.T
        # the stored centres sit off X_b + s tau_j by about an ulp of ra, most of
        # it X_b's own rounding, shared by its block: shift each block by its mean
        # offset d, M_k += (d / s) M_(k-1) (first order; the Gaussian factor's
        # share is 4 s^2 / wz^2 < 8e-4 of that)
        t -= s * tau
        mi[1:] += t.mean(axis=1)[inner] / s * mi[:-1]
        m[:, inner] = mi
    return centre, m, s, centre[1] - centre[0] if centre.size > 1 else math.inf


def _chebyshev_table(tau: np.ndarray, s: float, wz: float) -> np.ndarray:
    """(_TERMS, _CHEB) table T with M_bk = sum_l T_kl c(X_b + s tau_l) for a
    block of segments at the nominal offsets s tau_j, tau_j = (j - h) / h:
    the moments exp(-2 (s tau_j)^2 / wz^2) tau_j^k / k! against the
    Lagrange basis of the Chebyshev points tau_l at every tau_j, in
    barycentric form (the basis sums to 1, so a constant weight is held
    exactly)."""
    basis = tau - _CHEB_NODES[:, None]
    # no (j - h) / h is a node for h <= 50,000 (N_g <= 100,000); past that, a
    # segment on a node takes that node's basis 1 and the others 0
    basis[basis == 0.0] = 1e-300
    np.divide(_CHEB_WEIGHTS[:, None], basis, out=basis)
    basis /= basis.sum(axis=0)
    moments = np.empty((_TERMS, tau.size))
    moments[0] = np.exp(-2.0 * (s * tau) ** 2 / wz**2)
    for k in range(1, _TERMS):
        np.multiply(moments[k - 1], tau, out=moments[k])
    moments /= _FACTORIALS[:, None]
    return moments @ basis.T


def _grid_sum(centre: np.ndarray, m: np.ndarray, s: float, spacing: float, wz: float, rd: np.ndarray) -> np.ndarray:
    """sum_b exp(-2 u^2 / wz^2) sum_k M_bk z^k for a flat array ``rd``, with
    u = X_b - rd and z = -4 s u / wz^2, over the blocks ``_block_moments``
    returns: the grid model's one kernel, behind ``capture_grid``,
    ``CaptureGrid.mu_p0`` and ``CaptureGrid.peak``. With one-segment blocks
    (s = 0) it is sum_i c_i exp(-2 (x_i - rd)^2 / wz^2) itself.

    The sum runs over a window of the blocks nearest rd, wide enough to hold
    every block centre within 9 wz + s of it. Past centre[-1] + 20 wz every
    segment's term is below e^-798, under the smallest double, so rd is
    clamped there: u * u and the series stay finite for any rd, and an
    infinite rd gives 0.

    A term whose exp argument lies below ln(tiny) = -708.40 (past 18.82 wz
    from rd) would be subnormal, and exp takes ~100x longer to return one;
    it is taken as an exact 0 instead, in the chunks whose windows reach
    past 18.8 wz of their rd (a whole grid, a window clamped at a grid end,
    or a window of segments several wz wide). Other chunks make no extra
    pass. That moves only sums in the deep tail: over 800,000 sums on 2,000
    random grids (half of them of spikes) the largest that moved was
    5.6e-292 (2^-967.5), in its last bits, and a sum of such terms alone is
    0."""
    nb = centre.size
    wz2 = wz**2
    lim = 9.0 * wz + s
    k = min(nb, math.ceil(2.0 * lim / spacing) + 2)  # blocks within lim
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
    _check_capture_args(np.all(rd_arr >= 0), grid.wz, grid.ra)
    vals = _grid_sum(*grid._blocks, grid.wz, rd_arr)
    if (vals > _OVERFLOW).any():
        warnings.warn(
            f"grid capture probability exceeded 1 by {vals.max() - 1.0:.2e}", CaptureOverflowWarning, stacklevel=2
        )
    return vals.reshape(rd_in.shape) if rd_in.ndim else float(vals[0])
