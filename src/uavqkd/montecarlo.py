"""Slot-level Monte Carlo simulation of the quantum link.

Every analytic quantity has an independent estimator here. Each quantum
slot draws its own pointing displacement, turbulence fade, angle-of-arrival
acceptance, signal detection and background count, then classifies the
slot into one of the key-accounting outcomes.

Determinism: a 64-bit master seed expands into one child stream per batch
of ``BATCH_SIZE`` slots via ``numpy.random.SeedSequence.spawn``. Batches
own private streams and accumulators and the aggregation is a plain sum,
so results are bit-identical for a fixed (seed, n_slots, batch size)
regardless of how many workers process the batches.

A Poisson source thinned by a per-photon survival factor t leaves a
Poisson count, so the detected signal count is n_q ~ Poisson(mu_t t) on
FoV-accepted slots. The factor t = eta_atm mu_d mu_p eta multiplies the
unit-mean turbulence fade and can exceed 1, which binomial thinning of a
drawn source count cannot represent; the Poisson form needs no clamp, so
p_detect estimates the exact expectation E[P_fov (1 - e^(-mu_t t))].
Nothing is clamped, so ``McReport.clamp_rate`` is 0.

Each slot decides n_q >= 1 with one uniform against 1 - e^(-mu_t t). The
draw stream therefore does not depend on the values of t: numpy's
``binomial`` and ``poisson`` draw nothing for a zero parameter, so with
them a capture value underflowing to 0 instead of 1e-300 would shift
every later draw of its batch. ``_draw_slots`` is the one routine that
draws and classifies slots.

Thinning (Lewis & Shedler, Naval Res. Logist. Q. 26(3), 1979): the
detection uniform u is compared first with a dominating bound, 1 -
e^(-mu_t eta_atm mu_d cap_max eta), and a capture value is computed only
on the FoV-accepted slots with u below it. Rounded multiplication is
monotone and ``expm1`` is monotone to within an ulp, so mu_p <= cap_max
makes a slot's detection threshold at most its bound: every slot that
detects is a candidate, and no slot outside the candidates could have
detected. The detection decisions, the draw stream and so every
``McReport`` are those of the eager classifier, which computed mu_p on
every slot. The bound takes cap_max = 1 + 1e-9; the margin covers
``chndtr``'s excess over 1 (~1e-14) and any rounding in ``expm1``.
``McReport.capture_evals`` counts the slots that needed a capture value.

Per-slot values: each batch draws, in this order, 2 standard normals for
the displacement, 2 gammas for the fade, 2 standard normals for the angle
of arrival, the detection uniform, the background count and the
polarization coin, m of each. A value derived from the draws is computed
only where a decision reads it: the thinning bound on the FoV-accepted
slots, r_d = hypot(sigma_rd z0, sigma_rd z1) on the candidates, and the
coin on the slots with one background count. The outcome counts come
from the sorted index sets of the detections and of the slots with
n_b != 0; no per-slot state array is built.

Memory: the floats are drawn with the Generator's ``out=`` draws into a
workspace of five m-slot rows (``_workspace``), which each thread
allocates once a run and keeps: one worker runs the batches on the
calling thread, more run them on a pool of threads with one workspace
each. The five rows are the draw order's floor: the displacement normals,
the fade and the angle-of-arrival normals are all live when the FoV test
reads the last of them. Every later float goes into a row that is
already dead: the second Gamma, the FoV squares, the detection uniform,
the fade and uniform of the accepted slots, the thinning bound and the
coin. Besides the rows a batch holds at most one m-slot integer array at
a time, the accepted indices or the background counts (``poisson`` has
no ``out``), and arrays over the candidates.

FoV test: a slot is accepted when its angle-of-arrival normals satisfy
z0^2 + z1^2 <= (theta_fov / sigma_aoa)^2, the predicate |theta_AoA| <=
theta_fov in units of sigma_aoa (``_fov_accepted``).

Capture probability is the exact closed form (``capture_exact``), so
Monte Carlo vs analytic deviations isolate the grid and linearization
approximations of the analytics.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytics import AnalyticContext, PerformanceReport, _point
from .beam import capture_exact
from .channel import gg_sample

__all__ = ["BATCH_SIZE", "OUTCOMES", "McReport", "run"]

BATCH_SIZE = 1 << 16  # fixed so the batch partition never depends on worker count


@dataclass(frozen=True)
class McReport:
    """Aggregate Monte Carlo estimates with binomial standard errors."""

    n_slots: int
    seed: int
    batch_size: int
    estimates: PerformanceReport
    capture_evals: int  # slots that needed a capture value (the thinning candidates)
    outcomes: tuple[int, ...]  # slots per outcome, in OUTCOMES order

    @property
    def batches(self) -> int:
        """Number of seeded batches the slots were split into."""
        return -(-self.n_slots // self.batch_size)

    @property
    def clamp_rate(self) -> float:
        """Share of slots whose survival factor was clamped: 0, the draw clamps nothing."""
        return 0.0


# Slot outcomes, in the order of McReport.outcomes: no bit; State 1
# (signal only); State 2 (background only) read in the right / wrong
# basis; State 3 (signal + one background) kept by the polarization coin;
# discarded multi-count (n_b >= 2, or signal + one background lost to the
# coin).
OUTCOMES = ("none", "s1", "s2_ok", "s2_err", "s3", "multi")


def _fov_accepted(z: np.ndarray, sigma: float, theta: float) -> np.ndarray:
    """Indices of the slots with z0^2 + z1^2 <= (theta / sigma)^2, for the
    (2, m) standard normals z of the angle of arrival. The squares are
    formed in place: z is left holding them, its first row their sum."""
    q = np.multiply(z[0], z[0], out=z[0])
    q += np.multiply(z[1], z[1], out=z[1])
    return np.flatnonzero(q <= (theta / sigma) ** 2)


def _workspace(m: int, w: np.ndarray | None = None) -> np.ndarray:
    """Five m-slot float rows for a batch to draw into (module docstring,
    "Memory"): a new (5, m) array, or a C-contiguous (5, m) view of the
    front of the workspace w, one of at least m slots."""
    return np.empty((5, m)) if w is None else w.reshape(-1)[: 5 * m].reshape(5, m)


def _draw_channel(rng: np.random.Generator, ctx: AnalyticContext, m: int, w: np.ndarray | None = None):
    """Channel realizations for m slots: (r_d, eta_turb, accepted).

    ``r_d(i)`` is the pointing displacement norm of the slots at the index
    array i, computed when asked; ``eta_turb`` is every slot's fade and
    ``accepted`` the sorted indices of the slots inside the field of view.
    The draws fill the rows of ``_workspace(m, w)``: the displacement
    normals rows 0-1, the fade row 2 (its second Gamma row 3) and the
    angle-of-arrival normals rows 3-4, which the FoV test leaves holding
    their squares.
    """
    w = _workspace(m, w)
    g = rng.standard_normal(out=w[:2])
    eta = gg_sample(rng, ctx.alpha, ctx.beta, m, out=w[2:4])
    accepted = _fov_accepted(rng.standard_normal(out=w[3:]), ctx.sigma_aoa, ctx.theta_fov)
    s = ctx.sigma_rd
    return (lambda i: np.hypot(s * g[0, i], s * g[1, i])), eta, accepted


# Bound on an exact capture value: chndtr returns at most ~1e-14 above 1, and
# TestThinning checks the bound over the config box.
_CAP_MAX_EXACT = 1.0 + 1e-9


def _draw_slots(rng: np.random.Generator, ctx: AnalyticContext, m: int, w: np.ndarray | None = None):
    """Draw and classify m slots into the rows of ``_workspace(m, w)``:
    (outcome counts in OUTCOMES order, detected, n_b, candidates).
    ``detected`` and ``candidates`` are sorted slot indices; the candidates
    are the slots whose capture value was computed (module docstring,
    "Thinning")."""
    w = _workspace(m, w)
    rd, eta, acc = _draw_channel(rng, ctx, m, w)
    u = rng.random(out=w[3])  # over the FoV squares
    # the accepted slots' fade, then uniform, into rows already read ("clip"
    # clips no valid index; "raise" would copy through a new buffer)
    eta = np.take(eta, acc, out=w[4, :acc.size], mode="clip")
    u = np.take(u, acc, out=w[2, :acc.size], mode="clip")
    bound = np.multiply(eta, ctx.eta_atm * ctx.mu_d * _CAP_MAX_EXACT, out=w[3, :acc.size])
    bound *= -ctx.mu_t
    np.negative(np.expm1(bound, out=bound), out=bound)
    j = np.flatnonzero(u < bound)  # the candidates, as positions in acc
    cand = acc[j]
    del acc  # up to m indices: freed before the capture values and n_b
    t = ctx.eta_atm * ctx.mu_d * capture_exact(rd(cand), ctx.wz, ctx.ra) * eta[j]
    det = cand[u[j] < -np.expm1(-ctx.mu_t * t)]  # n_q >= 1
    n_b = rng.poisson(ctx.mu_b, m)
    coin = rng.random(out=w[0])  # fair polarization coin: heads below 0.5

    bg = np.flatnonzero(n_b)
    one = bg[n_b[bg] == 1]
    n_b_det = n_b[det]
    det_one = det[n_b_det == 1]
    s1 = det.size - np.count_nonzero(n_b_det)
    s3 = np.count_nonzero(coin[det_one] < 0.5)
    s2_err = np.count_nonzero(coin[one] < 0.5) - s3
    s2_ok = one.size - det_one.size - s2_err
    multi = bg.size - one.size + det_one.size - s3
    counts = np.array([m - bg.size - s1, s1, s2_ok, s2_err, s3, multi])
    return counts, det, n_b, cand


def _simulate_batch(ss: np.random.SeedSequence, ctx: AnalyticContext, m: int, w: np.ndarray) -> np.ndarray:
    """[detected slots, capture evaluations, then the count of each
    outcome] for one seeded batch, drawn into the workspace w."""
    counts, det, _, cand = _draw_slots(np.random.default_rng(ss), ctx, m, w)
    return np.concatenate(([det.size, cand.size], counts))


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def run(ctx: AnalyticContext, n_slots: int, seed: int, workers: int = 1) -> McReport:
    """Simulate ``n_slots`` quantum slots and aggregate the estimates. One
    worker runs the batches on the calling thread, more run them on a pool
    of ``workers`` threads; each thread keeps one workspace for the run
    (module docstring, "Memory"). Both counts are integers >= 1 (an int or
    numpy integer, not a bool). ``ctx`` is one point: a context of shape ()
    or (1,)."""
    for name, count in (("n_slots", n_slots), ("workers", workers)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, not {count!r}")
        if count < 1:
            raise ValueError(f"{name} must be >= 1")
    n_slots, workers = int(n_slots), int(workers)
    ctx = _point(ctx, error="the Monte Carlo simulates a context of one point")
    n_batches = (n_slots + BATCH_SIZE - 1) // BATCH_SIZE
    children = np.random.SeedSequence(seed).spawn(n_batches)
    sizes = [BATCH_SIZE] * (n_batches - 1) + [n_slots - BATCH_SIZE * (n_batches - 1)]

    spaces = threading.local()  # each thread's workspace, kept for the whole run

    def batch(ss: np.random.SeedSequence, m: int) -> np.ndarray:
        if not hasattr(spaces, "w"):
            spaces.w = _workspace(sizes[0])
        return _simulate_batch(ss, ctx, m, spaces.w)

    if workers == 1:
        counts = list(map(batch, children, sizes))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(batch, children, sizes))
    detect, capture_evals, *outcomes = (int(c) for c in np.sum(counts, axis=0))
    _, s1, s2_ok, s2_err, s3, _ = outcomes
    bits = s1 + s2_ok + s2_err + s3  # slots of exactly one effective detection: the key bits

    # the count estimates, each a count over n_slots, name the report's fields and their binomial errors
    est = {name: count / n_slots for name, count in
           (("p_detect", detect), ("p_s1", s1), ("p_s2", s2_ok + s2_err), ("p_s3", s3), ("p_eff_one", bits))}
    se = {name: _binom_se(p, n_slots) for name, p in est.items()}
    qber = s2_err / bits if bits > 0 else math.nan
    se.update(key_rate=ctx.R_q * se["p_eff_one"], qber=_binom_se(qber, bits) if bits > 0 else math.nan)
    report = PerformanceReport(**est, key_rate=ctx.R_q * est["p_eff_one"], qber=qber, method="monte_carlo", se=se)
    return McReport(n_slots=n_slots, seed=seed, batch_size=BATCH_SIZE, estimates=report,
                    capture_evals=capture_evals, outcomes=tuple(outcomes))
