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
p_detect estimates the exact expectation E[P_fov (1 - e^(-mu_t t))]. (A
clamp at 1 biased it by -1.7% at the reference point, wz = 10 cm,
theta_fov = 100 urad, where 1.8% of slots have t > 1.) Nothing is
clamped, so ``McReport.clamp_rate`` is 0.

Each slot decides n_q >= 1 with one uniform against 1 - e^(-mu_t t). The
draw stream therefore does not depend on the values of t: numpy's
``binomial`` and ``poisson`` draw nothing for a zero parameter, so with
them a capture value underflowing to 0 instead of 1e-300 would shift
every later draw of its batch. ``run`` and ``simulate_slot`` share one
draw routine and one outcome classifier.

Capture probability uses the exact closed form (``capture_exact``) by
default so that Monte Carlo vs analytic deviations isolate the
grid/linearization approximations; ``use_grid_mu_p`` switches to the grid
model for apples-to-apples comparisons.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytics import AnalyticContext, PerformanceReport
from .beam import capture_exact, capture_grid
from .channel import gg_sample

__all__ = ["BATCH_SIZE", "McOptions", "SlotSample", "McReport", "simulate_slot", "run"]

BATCH_SIZE = 1 << 16  # fixed so the batch partition never depends on worker count

OUTCOMES = ("no_bit", "bit_ok", "bit_error", "discarded_multi")


@dataclass(frozen=True)
class McOptions:
    """Simulation switches; the force_* hooks pin a channel factor for tests."""

    use_grid_mu_p: bool = False
    force_rd: float | None = None
    force_eta: float | None = None
    force_fov: bool | None = None


@dataclass(frozen=True)
class SlotSample:
    """One simulated quantum slot."""

    detected: bool  # n_q >= 1
    n_b: int
    outcome: str
    r_d: float
    eta_turb: float
    fov_accept: bool


@dataclass(frozen=True)
class McReport:
    """Aggregate Monte Carlo estimates with binomial standard errors."""

    n_slots: int
    seed: int
    batch_size: int
    estimates: PerformanceReport

    @property
    def batches(self) -> int:
        """Number of seeded batches the slots were split into."""
        return -(-self.n_slots // self.batch_size)

    @property
    def clamp_rate(self) -> float:
        """Share of slots whose survival factor was clamped: 0, the draw clamps nothing."""
        return 0.0


# Slot states: no bit; State 1 (signal only); State 2 (background only)
# read in the right / wrong basis; State 3 (signal + one background) kept
# by the polarization coin; discarded multi-count.
_NONE, _S1, _S2_OK, _S2_ERR, _S3, _MULTI = range(6)
_STATE_OUTCOME = ("no_bit", "bit_ok", "bit_ok", "bit_error", "bit_ok", "discarded_multi")


def _draw_channel(rng: np.random.Generator, ctx: AnalyticContext, m: int, opt: McOptions):
    """Channel realizations for m slots: (r_d, eta_turb, fov_accept).

    Draw order is fixed; the force_* hooks consume the same random numbers
    so that pinning one factor does not shift the others.
    """
    g = rng.normal(0.0, ctx.pointing.sigma_rd, (2, m))
    rd = np.hypot(g[0], g[1])
    eta = gg_sample(rng, ctx.alpha, ctx.beta, m)
    a = rng.normal(0.0, ctx.fov.sigma_aoa, (2, m))
    accept = np.hypot(a[0], a[1]) <= ctx.fov.theta_fov
    if opt.force_rd is not None:
        rd = np.full(m, opt.force_rd)
    if opt.force_eta is not None:
        eta = np.full(m, opt.force_eta)
    if opt.force_fov is not None:
        accept = np.full(m, opt.force_fov)
    return rd, eta, accept


def _mu_p_of(rd: np.ndarray, ctx: AnalyticContext, opt: McOptions) -> np.ndarray:
    if opt.use_grid_mu_p:
        return np.asarray(capture_grid(ctx.grid, rd))
    return capture_exact(rd, ctx.wz, ctx.ra)


def _draw_slots(rng: np.random.Generator, ctx: AnalyticContext, m: int, opt: McOptions):
    """Draw and classify m slots: (state, detected, n_b, r_d, eta_turb, fov_accept)."""
    rd, eta, accept = _draw_channel(rng, ctx, m, opt)
    t = ctx.eta_atm * ctx.mu_d * _mu_p_of(rd, ctx, opt) * eta
    sig = rng.random(m) < -np.expm1(-ctx.mu_t * np.where(accept, t, 0.0))  # n_q >= 1
    n_b = rng.poisson(ctx.mu_b, m)
    heads = rng.random(m) < 0.5  # fair polarization coin

    state = np.where(n_b >= 2, _MULTI, np.where(sig, _S1, _NONE))
    one_b = n_b == 1
    state[one_b] = np.where(sig, np.where(heads, _S3, _MULTI), np.where(heads, _S2_ERR, _S2_OK))[one_b]
    return state, sig, n_b, rd, eta, accept


def _simulate_batch(ss: np.random.SeedSequence, ctx: AnalyticContext, m: int, opt: McOptions) -> np.ndarray:
    """[detected slots, then the count of each slot state] for one seeded batch."""
    state, sig, *_ = _draw_slots(np.random.default_rng(ss), ctx, m, opt)
    return np.concatenate(([np.count_nonzero(sig)], np.bincount(state, minlength=len(_STATE_OUTCOME))))


def simulate_slot(rng: np.random.Generator, ctx: AnalyticContext, options: McOptions | None = None) -> SlotSample:
    """Simulate a single quantum slot and classify its outcome."""
    state, sig, n_b, rd, eta, accept = _draw_slots(rng, ctx, 1, options or McOptions())
    return SlotSample(
        detected=bool(sig[0]),
        n_b=int(n_b[0]),
        outcome=_STATE_OUTCOME[state[0]],
        r_d=float(rd[0]),
        eta_turb=float(eta[0]),
        fov_accept=bool(accept[0]),
    )


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def run(
    ctx: AnalyticContext,
    n_slots: int,
    seed: int,
    workers: int = 1,
    options: McOptions | None = None,
) -> McReport:
    """Simulate ``n_slots`` quantum slots and aggregate the estimates."""
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    opt = options or McOptions()
    n_batches = (n_slots + BATCH_SIZE - 1) // BATCH_SIZE
    children = np.random.SeedSequence(seed).spawn(n_batches)
    sizes = [BATCH_SIZE] * (n_batches - 1) + [n_slots - BATCH_SIZE * (n_batches - 1)]

    if workers <= 1:
        counts = [_simulate_batch(ss, ctx, m, opt) for ss, m in zip(children, sizes)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_simulate_batch, children, [ctx] * n_batches, sizes, [opt] * n_batches))
    detect, _, s1, s2_ok, s2_err, s3, _ = (int(c) for c in np.sum(counts, axis=0))

    n = n_slots
    s2 = s2_ok + s2_err
    bits = s1 + s2 + s3
    p_detect = detect / n
    p_s1, p_s2, p_s3 = s1 / n, s2 / n, s3 / n
    peff = bits / n
    qber_est = (s2_err / bits) if bits > 0 else float("nan")
    r_q = ctx.R_q
    se = {
        "p_detect": _binom_se(p_detect, n),
        "p_s1": _binom_se(p_s1, n),
        "p_s2": _binom_se(p_s2, n),
        "p_s3": _binom_se(p_s3, n),
        "p_eff_one": _binom_se(peff, n),
        "key_rate": r_q * _binom_se(peff, n),
        "qber": _binom_se(qber_est, bits) if bits > 0 else float("nan"),
    }
    report = PerformanceReport(
        p_detect=p_detect,
        p_s1=p_s1,
        p_s2=p_s2,
        p_s3=p_s3,
        p_eff_one=peff,
        key_rate=r_q * peff,
        qber=qber_est,
        method="monte_carlo",
        se=se,
    )
    return McReport(
        n_slots=n_slots,
        seed=seed,
        batch_size=BATCH_SIZE,
        estimates=report,
    )
