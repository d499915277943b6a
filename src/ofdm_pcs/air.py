"""Achievable information rate of a discrete input on the complex AWGN channel.

The output entropy H(Y) of the Gaussian-mixture channel output has no closed
form, so it is estimated by Monte Carlo: draw symbols and noise, evaluate the
exact mixture density at each observation via log-sum-exp, and average.  The
conditional entropy is the analytic ``log2(pi e sigma^2)``, giving the rate
per (sub-channel) symbol.  An L-subcarrier OFDM symbol carries L independent
such channels, so its aggregate rate is L times these values.  ``sigma^2`` is
the total variance of the circularly-symmetric complex noise, half per real
dimension.

One :func:`air_mc` call takes a float noise variance or a 1-D grid of them,
and evaluates every variance on one set of draws: the symbol indices and the
unit noise are drawn once per chunk and scaled per variance, so a grid entry
equals the call at that variance alone, bit for bit.  The sweeps use this
as common random numbers: every cell of a sweep draws from the sweep's own
seed, so differences between its cells carry less Monte-Carlo noise than
independent draws would give them.

The log-sum-exp runs in real float64 arithmetic on one (points x block)
buffer, so its max and sum reduce over the short leading axis, and every
exponent is floored at -700 so ``np.exp`` never takes its slow subnormal or
underflow path (see :func:`air_mc`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, IndexSampler
from .mc import map_chunks, map_ordered
from .ofdm import check_db
from .pcs import PcsProblem, solve_pcs

_LOG2E = math.log2(math.e)
# Draws per Monte-Carlo chunk: bounds the chunk's drawn indices and noise.
AIR_CHUNK = 50_000
# Draws per log-sum-exp block: bounds the (points, block) buffer and keeps it
# in cache.
_LSE_BLOCK = 8192
# Floor of the peak-shifted exponents: exp(-700) is still a normal double.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class AirConfig:
    """Monte-Carlo settings of :func:`air_mc`; ``noise_variance`` is a float
    or a non-empty 1-D grid of them, each of level ``10 log10 sigma^2``
    within the bound of :func:`ofdm.check_db`, where ``1/sigma^2`` and the
    squared distances stay finite."""

    noise_variance: float | np.ndarray
    mc_trials: int = 200_000
    seed: int = 0

    def __post_init__(self):
        grid = np.asarray(self.noise_variance, dtype=float)
        if grid.ndim > 1 or grid.size == 0:
            raise ValueError(
                f"noise_variance must be a float or a non-empty 1-D grid, got shape {grid.shape}"
            )
        if not ((grid > 0) & (grid < np.inf)).all():
            raise ValueError(f"noise_variance must be positive and finite, got {grid.tolist()}")
        check_db(10.0 * np.log10(grid), "10 log10 noise_variance")
        if self.mc_trials < 1:
            raise ValueError(f"mc_trials must be >= 1, got {self.mc_trials}")


@dataclass
class AirEstimate:
    """Rate and its standard error in bits, floats for a float noise variance
    and arrays of the grid's shape for a grid."""

    rate: float | np.ndarray
    std_error: float | np.ndarray


def air_mc(constellation: Constellation, cfg: AirConfig) -> AirEstimate:
    """Monte-Carlo mutual information estimate in bits per symbol, at each
    noise variance of ``cfg``.

    Per sent point x_i and noise n the integrand is
    ``-log2 sum_q p_q exp(-|x_q - x_i - n|^2 / sigma^2) / (pi sigma^2)`` minus
    ``log2(pi e sigma^2)``; the mixture log-density is evaluated with a
    max-shifted log-sum-exp so arbitrarily small noise variances stay finite.
    Chunks of ``AIR_CHUNK`` observations draw their own indices and noise
    from per-chunk child seeds of ``cfg.seed`` (see :func:`mc.map_chunks`)
    and return ``(sum, sum of squares)`` partials per variance, added in
    chunk order, so memory stays O(``AIR_CHUNK`` + ``_LSE_BLOCK`` x points)
    and the estimate is an exact function of (seed, mc_trials, inputs).

    Each chunk draws, in this order, the symbol indices (an
    :class:`IndexSampler`, bitwise ``rng.choice(points, count, p=p)``), the
    real unit-noise parts and the imaginary unit-noise parts
    (``rng.standard_normal(count)`` each), once for every variance.  The
    chunk's draws then run in blocks of ``_LSE_BLOCK``, each variance in
    turn, and a block's partials add to the chunk's in block order.  Per
    variance the noise is the unit noise times ``sqrt(sigma^2 / 2)``, and
    row q of one (points, block) float64 buffer is ``(x_q,re - x_i,re -
    n_re)^2 + (x_q,im - x_i,im - n_im)^2``, written in place.  Each squared
    term is taken once per distinct real or imaginary part and shared by the
    rows of the points that have it (qam16's 16 points have 4 of each).  The
    channel output ``x_i + n`` is never formed, so the row of the sent point
    is exactly ``|n|^2`` and no noise is rounded away at any SNR.  The rows
    are then scaled to ``log p_q - ... / sigma^2``, and the max and the sum
    over the points reduce over axis 0.  The peak-shifted exponents are
    floored at -700 before ``np.exp``.  The floor is exact: the peak term is
    exactly 1 and a floored term is at most ``exp(-700) < 1e-304``, far
    below half an ulp of a sum >= 1, while an exponent whose result would be
    subnormal or underflow costs ``np.exp`` tens of times a normal one and
    raises under ``np.errstate(under="raise")``.
    """
    shape = np.shape(cfg.noise_variance)
    variances = np.asarray(cfg.noise_variance, dtype=float).ravel().tolist()
    mask = constellation.probs > 0
    points = constellation.points[mask]
    prior = constellation.probs[mask]
    log_prior = np.log(prior)[:, None]
    sampler = IndexSampler(prior / prior.sum())
    # The distinct real and imaginary parts, and each point's index among them.
    (re_values, re_of), (im_values, im_of) = (
        np.unique(part, return_inverse=True) for part in (points.real, points.imag)
    )
    splits = [re_values.size, re_values.size + im_values.size]

    def partials(rng: np.random.Generator, count: int) -> np.ndarray:
        idx = sampler.draw(rng, count)
        x = points.real[idx], points.imag[idx]
        unit = rng.standard_normal(count), rng.standard_normal(count)
        # Equal blocks of at most _LSE_BLOCK draws; the last may be shorter.
        width = -(-count // -(-count // _LSE_BLOCK))
        noise = np.empty(width)
        # The squared terms of the distinct real parts, then of the imaginary
        # parts, then a row per point: one allocation for every block and variance.
        buf = np.empty((splits[-1] + points.size, width))
        sums = np.zeros((len(variances), 2))
        for lo in range(0, count, width):
            cols = slice(lo, lo + width)
            n = noise[: min(width, count - lo)]
            sq_re, sq_im, ll = np.split(buf[:, : n.size], splits)
            for k, sigma2 in enumerate(variances):
                scale = math.sqrt(sigma2 / 2.0)
                for sq, values, x_part, unit_part in zip((sq_re, sq_im), (re_values, im_values), x, unit):
                    np.multiply(unit_part[cols], scale, out=n)
                    # v - x_i is exactly 0 where x_i has the part v, whatever sigma^2.
                    np.subtract(values[:, None], x_part[cols], out=sq)
                    sq -= n
                    np.square(sq, out=sq)
                for row, a, b in zip(ll, re_of, im_of):
                    np.add(sq_re[a], sq_im[b], out=row)
                ll *= -1.0 / sigma2
                ll += log_prior
                peak = ll.max(axis=0)
                ll -= peak
                np.maximum(ll, _EXP_FLOOR, out=ll)
                np.exp(ll, out=ll)
                lse = peak + np.log(ll.sum(axis=0))
                # rate sample: -log2 p(y) - log2(pi e sigma^2) with the pi sigma^2
                # normalizations cancelling down to a single log2(e).
                r = -lse * _LOG2E - _LOG2E
                sums[k] += r.sum(), (r * r).sum()
        return sums

    totals = np.zeros((len(variances), 2))
    for sums in map_chunks(partials, cfg.seed, cfg.mc_trials, AIR_CHUNK, 1):
        totals += sums
    mean = totals[:, 0] / cfg.mc_trials
    var = np.maximum(totals[:, 1] / cfg.mc_trials - mean * mean, 0.0)
    std_error = np.sqrt(var / cfg.mc_trials)
    if not shape:
        return AirEstimate(rate=float(mean[0]), std_error=float(std_error[0]))
    return AirEstimate(rate=mean, std_error=std_error)


def sigma2_from_snr_db(snr_db: float) -> float:
    """Noise variance for a given SNR in dB under unit signal power."""
    return 10.0 ** (-snr_db / 10.0)


def air_vs_c0(
    base: Constellation,
    c0_grid,
    cfg: AirConfig,
    *,
    threads: int = 1,
) -> tuple[list, AirEstimate]:
    """Shape the base constellation for each target, then estimate its rate.

    Returns each c0's :func:`solve_pcs` solution and one :class:`AirEstimate`
    over ``c0_grid``.  The targets are shaped first, serially; entry i is
    ``air_mc(shaped_i, cfg)``, every entry drawing from ``cfg.seed``, and the
    entries run on up to ``threads`` workers.
    """
    grid = np.asarray(c0_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("c0_grid must be a non-empty 1-D list")
    sols = [solve_pcs(PcsProblem(base.amplitudes, c0)) for c0 in grid]
    ests = map_ordered(lambda sol: air_mc(base.with_probs(sol.probs), cfg), sols, threads)
    return sols, AirEstimate(np.array([e.rate for e in ests]), np.array([e.std_error for e in ests]))


def air_vs_snr(
    constellations: list[Constellation],
    snr_grid_db,
    mc_trials: int,
    seed,
    *,
    threads: int = 1,
) -> AirEstimate:
    """Rates over an SNR grid as one (constellation, snr) :class:`AirEstimate`.

    Each constellation is one :func:`air_mc` call over the whole grid's
    noise variances at ``seed``, so entry (c, snr) equals
    ``air_mc(c, AirConfig(sigma2_from_snr_db(snr), mc_trials, seed))`` and a
    constellation's row does not depend on the others; the calls run on up
    to ``threads`` workers.
    """
    grid = np.asarray(snr_grid_db, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("snr_grid_db must be a non-empty 1-D list")
    if not constellations:
        raise ValueError("constellations is empty: need at least one constellation")
    cfg = AirConfig(np.array([sigma2_from_snr_db(snr) for snr in grid]), mc_trials, seed)
    ests = map_ordered(lambda c: air_mc(c, cfg), constellations, threads)
    return AirEstimate(np.array([e.rate for e in ests]), np.array([e.std_error for e in ests]))
