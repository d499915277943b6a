"""Achievable information rate of a discrete input on the complex AWGN channel.

The output entropy H(Y) of the Gaussian-mixture channel output has no closed
form, so it is estimated by Monte Carlo: draw symbols and noise, evaluate the
exact mixture density at each observation, and average its log.  The
conditional entropy is the analytic ``log2(pi e sigma^2)``, giving the rate
per (sub-channel) symbol.  An L-subcarrier OFDM symbol carries L independent
such channels, so its aggregate rate is L times these values.  ``sigma^2`` is
the total variance of the circularly-symmetric complex noise, half per real
dimension.

One :func:`air_mc` call takes a float noise variance or a 1-D grid of them,
and one constellation or a sequence of them (rows), and evaluates every row
and variance on one set of draws: the symbol keys and the unit noise are
drawn once per chunk, each row maps the keys to its own symbols, and the
noise is scaled per variance, so a row and a grid entry each equal the call
on that constellation at that variance alone, bit for bit.  The sweeps use
this as common random numbers: every cell of a sweep draws from the sweep's
own seed, so differences between its cells carry less Monte-Carlo noise than
independent draws would give them, and a whole sweep is one call that draws
each chunk once.

The Gaussian kernel of each point is the product of a real-axis and an
imaginary-axis factor, so the mixture density takes one exponential per
distinct real or imaginary part of the constellation, not one per point,
and sums the points' terms as one small matrix product with their priors
(see :func:`air_mc`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, IndexSampler
from .mc import map_chunks
from .ofdm import check_db
from .pcs import PcsProblem, solve_pcs

_LOG2E = math.log2(math.e)
# Draws per Monte-Carlo chunk: bounds the chunk's drawn indices and noise.
AIR_CHUNK = 50_000
# Draws per mixture block: bounds the (parts, block) buffer and keeps it in
# cache.
_MIX_BLOCK = 8192
# Floor of each axis's exponent; see air_mc for why it is exact.
_EXP_FLOOR = -300.0


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
    and arrays of the grid's shape for a grid, with a leading row axis for a
    sequence of constellations."""

    rate: float | np.ndarray
    std_error: float | np.ndarray


def air_mc(
    constellation: Constellation | Sequence[Constellation], cfg: AirConfig, *, threads: int = 1
) -> AirEstimate:
    """Monte-Carlo mutual information estimate in bits per symbol, at each
    noise variance of ``cfg``, for one constellation or for each of a
    sequence of them (the rows).

    A lone constellation gives the shapes of the noise variance (floats for a
    float, arrays of the grid's shape for a grid); a sequence adds a leading
    row axis to ``rate`` and ``std_error``.

    Per sent point x_i and noise n the integrand is
    ``-log2 sum_q p_q exp(-|x_q - x_i - n|^2 / sigma^2) / (pi sigma^2)`` minus
    ``log2(pi e sigma^2)``.  Chunks of ``AIR_CHUNK`` observations draw their
    own keys and noise from per-chunk child seeds of ``cfg.seed`` and run on
    up to ``threads`` workers (see :func:`mc.map_chunks`); each returns
    ``(sum, sum of squares)`` partials per row and variance, added in chunk
    order, so memory stays O(``threads`` x (``AIR_CHUNK`` + ``_MIX_BLOCK`` x
    parts)) and the estimate is an exact function of (seed, mc_trials,
    inputs), whatever ``threads`` is.

    Each chunk draws, in this order, one ``rng.random(count)`` key per
    observation, the real unit-noise parts u_re and the imaginary ones u_im
    (``rng.standard_normal(count)`` each), once for every row and variance.
    Each row then maps the keys to its symbol indices with its own
    :class:`IndexSampler` (bitwise ``rng.choice(points, count, p=p)`` on the
    row's points of nonzero prior), and runs the chunk's draws in blocks of
    ``_MIX_BLOCK``, each variance in turn, a block's partials adding to the
    row's in block order.  So a row sees the draws and the arithmetic it
    sees alone, and equals its lone call bit for bit, as a grid entry equals
    the call at that variance alone.  Per variance the noise is the unit
    noise times ``sqrt(sigma^2 / 2)``.

    The kernel separates by axis, ``exp(-|x_q - x_i - n|^2 / sigma^2) =
    E_re[a] E_im[b]`` for the point x_q = (v_a, w_b), so one (parts, block)
    float64 buffer holds ``E_re[a] = exp(max(-(v_a - x_i,re - n_re)^2 /
    sigma^2, F))`` for each distinct real part v_a and likewise ``E_im[b]``
    for each distinct imaginary part w_b, every step written in place.  The
    channel output ``x_i + n`` is never formed, so the sent point's
    differences are exactly ``-n`` and no noise is rounded away at any SNR.
    With ``P[a, b]`` the prior of the point (v_a, w_b), 0 where there is no
    such point, the mixture sum is ``S = sum_a E_re[a] (P @ E_im)[a]`` and
    the draw's sample is ``-log2 S - log2 e``.

    No peak shift is needed: S holds the sent point's own term ``p_i
    exp(-|u|^2 / 2)``, which stays a normal double, and every term is at most
    its prior, so S is at most the priors' sum, 1.  The floor F =
    ``_EXP_FLOOR`` = -300 is exact and keeps every step normal:

    - a floored factor is at most ``exp(-300) < 1e-130`` and the other
      factor and the prior at most 1, so all floored terms together (at most
      256 on qam256) lie below ``2^-54 p_i exp(-|u|^2 / 2)``, under half an
      ulp of S, for any sent prior p_i >= 1e-12 unless ``|u|^2 > 450``, a
      chance of ``exp(-225)`` per draw (and the sent point's own factors
      reach the floor only at ``u_re^2 / 2 > 300``);
    - a factor is at least ``exp(-300)``, so ``factor * factor * prior`` is at
      least ``exp(-600) * 1e-12 > 2e-273``, above the smallest normal double,
      for every prior down to 1e-12 (down to about 1e-47 in fact): neither
      the matrix product nor ``np.exp`` ever takes its slow subnormal or
      underflow path, which costs tens of times a normal one and raises
      under ``np.errstate(under="raise")``.
    """
    lone = isinstance(constellation, Constellation)
    rows = [constellation] if lone else list(constellation)
    if not rows:
        raise ValueError("constellations is empty: need at least one constellation")
    variances = np.asarray(cfg.noise_variance, dtype=float).ravel().tolist()
    row_partials = [_row_partials(c, variances) for c in rows]

    def partials(rng: np.random.Generator, count: int) -> np.ndarray:  # (row, variance, 2)
        keys = rng.random(count)
        unit = rng.standard_normal(count), rng.standard_normal(count)
        return np.array([row(keys, unit) for row in row_partials])

    totals = map_chunks(partials, cfg.seed, cfg.mc_trials, AIR_CHUNK, threads)
    mean = totals[..., 0] / cfg.mc_trials
    var = np.maximum(totals[..., 1] / cfg.mc_trials - mean * mean, 0.0)
    std_error = np.sqrt(var / cfg.mc_trials)
    # Drop the row axis of a lone constellation and the variance axis of a float.
    at = (0 if lone else slice(None), slice(None) if np.ndim(cfg.noise_variance) else 0)
    rate, std_error = mean[at], std_error[at]
    if np.ndim(rate) == 0:
        return AirEstimate(rate=float(rate), std_error=float(std_error))
    return AirEstimate(rate=rate, std_error=std_error)


def _row_partials(constellation: Constellation, variances: list[float]):
    """``fn(keys, unit)``: one row's (variance, 2) partials of :func:`air_mc`
    on a chunk's keys and unit noise."""
    mask = constellation.probs > 0
    points = constellation.points[mask]
    prior = constellation.probs[mask]
    sampler = IndexSampler(prior / prior.sum())
    # The distinct real and imaginary parts, and the prior of each pair of them.
    (re_values, re_of), (im_values, im_of) = (
        np.unique(part, return_inverse=True) for part in (points.real, points.imag)
    )
    joint = np.zeros((re_values.size, im_values.size))
    np.add.at(joint, (re_of, im_of), prior)
    splits = [re_values.size, re_values.size + im_values.size]

    def partials(keys: np.ndarray, unit: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        count = keys.size
        idx = sampler.index(keys)
        x = points.real[idx], points.imag[idx]
        # Equal blocks of at most _MIX_BLOCK draws; the last may be shorter.
        width = -(-count // -(-count // _MIX_BLOCK))
        noise = np.empty(width)
        # The factors of the distinct real parts, then of the imaginary parts,
        # then the prior times the imaginary factors: one allocation for every
        # block and variance.
        buf = np.empty((splits[-1] + re_values.size, width))
        sums = np.zeros((len(variances), 2))
        for lo in range(0, count, width):
            cols = slice(lo, lo + width)
            n = noise[: min(width, count - lo)]
            f_re, f_im, mix = np.split(buf[:, : n.size], splits)
            for k, sigma2 in enumerate(variances):
                scale = math.sqrt(sigma2 / 2.0)
                for f, values, x_part, unit_part in zip((f_re, f_im), (re_values, im_values), x, unit):
                    np.multiply(unit_part[cols], scale, out=n)
                    # v - x_i is exactly 0 where x_i has the part v, whatever sigma^2.
                    np.subtract(values[:, None], x_part[cols], out=f)
                    f -= n
                    np.square(f, out=f)
                    f *= -1.0 / sigma2
                    np.maximum(f, _EXP_FLOOR, out=f)
                    np.exp(f, out=f)
                np.matmul(joint, f_im, out=mix)
                mix *= f_re
                # rate sample: -log2 p(y) - log2(pi e sigma^2) with the pi sigma^2
                # normalizations cancelling down to a single log2(e).
                r = -np.log2(mix.sum(axis=0)) - _LOG2E
                sums[k] += r.sum(), (r * r).sum()
        return sums

    return partials


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
    over ``c0_grid``.  The targets are shaped first, serially, then one
    :func:`air_mc` call over the shaped rows estimates every rate, so entry
    i equals ``air_mc(shaped_i, cfg)``: every row draws from ``cfg.seed``
    and shares each chunk's draws, and the chunks run on up to ``threads``
    workers.
    """
    grid = np.asarray(c0_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("c0_grid must be a non-empty 1-D list")
    sols = [solve_pcs(PcsProblem(base.amplitudes, c0)) for c0 in grid]
    return sols, air_mc([base.with_probs(sol.probs) for sol in sols], cfg, threads=threads)


def air_vs_snr(
    constellations: Sequence[Constellation],
    snr_grid_db,
    mc_trials: int,
    seed,
    *,
    threads: int = 1,
) -> AirEstimate:
    """Rates over an SNR grid as one (constellation, snr) :class:`AirEstimate`.

    One :func:`air_mc` call over the constellations and the whole grid's
    noise variances at ``seed``, so entry (c, snr) equals
    ``air_mc(c, AirConfig(sigma2_from_snr_db(snr), mc_trials, seed))`` and a
    constellation's row does not depend on the others; the chunks run on up
    to ``threads`` workers.
    """
    grid = np.asarray(snr_grid_db, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("snr_grid_db must be a non-empty 1-D list")
    cfg = AirConfig(np.array([sigma2_from_snr_db(snr) for snr in grid]), mc_trials, seed)
    return air_mc(constellations, cfg, threads=threads)
