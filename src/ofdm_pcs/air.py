"""Achievable information rate of a discrete input on the complex AWGN channel.

The output entropy H(Y) of the Gaussian-mixture channel output has no closed
form, so it is estimated by Monte Carlo: draw symbols and noise, evaluate the
exact mixture density at each observation via log-sum-exp, and average.  The
conditional entropy is the analytic ``log2(pi e sigma^2)``, giving the rate
per (sub-channel) symbol.  An L-subcarrier OFDM symbol carries L independent
such channels, so its aggregate rate is L times these values.  ``sigma^2`` is
the total variance of the circularly-symmetric complex noise, half per real
dimension.

The log-sum-exp runs in real float64 arithmetic on one (points x draws)
buffer, so its max and sum reduce over the short leading axis, and every
exponent is floored at -700 so ``np.exp`` never takes its slow subnormal or
underflow path (see :func:`air_mc`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .mc import map_chunks, map_ordered
from .pcs import PcsProblem, solve_pcs

_LOG2E = math.log2(math.e)
# Draws per Monte-Carlo chunk: bounds the (|Q|, chunk) log-likelihood buffer.
AIR_CHUNK = 50_000
# Floor of the peak-shifted exponents: exp(-700) is still a normal double.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class AirConfig:
    noise_variance: float
    mc_trials: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.noise_variance < np.inf):
            raise ValueError(f"noise variance must be positive and finite, got {self.noise_variance}")
        if self.mc_trials < 1:
            raise ValueError(f"mc_trials must be >= 1, got {self.mc_trials}")


@dataclass
class AirEstimate:
    rate: float
    std_error: float


def air_mc(constellation: Constellation, cfg: AirConfig) -> AirEstimate:
    """Monte-Carlo mutual information estimate in bits per symbol.

    Per observation ``y = x + n`` the integrand is
    ``-log2 sum_q p_q exp(-|y - x_q|^2 / sigma^2) / (pi sigma^2)`` minus
    ``log2(pi e sigma^2)``; the mixture log-density is evaluated with a
    max-shifted log-sum-exp so arbitrarily small noise variances stay finite.
    Chunks of ``AIR_CHUNK`` observations draw their own indices and noise
    from per-chunk child seeds of ``cfg.seed`` (see :func:`mc.map_chunks`)
    and return ``(sum, sum of squares)`` partials, added in chunk order, so
    memory stays O(``AIR_CHUNK`` x points) and the estimate is an exact
    function of (seed, mc_trials, inputs).

    Each chunk draws, in this order, the symbol indices
    (``rng.choice(points, count, p=p)``), the real noise parts and the
    imaginary noise parts (``rng.standard_normal(count)`` each).  The
    log-likelihoods ``log p_q - ((x_q,re - y_re)^2 + (x_q,im - y_im)^2) /
    sigma^2`` then fill one (points, count) float64 buffer, a row per point
    written in place, so the max and the sum over the points reduce over
    axis 0.  The peak-shifted exponents are floored at -700 before
    ``np.exp``.  The floor is exact: the peak term is exactly 1 and a floored
    term is at most ``exp(-700) < 1e-304``, far below half an ulp of a sum
    >= 1, while an exponent whose result would be subnormal or underflow
    costs ``np.exp`` tens of times a normal one and raises under
    ``np.errstate(under="raise")``.
    """
    sigma2 = cfg.noise_variance
    mask = constellation.probs > 0
    points = constellation.points[mask]
    prior = constellation.probs[mask]
    log_prior = np.log(prior)[:, None]
    p = prior / prior.sum()
    scale = math.sqrt(sigma2 / 2.0)

    def partials(rng: np.random.Generator, count: int) -> tuple[float, float]:
        idx = rng.choice(points.size, size=count, p=p)
        y_re = points.real[idx] + rng.standard_normal(count) * scale
        y_im = points.imag[idx] + rng.standard_normal(count) * scale
        ll = np.empty((points.size, count))
        for row, x in zip(ll, points):
            np.add((x.real - y_re) ** 2, (x.imag - y_im) ** 2, out=row)
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
        return float(r.sum()), float((r * r).sum())

    total = 0.0
    total_sq = 0.0
    for s, sq in map_chunks(partials, cfg.seed, cfg.mc_trials, AIR_CHUNK, 1):
        total += s
        total_sq += sq
    mean = total / cfg.mc_trials
    var = max(total_sq / cfg.mc_trials - mean * mean, 0.0)
    return AirEstimate(rate=mean, std_error=math.sqrt(var / cfg.mc_trials))


def sigma2_from_snr_db(snr_db: float) -> float:
    """Noise variance for a given SNR in dB under unit signal power."""
    return 10.0 ** (-snr_db / 10.0)


def air_vs_c0(
    base: Constellation,
    c0_grid,
    cfg: AirConfig,
    *,
    threads: int = 1,
) -> list[dict]:
    """Shape the base constellation for each target, then estimate its rate.

    Returns one row per c0 with keys ``c0, rate, std_error, gap,
    entropy_bits``.  Each grid point uses an independent child seed so the
    rows do not depend on evaluation order.
    """
    grid = np.asarray(c0_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("c0_grid must be a non-empty 1-D list")
    seeds = np.random.SeedSequence(cfg.seed).spawn(grid.size)

    def run(i: int) -> dict:
        sol = solve_pcs(PcsProblem(base.amplitudes, grid[i]))
        shaped = base.with_probs(sol.probs)
        est = air_mc(shaped, AirConfig(cfg.noise_variance, cfg.mc_trials, seeds[i]))
        return {
            "c0": float(grid[i]),
            "rate": est.rate,
            "std_error": est.std_error,
            "gap": sol.gap,
            "entropy_bits": sol.tie_break_entropy,
        }

    return map_ordered(run, range(grid.size), threads)


def air_vs_snr(
    constellations: list[tuple[str, Constellation]],
    snr_grid_db,
    cfg: AirConfig,
    *,
    threads: int = 1,
) -> list[dict]:
    """Rate series over an SNR grid, one column per named constellation."""
    grid = np.asarray(snr_grid_db, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("snr_grid_db must be a non-empty 1-D list")
    if not constellations:
        raise ValueError("constellations is empty: need at least one named constellation")
    seeds = np.random.SeedSequence(cfg.seed).spawn(grid.size * len(constellations))

    def run(k: int) -> tuple:
        i, j = divmod(k, len(constellations))
        est = air_mc(
            constellations[j][1],
            AirConfig(sigma2_from_snr_db(grid[i]), cfg.mc_trials, seeds[k]),
        )
        return i, constellations[j][0], est

    results = map_ordered(run, range(grid.size * len(constellations)), threads)
    rows = [{"snr_db": float(s)} for s in grid]
    for i, name, est in results:
        rows[i][name] = est.rate
    return rows

