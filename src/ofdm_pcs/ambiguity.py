"""Ambiguity function of a data-modulated OFDM symbol.

One closed form, the self + cross sinc decomposition of the delay-Doppler
correlation with ``sinc(x) = sin(pi x)/(pi x)`` (numpy's convention), and one
evaluation of it: per delay, every draw's lag products from one FFT
convolution, then the delay's Doppler kernel.  :func:`af_closed_form` is its
one-point case; :func:`mc_average_af` averages its magnitude over random
symbol draws on a delay-Doppler grid, peak-normalized.  Closed-form variances
of the self and cross parts are provided alongside.  The sinc arguments carry
no extra 2*pi factor anywhere; the tests pin that down by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .mc import map_ordered
from .ofdm import OfdmConfig

# Draws per chunk of the Monte-Carlo AF: each delay row sums its chunk
# partials in chunk order, so this fixes the order of the sums.
AF_CHUNK = 64


@dataclass(frozen=True)
class DelayGeometry:
    """Integration window of the correlation integral at delay ``tau``.

    For ``|tau| <= T_p`` the transmitted and delayed windows overlap on
    ``[t_min, t_max]`` with ``t_min = max(0, tau)``, ``t_max = min(T_p,
    T_p + tau)``; outside that range the ambiguity function is zero.
    """

    t_min: float
    t_max: float

    @classmethod
    def for_delay(cls, tau: float, symbol_duration: float) -> "DelayGeometry":
        return cls(
            t_min=max(0.0, float(tau)),
            t_max=min(symbol_duration, symbol_duration + float(tau)),
        )

    @property
    def t_avg(self) -> float:
        return 0.5 * (self.t_max + self.t_min)

    @property
    def t_diff(self) -> float:
        return self.t_max - self.t_min

    @property
    def overlaps(self) -> bool:
        return self.t_diff > 0.0


@dataclass
class AmbiguitySurface:
    """Values on a (tau, nu) grid with normalization metadata."""

    tau_grid: np.ndarray
    nu_grid: np.ndarray
    values: np.ndarray
    normalization: str = "none"


def default_tau_grid(cfg: OfdmConfig, points: int = 257) -> np.ndarray:
    return np.linspace(-cfg.symbol_duration, cfg.symbol_duration, points)


def default_nu_grid(cfg: OfdmConfig, points: int = 257) -> np.ndarray:
    half = cfg.bandwidth / 2.0
    return np.linspace(-half, half, points)


def _delay_terms(cfg: OfdmConfig, tau: float, nu_grid: np.ndarray):
    """Per-delay factors of the closed form, or None outside the window.

    Returns the lag phase ``exp(j 2 pi l df tau)`` (length L) and the
    (2L-1) x n_nu Doppler kernel ``T_diff sinc(f T_diff) exp(j 2 pi f t_avg)``
    with ``f = m df - nu``.  The kernel phase is built as the outer product
    ``exp(j 2 pi m df t_avg) exp(-j 2 pi nu t_avg)``, so a delay costs
    2L-1+n_nu complex exponentials instead of (2L-1) n_nu.
    """
    geom = DelayGeometry.for_delay(tau, cfg.symbol_duration)
    if not geom.overlaps:
        return None
    num = cfg.num_subcarriers
    df = cfg.subcarrier_spacing
    l = np.arange(num)
    lag_phase = np.exp(2j * np.pi * l * df * tau)
    m = np.arange(-(num - 1), num)
    f = m[:, None] * df - nu_grid[None, :]
    phase = np.outer(
        np.exp(2j * np.pi * (m * df) * geom.t_avg),
        np.exp(-2j * np.pi * nu_grid * geom.t_avg),
    )
    return lag_phase, geom.t_diff * np.sinc(f * geom.t_diff) * phase


def _af_at_delay(
    symbols: np.ndarray, spectrum: np.ndarray, lag_phase: np.ndarray, kernel: np.ndarray
):
    """AF values for a batch of symbol vectors at one delay, all Dopplers.

    Groups the closed-form double sum by subcarrier offset m = l1 - l2: the
    lag products ``B_m = sum_l c_{l+m} conj(c_l) exp(j 2 pi l df tau)`` come
    from one FFT convolution per draw, then the delay's Doppler kernel from
    :func:`_delay_terms` finishes the job.  ``spectrum`` is the length-2L FFT
    of ``symbols``, which does not depend on the delay.  With a one-column
    kernel this is :func:`af_closed_form`.
    """
    num = symbols.shape[1]
    lagged = symbols.conj() * lag_phase
    # One (chunk, 2L) buffer, reused in place: the spectra held for every draw
    # already raise the peak memory, so a call adds no further temporaries.
    conv = np.fft.fft(lagged[:, ::-1], n=2 * num, axis=1)
    np.multiply(spectrum, conv, out=conv)
    np.fft.ifft(conv, axis=1, out=conv)
    return conv[:, : 2 * num - 1] @ kernel


def _at_point(cfg: OfdmConfig, symbols, tau: float, nu: float, evaluate):
    """Front end of the point forms: checks the symbol length and applies
    ``evaluate(rows, lag_phase, kernel)`` to the rows at the one Doppler
    ``nu`` (zeros outside the window); one symbol vector gives a complex."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    num = cfg.num_subcarriers
    if symbols.shape[-1] != num:
        raise ValueError(f"expected {num} symbols, got shape {symbols.shape}")
    rows = symbols.reshape(-1, num)
    terms = _delay_terms(cfg, tau, np.array([float(nu)]))
    out = np.zeros(rows.shape[0], complex) if terms is None else evaluate(rows, *terms)
    out = out.reshape(symbols.shape[:-1])
    return complex(out) if out.ndim == 0 else out


def af_closed_form(cfg: OfdmConfig, symbols, tau: float, nu: float):
    """Closed-form ambiguity function at one point: the one-Doppler case of
    :func:`_af_at_delay`.  ``symbols`` may carry leading batch dimensions, in
    which case a matching array of values is returned."""

    def evaluate(rows, lag_phase, kernel):
        spectrum = np.fft.fft(rows, n=2 * cfg.num_subcarriers, axis=1)
        return _af_at_delay(rows, spectrum, lag_phase, kernel)[:, 0]

    return _at_point(cfg, symbols, tau, nu, evaluate)


def af_self_closed_form(cfg: OfdmConfig, symbols, tau: float, nu: float):
    """Self part only: the L equal-index components of the closed form,
    ``sum_l |c_l|^2 exp(j 2 pi l df tau)`` times the m = 0 row of the
    delay's Doppler kernel."""

    def evaluate(rows, lag_phase, kernel):
        return (np.abs(rows) ** 2 @ lag_phase) * kernel[cfg.num_subcarriers - 1, 0]

    return _at_point(cfg, symbols, tau, nu, evaluate)


def mc_average_af(
    cfg: OfdmConfig,
    constellation: Constellation,
    tau_grid,
    nu_grid,
    trials: int,
    seed,
    *,
    threads: int = 1,
) -> AmbiguitySurface:
    """Average |AF| over random symbol draws, then peak-normalize.

    Unlike the pd and AIR loops, all symbols are drawn up front from the
    seeded generator, so memory is O(trials): every delay row reuses its
    Doppler kernel across all draws, and drawing per chunk would mean
    rebuilding each row's kernel once per chunk.  The draws are split into
    chunks of ``AF_CHUNK``, whose FFT spectra are taken once; each delay row
    builds its kernel once, applies it to every chunk and adds the chunk
    partial sums in chunk order.  Worker threads split the delay rows
    between them and never change a row's arithmetic, so the result does
    not depend on ``threads``.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    tau_grid = np.asarray(tau_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    if tau_grid.size == 0:
        raise ValueError("tau_grid is empty: need at least one delay point")
    if nu_grid.size == 0:
        raise ValueError("nu_grid is empty: need at least one Doppler point")
    num = cfg.num_subcarriers
    symbols = constellation.sample_symbols(trials * num, seed).reshape(trials, num)
    chunks = [symbols[s : s + AF_CHUNK] for s in range(0, trials, AF_CHUNK)]
    spectra = [np.fft.fft(chunk, n=2 * num, axis=1) for chunk in chunks]
    total = np.zeros((tau_grid.size, nu_grid.size))

    def fill(rows):
        for ti in rows:
            terms = _delay_terms(cfg, tau_grid[ti], nu_grid)
            if terms is not None:
                for chunk, spectrum in zip(chunks, spectra):
                    total[ti] += np.abs(_af_at_delay(chunk, spectrum, *terms)).sum(axis=0)

    # One contiguous block of rows per worker; a row is written by one thread only.
    blocks = np.array_split(np.arange(tau_grid.size), min(max(threads, 1), tau_grid.size))
    map_ordered(fill, blocks, threads)
    total /= trials
    peak = total.max()
    if peak > 0:
        total = total / peak
    return AmbiguitySurface(
        tau_grid=tau_grid, nu_grid=nu_grid, values=total, normalization="peak"
    )


def variance_self_closed(cfg: OfdmConfig, constellation: Constellation, tau: float, nu: float) -> float:
    """Closed-form variance of the self part at one delay-Doppler point.

    ``T_diff^2 sinc^2(nu T_diff) L (E[A^4] - 1)``: proportional to the excess
    of the constellation's fourth amplitude moment over its unit-power floor,
    and identically zero for constant-modulus constellations.
    """
    geom = DelayGeometry.for_delay(tau, cfg.symbol_duration)
    if not geom.overlaps:
        return 0.0
    excess = constellation.moment(4) - 1.0
    return float(
        geom.t_diff**2 * np.sinc(-nu * geom.t_diff) ** 2 * cfg.num_subcarriers * excess
    )


def variance_cross_closed(cfg: OfdmConfig, tau: float, nu: float) -> float:
    """Closed-form variance of the cross part; constellation-independent.

    ``T_diff^2 sum_{m != 0} (L - |m|) sinc^2((m df - nu) T_diff)`` where the
    (L - |m|) factor counts ordered index pairs at subcarrier offset m.  Unit
    average power makes every pair's amplitude factor one, so no constellation
    enters.
    """
    geom = DelayGeometry.for_delay(tau, cfg.symbol_duration)
    if not geom.overlaps:
        return 0.0
    num = cfg.num_subcarriers
    m = np.arange(1, num)
    pairs = num - m
    sincs = (
        np.sinc((m * cfg.subcarrier_spacing - nu) * geom.t_diff) ** 2
        + np.sinc((-m * cfg.subcarrier_spacing - nu) * geom.t_diff) ** 2
    )
    return float(geom.t_diff**2 * (pairs @ sincs))


def mean_af_components(cfg: OfdmConfig, tau_grid):
    """Analytic zero-Doppler slices of the two AF parts.

    Returns ``(self_slice, cross_slice)``: the magnitude of the expected self
    part (a Dirichlet kernel envelope, independent of the constellation since
    E[A^2] = 1) and, because the cross part has zero mean, its RMS level
    ``sqrt(var_cross)`` as the comparable summary.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size == 0:
        raise ValueError("tau_grid is empty: need at least one delay point")
    l = np.arange(cfg.num_subcarriers)
    self_slice = np.empty(tau_grid.size)
    cross_slice = np.empty(tau_grid.size)
    for i, tau in enumerate(tau_grid):
        geom = DelayGeometry.for_delay(tau, cfg.symbol_duration)
        if not geom.overlaps:
            self_slice[i] = 0.0
            cross_slice[i] = 0.0
            continue
        dirichlet = np.exp(2j * np.pi * l * cfg.subcarrier_spacing * tau).sum()
        self_slice[i] = geom.t_diff * abs(dirichlet)
        cross_slice[i] = math.sqrt(variance_cross_closed(cfg, tau, 0.0))
    return self_slice, cross_slice


def magnitude_db(values, floor_db: float = -80.0) -> np.ndarray:
    """20 log10 of a normalized magnitude, floored for plotting/CSV output."""
    values = np.asarray(values, dtype=float)
    floor = 10.0 ** (floor_db / 20.0)
    return 20.0 * np.log10(np.maximum(values, floor))
