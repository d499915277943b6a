"""Ambiguity function of a data-modulated OFDM symbol, three ways.

* closed form: the self + cross sinc decomposition of the delay-Doppler
  correlation, with ``sinc(x) = sin(pi x)/(pi x)`` (numpy's convention);
* numeric: high-order Gauss-Legendre quadrature of the defining correlation
  integral, used as an independent oracle for the closed form;
* Monte-Carlo: magnitude of the closed form averaged over random symbol
  draws on a delay-Doppler grid, peak-normalized.

Closed-form variance formulas for the self and cross parts are provided
alongside.  The sinc arguments carry no extra 2*pi factor anywhere; the
numeric oracle pins that convention down empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constellation import Constellation
from .mc import map_ordered
from .ofdm import OfdmConfig, SampledSignal

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

    tau: float
    t_min: float
    t_max: float

    @classmethod
    def for_delay(cls, tau: float, symbol_duration: float) -> "DelayGeometry":
        return cls(
            tau=float(tau),
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


def _closed_form_point(cfg: OfdmConfig, symbols, tau: float, evaluate):
    """Shared front end of the point-wise closed forms.

    Checks the symbol length, returns zeros (shaped like the batch) when the
    delay leaves no overlap, and otherwise ``evaluate(symbols, geom)``; a
    single symbol vector gives a Python complex.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.shape[-1] != cfg.num_subcarriers:
        raise ValueError(f"expected {cfg.num_subcarriers} symbols, got shape {symbols.shape}")
    geom = DelayGeometry.for_delay(tau, cfg.symbol_duration)
    if geom.overlaps:
        out = evaluate(symbols, geom)
    else:
        out = np.zeros(symbols.shape[:-1], dtype=np.complex128)
    return complex(out) if np.ndim(out) == 0 else out


def af_closed_form(cfg: OfdmConfig, symbols, tau: float, nu: float):
    """Closed-form ambiguity function of one symbol vector at one point.

    Sums the L self components (equal subcarrier indices) and L(L-1) cross
    components.  ``symbols`` may carry leading batch dimensions, in which
    case a matching array of values is returned.
    """

    def evaluate(symbols, geom):
        df = cfg.subcarrier_spacing
        l = np.arange(cfg.num_subcarriers)
        f = (l[:, None] - l[None, :]) * df - nu
        kernel = (
            geom.t_diff
            * np.sinc(f * geom.t_diff)
            * np.exp(2j * np.pi * (f * geom.t_avg + l[None, :] * df * tau))
        )
        return np.einsum("...i,ij,...j->...", symbols, kernel, symbols.conj())

    return _closed_form_point(cfg, symbols, tau, evaluate)


def af_self_closed_form(cfg: OfdmConfig, symbols, tau: float, nu: float):
    """Self part only: the L equal-index components of the closed form."""

    def evaluate(symbols, geom):
        l = np.arange(cfg.num_subcarriers)
        phase = np.exp(2j * np.pi * (-nu * geom.t_avg + l * cfg.subcarrier_spacing * tau))
        return (np.abs(symbols) ** 2) @ phase * geom.t_diff * np.sinc(-nu * geom.t_diff)

    return _closed_form_point(cfg, symbols, tau, evaluate)


@lru_cache(maxsize=8)
def _leggauss(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def af_numeric(
    signal: SampledSignal,
    tau: float,
    nu: float,
    *,
    nodes_per_panel: int = 16,
    cycles_per_panel: float = 2.0,
):
    """Numerical evaluation of the defining correlation integral.

    Reconstructs the continuous signal from its samples (exact: the symbol is
    a finite Fourier series with L harmonics, and N >= L samples determine
    the coefficients via the DFT), then integrates
    ``s(t) s*(t - tau) exp(-j 2 pi nu t)`` over the overlap window with
    composite Gauss-Legendre panels sized to the integrand's bandwidth.
    Independent of the sinc decomposition, so it serves as its oracle.
    Any ``tau`` is accepted, not only sample multiples.
    """
    cfg = signal.config
    t_p = cfg.symbol_duration
    df = cfg.subcarrier_spacing
    num = cfg.num_subcarriers
    geom = DelayGeometry.for_delay(tau, t_p)
    if not geom.overlaps:
        return complex(0.0)
    coeffs = np.fft.fft(signal.samples)[:num] / signal.samples.size
    f_max = (num - 1) * df + abs(nu)
    panels = max(1, math.ceil(f_max * geom.t_diff / cycles_per_panel))
    x, w = _leggauss(nodes_per_panel)
    edges = np.linspace(geom.t_min, geom.t_max, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    l = np.arange(num)
    s_t = np.exp(2j * np.pi * df * np.outer(t, l)) @ coeffs
    s_lag = np.exp(2j * np.pi * df * np.outer(t - tau, l)) @ coeffs
    return complex(np.sum(wt * s_t * s_lag.conj() * np.exp(-2j * np.pi * nu * t)))


def _delay_terms(cfg: OfdmConfig, tau: float, nu_grid: np.ndarray):
    """Per-delay factors of the grid closed form, or None outside the window.

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
    of ``symbols``, which does not depend on the delay.  Identical to
    :func:`af_closed_form` up to rounding.
    """
    num = symbols.shape[1]
    lagged = symbols.conj() * lag_phase
    # One (chunk, 2L) buffer, reused in place: the spectra held for every draw
    # already raise the peak memory, so a call adds no further temporaries.
    conv = np.fft.fft(lagged[:, ::-1], n=2 * num, axis=1)
    np.multiply(spectrum, conv, out=conv)
    np.fft.ifft(conv, axis=1, out=conv)
    return conv[:, : 2 * num - 1] @ kernel


def af_closed_form_grid(cfg: OfdmConfig, symbols, tau_grid, nu_grid) -> np.ndarray:
    """Closed-form AF of a batch of symbol vectors on a full grid.

    Returns complex values with shape (trials, n_tau, n_nu).
    """
    symbols = np.atleast_2d(np.asarray(symbols, dtype=np.complex128))
    tau_grid = np.asarray(tau_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    spectrum = np.fft.fft(symbols, n=2 * cfg.num_subcarriers, axis=1)
    out = np.zeros((symbols.shape[0], tau_grid.size, nu_grid.size), dtype=np.complex128)
    for ti, tau in enumerate(tau_grid):
        terms = _delay_terms(cfg, tau, nu_grid)
        if terms is not None:
            out[:, ti, :] = _af_at_delay(symbols, spectrum, *terms)
    return out


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
