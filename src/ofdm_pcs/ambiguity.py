"""Ambiguity function of a data-modulated OFDM symbol.

One closed form, the self + cross sinc decomposition of the delay-Doppler
correlation with ``sinc(x) = sin(pi x)/(pi x)`` (numpy's convention), built
per delay as one Doppler kernel (:func:`_delay_terms`) whose sinc envelope is
taken once per distinct kernel frequency ``m df - nu``.  Everything else
reads that kernel.  It factors as K = carrier phase . S . nu phase, a real
envelope S between two unit-modulus phases.  :func:`_af_at_delay` applies it
to every draw's lag products.  On a grid of one Doppler :func:`_spectral`
folds both phases into one complex kernel column and takes it to the
spectral domain once per delay: the AF is then one complex product of
the draw's lag-phased spectrum against that spectral kernel, and
:func:`af_closed_form` is the one-point case.  A delay on the lattice
``tau = n / (2L df)`` (every computed delay of the default slice) takes that
spectrum as the draw's one length-2L spectrum shifted circularly by n, with
no FFT; any other delay takes one forward FFT per draw.  On a grid of more
than one Doppler the lag products come from one FFT convolution per draw,
the carrier phase goes onto them, and they take one real product against S
(half the flops of a complex one) and come out as the AF times a
unit-modulus phase per Doppler column.
:func:`mc_average_af` averages the magnitude over random symbol draws on a
delay-Doppler grid, peak-normalized, computing only the tau >= 0 half of a
grid that is exactly its own (-tau, -nu) mirror (as :func:`default_tau_grid`
and :func:`default_nu_grid` are) and copying the other half, since the mean
|AF| is point-symmetric; :func:`af_statistics` takes the self and cross
variances and the mean self magnitude from S in closed form.  The
sinc arguments carry no extra 2*pi factor anywhere; the tests pin that down
by quadrature.
"""

from __future__ import annotations

import numpy as np

from .constellation import Constellation
from .mc import map_ordered
from .ofdm import OfdmConfig

# Draws per chunk of the Monte-Carlo AF: each delay row sums its chunk
# partials in chunk order, so this fixes the order of the sums.
AF_CHUNK = 64

# A one-Doppler delay lies on the lattice tau = n / (2L df) when x = 2L df tau
# is within this many ulps of 2L of the integer n.  The default grids miss by
# at most one ulp; snapping moves each lag phase by at most pi |x - n|.
LATTICE_ULPS = 4


def _centred_grid(name: str, width: float, points: int) -> np.ndarray:
    """``points`` evenly spaced values on [-width, width], exactly antisymmetric
    (``g == -g[::-1]`` bit for bit) so :func:`mc_average_af` can mirror them;
    a one-point grid is ``[0.0]``."""
    if points < 1:
        raise ValueError(f"{name} needs at least one point, got {points}")
    g = np.linspace(-width, width, points)
    return 0.5 * (g - g[::-1])


def default_tau_grid(cfg: OfdmConfig, points: int = 257) -> np.ndarray:
    return _centred_grid("tau_grid", cfg.symbol_duration, points)


def default_nu_grid(cfg: OfdmConfig, points: int = 257) -> np.ndarray:
    return _centred_grid("nu_grid", cfg.bandwidth / 2.0, points)


def _doppler_offsets(cfg: OfdmConfig, nu_grid: np.ndarray):
    """Carrier offsets ``m df`` of the Doppler kernel's rows, and the kernel
    frequencies ``f = m df - nu`` as their distinct values ``u`` with each
    (2L-1) x n_nu cell's index into ``u``.

    None of them depends on the delay.  On the default grids ``m df`` and
    ``nu`` are integers in Hz, so ``f`` holds far fewer distinct values than
    cells (761 of 32,639 at 64 subcarriers and 257 Dopplers); off such a
    lattice every cell may be its own value.
    """
    num = cfg.num_subcarriers
    carrier = np.arange(-(num - 1), num) * cfg.subcarrier_spacing
    u, inv = np.unique(carrier[:, None] - nu_grid[None, :], return_inverse=True)
    return carrier, u, inv.reshape(carrier.size, nu_grid.size)


def _delay_terms(cfg: OfdmConfig, tau: float, offsets, out=None):
    """Per-delay factors of the closed form, or None outside the window
    ``[max(0, tau), min(T_p, T_p + tau)]`` where the symbol and its delayed
    copy overlap (of middle t_avg and length T_diff; empty unless |tau| < T_p).

    The (2L-1) x n_nu Doppler kernel ``T_diff sinc(f T_diff) exp(j 2 pi f
    t_avg)``, with ``f = m df - nu`` from ``offsets = _doppler_offsets(cfg,
    nu_grid)``, factors as ``K = exp(j 2 pi m df t_avg) S exp(-j 2 pi nu
    t_avg)``: a carrier phase per row, the real envelope ``S = T_diff
    sinc(f T_diff)`` and a nu phase per column.  S is evaluated once per
    distinct ``f`` and gathered onto the cells, into ``out`` (a real
    (2L-1) x n_nu buffer) when given.

    Returns ``(lag_phase, carrier_phase, S, t_avg)`` with the lag phase
    ``exp(j 2 pi l df tau)`` (length L) and the carrier phase (length 2L-1).
    On a grid of more than one Doppler, :func:`_af_at_delay` folds the
    carrier phase into the draws' lag products and leaves the nu phase, of
    modulus one, out; on one Doppler :func:`_spectral` folds both phases
    into K.  :func:`af_statistics` reads S alone, since only ``|K|^2 = S^2``
    enters it.  A delay thus costs L + 2L-1 complex exponentials and one
    sinc per distinct frequency, plus the gather.
    """
    t_min = max(0.0, float(tau))
    t_max = min(cfg.symbol_duration, cfg.symbol_duration + float(tau))
    t_diff = t_max - t_min
    if not t_diff > 0.0:
        return None
    t_avg = 0.5 * (t_max + t_min)
    carrier, u, inv = offsets
    l = np.arange(cfg.num_subcarriers)
    lag_phase = np.exp(2j * np.pi * l * cfg.subcarrier_spacing * tau)
    carrier_phase = np.exp(2j * np.pi * carrier * t_avg)
    return lag_phase, carrier_phase, np.take(t_diff * np.sinc(u * t_diff), inv, out=out), t_avg


def _spectral(cfg: OfdmConfig, tau: float, nu_grid: np.ndarray, terms):
    """The terms ``(lag_phase, carrier_phase, S, t_avg)`` of
    :func:`_delay_terms` at delay ``tau`` on the one-Doppler ``nu_grid``, as
    :func:`_af_at_delay` takes them on that grid, ``((shift, phase), None,
    H)``.  Neither part depends on the draws, so both are built once per
    delay.

    H is the spectral kernel: the length-2L inverse FFT of the complex
    kernel column K, the carrier phase times S times the nu phase ``exp(-j 2
    pi nu t_avg)`` (rows m = 1-L .. L-1), in FFT order (row m at index m mod
    2L, a zero at L).  That order is K's zero-padded column shifted
    circularly by L-1, so H is ``ifft(K, n=2L)`` times ``exp(-j 2 pi k (L-1)
    / 2L)`` with the phase placed exactly, not evaluated.

    The lag says where a draw's lag-phased spectrum ``G = fft(c
    conj(lag_phase), n=2L)`` comes from.  With ``x = 2L df tau``, ``G_k =
    sum_l c_l exp(-j 2 pi l (k + x) / 2L)`` is the draw's spectrum ``S =
    fft(c, n=2L)`` read at ``k + x``.  On the lattice, x within ``LATTICE_ULPS`` ulps of 2L (the
    largest |x| inside the window) of an integer n, ``G_k = S_{(k + n) mod
    2L}`` and the lag is ``(n, None)``; otherwise it is ``(0, lag_phase)``
    and G is the FFT of the lag-phased draw.
    """
    lag_phase, carrier_phase, envelope, t_avg = terms
    kernel = np.multiply.outer(carrier_phase, np.exp(-2j * np.pi * nu_grid * t_avg))
    np.multiply(kernel, envelope, out=kernel)
    num = cfg.num_subcarriers
    rotated = np.zeros((2 * num, kernel.shape[1]), complex)
    rotated[:num] = kernel[num - 1 :]
    rotated[num + 1 :] = kernel[: num - 1]
    x = 2 * num * cfg.subcarrier_spacing * float(tau)
    shift = round(x)
    on_lattice = abs(x - shift) <= LATTICE_ULPS * np.spacing(2.0 * num)
    lag = (shift, None) if on_lattice else (0, lag_phase)
    return lag, None, np.fft.ifft(rotated, axis=0)


def _af_at_delay(
    symbols: np.ndarray,
    spectrum: np.ndarray,
    lag,
    carrier_phase: np.ndarray | None,
    kernel: np.ndarray,
    work: np.ndarray | None = None,
):
    """AF values for a batch of symbol vectors at one delay, all Dopplers,
    as a draws x n_nu array.

    Groups the closed-form double sum by subcarrier offset m = l1 - l2: the
    lag products ``B_m = sum_l c_{l+m} conj(c_l) exp(j 2 pi l df tau)`` are
    the circular correlation, at length 2L, of the symbols with their
    lag-phased copy, and the delay's factors finish the job.  ``spectrum``
    is the length-2L FFT S of ``symbols``, which does not depend on the
    delay.

    The path follows the grid's size.  On one Doppler (``carrier_phase``
    None) ``lag`` and ``kernel`` are the ``(shift, phase)`` and the spectral
    kernel H of :func:`_spectral`, and by
    Parseval the AF is ``sum_k conj(G_k) S_k H_k`` with ``G_k = F_{(k +
    shift) mod 2L}``, F being S itself on the lattice (``phase`` None) and
    ``fft(symbols conj(phase), n=2L)`` otherwise: one circular shift, or one
    forward FFT, per draw, then one complex product, giving the AF itself
    (:func:`af_closed_form`).  G is taken into ``work`` (a 1-D complex
    buffer of at least 2L draws elements) when given.  Otherwise ``lag``,
    ``carrier_phase`` and ``kernel`` are the lag phase, the carrier phase and
    S of :func:`_delay_terms`, the lag products are taken from one FFT
    convolution per draw, multiplied by the carrier phase, and the real
    envelope S finishes them in one real product, half the flops of a
    complex one, so the values are the AF times the unit-modulus phase
    ``exp(j 2 pi nu t_avg)`` of each Doppler column: their magnitudes are
    exact, which is all :func:`mc_average_af` reads.  That product reads the
    lag products as a (2L-1) x draws block, written into ``work`` when
    given.
    """
    num = symbols.shape[1]
    if carrier_phase is None:
        shift, phase = lag
        source = spectrum if phase is None else np.fft.fft(symbols * phase.conj(), n=2 * num, axis=1)
        out = None if work is None else work[: source.size].reshape(source.shape)
        spec = np.take(source, np.arange(shift, shift + 2 * num), axis=1, mode="wrap", out=out)
        np.conjugate(spec, out=spec)
        np.multiply(spec, spectrum, out=spec)
        return spec @ kernel
    # One (chunk, 2L) buffer, reused in place: the spectra held for every draw
    # already raise the peak memory, so a call adds no further large
    # temporary when ``work`` is given.  A fresh block per call would have
    # the allocator return and re-map its pages on every call.
    conv = np.fft.fft((symbols.conj() * lag)[:, ::-1], n=2 * num, axis=1)
    np.multiply(spectrum, conv, out=conv)
    np.fft.ifft(conv, axis=1, out=conv)
    lags = conv[:, : 2 * num - 1]
    # A C-contiguous block, so its float view holds each draw's real and
    # imaginary parts as two adjacent columns for S to take.  Transposing by
    # assignment and then multiplying in place keeps numpy from staging the
    # mixed-layout product through its own per-call ufunc buffers.
    if work is None:
        work = np.empty(lags.size, complex)
    block = work[: lags.size].reshape(lags.shape[::-1])
    block[...] = lags.T
    np.multiply(block, carrier_phase[:, None], out=block)
    return (kernel.T @ block.view(float)).view(complex).T


def af_closed_form(cfg: OfdmConfig, symbols, tau: float, nu: float):
    """Closed-form ambiguity function at one point: the one-Doppler case of
    :func:`_af_at_delay`, the lag-phased spectrum of each row (a circular
    shift of its FFT on the delay lattice, an FFT of the lag-phased row off
    it) against the delay's spectral kernel (:func:`_spectral`), and zero
    outside the window.  ``symbols`` may carry leading batch dimensions, in
    which case a matching array of values is returned; one symbol vector
    gives a complex."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    num = cfg.num_subcarriers
    if symbols.shape[-1] != num:
        raise ValueError(f"expected {num} symbols, got shape {symbols.shape}")
    rows = symbols.reshape(-1, num)
    nu_grid = np.array([float(nu)])
    terms = _delay_terms(cfg, tau, _doppler_offsets(cfg, nu_grid))
    out = np.zeros(rows.shape[0], complex)
    if terms is not None:
        spectrum = np.fft.fft(rows, n=2 * num, axis=1)
        out = _af_at_delay(rows, spectrum, *_spectral(cfg, tau, nu_grid, terms))[:, 0]
    out = out.reshape(symbols.shape[:-1])
    return complex(out) if out.ndim == 0 else out


def mc_average_af(
    cfg: OfdmConfig,
    constellation: Constellation,
    tau_grid,
    nu_grid,
    trials: int,
    seed,
    *,
    threads: int = 1,
) -> np.ndarray:
    """Average |AF| over random symbol draws as a peak-normalized (tau, nu)
    array; some delay must lie in ``|tau| < T_p``, outside which the AF is 0.

    Unlike the pd and AIR loops, all symbols are drawn up front from the
    seeded generator, so memory is O(trials): every delay row reuses its
    Doppler kernel across all draws, and drawing per chunk would mean
    rebuilding each row's kernel once per chunk.  The draws are split into
    chunks of ``AF_CHUNK``, whose FFT spectra are taken once, and the
    distinct kernel frequencies are found once (:func:`_doppler_offsets`).
    Each delay row builds its kernel once, into one buffer per worker (on
    one Doppler, and then its spectral kernel and lattice shift), applies it
    to every chunk and adds the chunk partial sums in chunk order.  On one
    Doppler a delay on the lattice ``tau = n / (2L df)``, as every computed
    delay of the default slice is, costs each chunk a circular shift of its
    spectra and no FFT.  Worker threads split the delay rows between them
    and never change a row's arithmetic, so the result does not depend on
    ``threads``.

    Every draw has ``AF(tau, nu) = exp(-j 2 pi nu tau) conj(AF(-tau, -nu))``,
    so the mean |AF| is point-symmetric.  When both grids are exactly their
    own negatives reversed (``g == -g[::-1]`` bit for bit, as the default
    grids are), only the rows from the middle up (``tau >= 0``) are computed
    and the rest are copied as ``total[i, j] = total[-1 - i, -1 - j]`` before
    the division by ``trials`` and the peak normalization.  On any other
    grid every row is computed.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    tau_grid = np.asarray(tau_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    if tau_grid.size == 0:
        raise ValueError("tau_grid is empty: need at least one delay point")
    if nu_grid.size == 0:
        raise ValueError("nu_grid is empty: need at least one Doppler point")
    if not np.any(np.abs(tau_grid) < cfg.symbol_duration):
        raise ValueError("tau_grid has no delay inside |tau| < T_p, where the AF is nonzero")
    num = cfg.num_subcarriers
    symbols = constellation.sample_symbols(trials * num, seed).reshape(trials, num)
    chunks = [symbols[s : s + AF_CHUNK] for s in range(0, trials, AF_CHUNK)]
    spectra = [np.fft.fft(chunk, n=2 * num, axis=1) for chunk in chunks]
    total = np.zeros((tau_grid.size, nu_grid.size))
    offsets = _doppler_offsets(cfg, nu_grid)

    def fill(rows):
        envelope = np.empty((2 * num - 1, nu_grid.size))
        work = np.empty(2 * num * AF_CHUNK, complex)
        for ti in rows:
            terms = _delay_terms(cfg, tau_grid[ti], offsets, envelope)
            if terms is not None:
                terms = _spectral(cfg, tau_grid[ti], nu_grid, terms) if nu_grid.size == 1 else terms[:3]
                for chunk, spectrum in zip(chunks, spectra):
                    af = _af_at_delay(chunk, spectrum, *terms, work)
                    total[ti] += np.abs(af).sum(axis=0)

    symmetric = np.array_equal(tau_grid, -tau_grid[::-1]) and np.array_equal(nu_grid, -nu_grid[::-1])
    half = tau_grid.size // 2 if symmetric else 0
    # One contiguous block of rows per worker; a row is written by one thread only.
    computed = np.arange(half, tau_grid.size)
    map_ordered(fill, np.array_split(computed, min(max(threads, 1), computed.size)), threads)
    total[:half] = total[::-1][:half, ::-1]
    total /= trials
    peak = total.max()
    if peak > 0:
        total = total / peak
    return total


def af_statistics(cfg: OfdmConfig, constellation: Constellation, tau_grid, nu: float) -> np.ndarray:
    """Closed-form AF statistics over random symbols at one Doppler ``nu``:
    rows self variance, cross variance and mean self magnitude over
    ``tau_grid``, all from the delay's Doppler kernel ``K_m`` (row m = l1 - l2)
    of :func:`_delay_terms`, and zero outside ``|tau| < T_p``.  Only its
    magnitude enters, ``|K_m| = |S_m|``, so they read the real envelope S.

    * self variance ``L (E[A^4] - 1) |K_0|^2``, zero at constant modulus;
    * cross variance ``sum_{m != 0} (L - |m|) |K_m|^2``, with L - |m| index
      pairs at offset m; unit power makes each pair's amplitude factor one;
    * mean self magnitude ``|sum_l exp(j 2 pi l df tau)| |K_0|``, a Dirichlet
      envelope (E[A^2] = 1).  The cross part has zero mean.
    """
    num = cfg.num_subcarriers
    nu_grid = np.array([float(nu)])
    offsets = _doppler_offsets(cfg, nu_grid)
    pairs = num - np.abs(np.arange(1 - num, num))
    pairs[num - 1] = 0
    excess = constellation.moment(4) - 1.0
    stats = np.zeros((3, len(tau_grid)))
    for i, tau in enumerate(tau_grid):
        terms = _delay_terms(cfg, tau, offsets)
        if terms is not None:
            lag_phase, _, envelope, _ = terms
            power = envelope[:, 0] ** 2
            s0 = abs(envelope[num - 1, 0])
            stats[:, i] = power[num - 1] * num * excess, pairs @ power, s0 * abs(lag_phase.sum())
    return stats


def magnitude_db(values) -> np.ndarray:
    """20 log10 of a normalized magnitude, floored at -80 dB for CSV output."""
    return 20.0 * np.log10(np.maximum(np.asarray(values, dtype=float), 1e-4))
