"""Ambiguity function of a data-modulated OFDM symbol.

One closed form, the self + cross sinc decomposition of the delay-Doppler
correlation with ``sinc(x) = sin(pi x)/(pi x)`` (numpy's convention), built
per delay as one Doppler kernel (:func:`_delay_terms`, which takes an array
of delays and returns every factor with a leading row axis) whose sinc
envelope is taken once per distinct kernel frequency ``m df - nu``.
Everything else reads that kernel.  It factors as K = carrier phase . S . nu
phase, a real envelope S between two unit-modulus phases, written in units
of T_p, so every AF artifact is scale-free.

One route takes every draw to its lag products ``B_m = sum_l c_{l+m}
conj(c_l) exp(j 2 pi l df tau)`` (:func:`_af_at_delay`).  Each draw's one
length-2L spectrum F is read at the delay's shift to give its lag-phased
spectrum G, and ``P = conj(G) F`` is the spectrum of B.  A delay on the
lattice ``tau = n / (2L df)`` (every computed delay of the default grids)
reads conj(F) shifted circularly by n as the window at n of the doubled
conjugate ``[conj F, conj F]``, in place, with no FFT and no copy; any other
delay takes one forward FFT of the lag-phased draw.  :func:`_delay_terms`
decides which, once per delay, for every grid.  On one Doppler
:func:`_spectral` folds both phases into one complex kernel column and takes
it to the spectral domain, a group of delays in one batched inverse FFT, and
the AF is ``P @ H`` (:func:`af_closed_form` is the one-point case): a block
of rows at consecutive shifts reads its windows as one zero-copy slice, so
one multiply forms the block's P and one stacked product its AF.  On more
than one Doppler the rows go one at a time, a block of one: ``B = ifft(P)``,
the carrier phase goes onto it, and one real product against S (half the
flops of a complex one) gives the AF times a unit-modulus phase per Doppler
column.  :func:`mc_average_af` runs both forms through one loop on the
shared Monte-Carlo engine (:func:`mc.map_chunks`): each piece of draws comes
from its own child seed, takes its chunks' spectra and doubled conjugates
once, and runs the blocks of every computed row, built in groups of bounded
size, over each chunk.  It averages the magnitude over random symbol draws
on a delay-Doppler grid, peak-normalized, computing only the tau >= 0 half of a grid that is exactly
its own (-tau, -nu) mirror (as :func:`default_tau_grid` and
:func:`default_nu_grid` are) and copying the other half, since the mean |AF|
is point-symmetric; :func:`af_statistics` takes the self and cross variances
and the mean self magnitude from S in closed form.  The sinc arguments carry
no extra 2*pi factor anywhere; the tests pin that down by quadrature.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constellation import Constellation
from .mc import map_chunks
from .ofdm import OfdmConfig

# Draws per chunk of the Monte-Carlo AF: within a piece each delay row sums
# its chunk partials in chunk order, so this fixes the order of the sums.
AF_CHUNK = 64

# A delay lies on the lattice tau = n / (2L df) when x = 2L df tau is within
# this many ulps of 2L of the integer n.  The default grids miss by
# at most one ulp; snapping moves each lag phase by at most pi |x - n|.
LATTICE_ULPS = 4

# Draws per piece of the Monte-Carlo AF, a multiple of AF_CHUNK, and the unit
# that threads share.  Piece k draws from child k of the seed, so this defines
# the AF's random stream, as PD_CHUNK and AIR_CHUNK define theirs; only as
# many pieces as there are threads are drawn at once, so memory stays bounded
# whatever the trial count.
AF_DRAWS = 256

# Bytes of per-delay terms (:func:`_delay_terms`) the Monte-Carlo AF builds
# in one vectorized pass.  A row's terms take 3 KB at 64
# subcarriers on one Doppler, so the slice's rows go 20 to a pass, and 270 KB
# on the default 257 Dopplers, so each row of the surface goes alone.  On a
# 2-vCPU host a 1 MB budget, half the default slice or three surface
# rows a pass, ran no measurably faster and raised the peak RSS by 1.5 to 2.5 MB.
KERNEL_BYTES = 1 << 16

# Delay rows whose one-Doppler lag-product spectra are formed in one
# multiply and finished in one stacked product, per chunk.  Each piece's
# product buffer holds this many rows x AF_CHUNK x 2L values (512 KB at 64
# subcarriers); on a 2-vCPU host, at two threads, 8 rows ran no faster than
# 4 with twice the buffer, and 2 rows ran about 10 % slower.
PRODUCT_ROWS = 4


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

    Every Doppler must lie within 2^30 cycles over T_p, where each sinc
    argument pi (m df - nu) T_diff is rounded by less than 1e-6 rad, and keep
    2 pi nu finite.  Every AF entry point takes its offsets here, so each
    refuses such a Doppler before any work.
    """
    limit = min(2.0**30 / cfg.symbol_duration, np.finfo(float).max / (2 * np.pi))
    outside = nu_grid[~(np.abs(nu_grid) <= limit)]
    if outside.size:
        raise ValueError(f"doppler must lie within +-{limit:.6g} Hz, 2^30 cycles over T_p, got {outside[0]}")
    num = cfg.num_subcarriers
    carrier = np.arange(-(num - 1), num) * cfg.subcarrier_spacing
    u, inv = np.unique(carrier[:, None] - nu_grid[None, :], return_inverse=True)
    return carrier, u, inv.reshape(carrier.size, nu_grid.size)


class _DelayTerms(NamedTuple):
    """Per-delay factors of the closed form (:func:`_delay_terms`): ``inside``
    flags each given delay, and every other field has one row per delay
    inside the window, in order."""

    inside: np.ndarray
    shift: np.ndarray
    on_lattice: np.ndarray
    lag_phase: np.ndarray
    carrier_phase: np.ndarray
    envelope: np.ndarray
    t_avg: np.ndarray


def _delay_terms(cfg: OfdmConfig, taus, offsets, work=None) -> _DelayTerms:
    """Per-delay factors of the closed form for a 1-D array of delays, each
    with a leading row axis over the delays inside the window ``[max(0,
    tau), min(T_p, T_p + tau)]`` where the symbol and its delayed copy
    overlap (of middle t_avg and length T_diff; empty unless |tau| < T_p).
    ``inside`` flags those delays among ``taus``.

    The (2L-1) x n_nu Doppler kernel ``(T_diff / T_p) sinc(f T_diff) exp(j 2
    pi f t_avg)``, with ``f = m df - nu`` from ``offsets =
    _doppler_offsets(cfg, nu_grid)``, factors as ``K = exp(j 2 pi m df t_avg)
    S exp(-j 2 pi nu t_avg)``: a carrier phase per row m (``carrier_phase``,
    length 2L-1), the real envelope ``S = (T_diff / T_p) sinc(f T_diff)``
    (``envelope``) and a nu phase per column.  S is the kernel's only
    absolute scale, and it is written in units of T_p, so |S| <= 1 and
    everything built from it is scale-free: the same at every bandwidth
    :class:`OfdmConfig` accepts, with delays and Dopplers scaled alike.  S
    is evaluated once per distinct ``f`` with :func:`numpy.sinc`'s own
    arithmetic and gathered onto the cells.  Given
    ``work``, a 1-D float buffer of at least ``rows x (2 U + (2L-1) n_nu)``
    elements (U distinct frequencies), the sinc and S are written into it, so
    a caller that passes one buffer per piece of draws allocates no large
    temporary per call; the envelope is then a view of ``work``.

    The lag says where a draw's lag-phased spectrum ``G = fft(c exp(-j 2 pi l
    df tau), n=2L)`` comes from.  With ``x = 2L df tau``, ``G_k = sum_l c_l
    exp(-j 2 pi l (k + x) / 2L)`` is the draw's spectrum ``F = fft(c,
    n=2L)`` read at ``k + x``.  On the lattice, x within ``LATTICE_ULPS``
    ulps of 2L (the largest |x| inside the window) of an integer n, ``G_k =
    F_{(k + n) mod 2L}``: ``on_lattice`` is set and ``shift`` holds n (the
    nearest integer to x on every row).  Otherwise ``lag_phase`` holds
    ``exp(j 2 pi l df tau)`` (length L; zero on the lattice rows), and G is
    the FFT of the lag-phased draw.  This is the one place the lattice rule
    lives, for every grid.  A delay thus costs at most L + 2L-1 complex
    exponentials and one sinc per distinct frequency, plus the gather.
    """
    taus = np.asarray(taus, dtype=float)
    t_min = np.maximum(0.0, taus)
    t_max = np.minimum(cfg.symbol_duration, cfg.symbol_duration + taus)
    t_diff = t_max - t_min
    inside = t_diff > 0.0
    t_avg = 0.5 * (t_max + t_min)
    taus, t_diff, t_avg = taus[inside], t_diff[inside], t_avg[inside]
    carrier, u, inv = offsets
    num, df, rows = cfg.num_subcarriers, cfg.subcarrier_spacing, taus.size
    x = 2 * num * df * taus
    shift = np.rint(x)
    on_lattice = np.abs(x - shift) <= LATTICE_ULPS * math.ulp(2.0 * num)
    lag_phase = np.zeros((rows, num), complex)
    if not on_lattice.all():
        lag_phase[~on_lattice] = np.exp(2j * np.pi * np.arange(num) * df * taus[~on_lattice, None])
    carrier_phase = 2j * np.pi * carrier * t_avg[:, None]
    np.exp(carrier_phase, out=carrier_phase)
    if work is None:
        work = np.empty(rows * (2 * u.size + inv.size))
    arg, sinc = work[: 2 * rows * u.size].reshape(2, rows, u.size)
    envelope = work[2 * rows * u.size : rows * (2 * u.size + inv.size)].reshape(rows, *inv.shape)
    np.multiply(u, t_diff[:, None], out=arg)
    np.multiply(np.pi, arg, out=arg)
    arg[arg == 0.0] = np.finfo(float).eps
    np.sin(arg, out=sinc)
    np.divide(sinc, arg, out=sinc)
    np.multiply((t_diff / cfg.symbol_duration)[:, None], sinc, out=sinc)
    # Every index is in range; mode "raise" would stage the gather through a
    # fresh copy of ``envelope``.
    np.take(sinc, inv, axis=1, out=envelope, mode="clip")
    return _DelayTerms(inside, shift, on_lattice, lag_phase, carrier_phase, envelope, t_avg)


def _spectral(nu_grid: np.ndarray, terms: _DelayTerms) -> np.ndarray:
    """The spectral kernels H of a block of delays' terms (:func:`_delay_terms`)
    on the one-Doppler ``nu_grid``, one per row: the length-2L inverse FFT of
    the complex kernel column K, the carrier phase times S times the nu phase
    ``exp(-j 2 pi nu t_avg)`` (rows m = 1-L .. L-1), each row m placed at FFT
    index m mod 2L, where index L stays zero.  They do not depend on the
    draws, so each is built once per delay, every row of a block in one
    batched inverse FFT; a draw's lag-product spectrum P (:func:`_af_at_delay`)
    gives the AF as ``P @ H``.
    """
    carrier_phase, t_avg = terms.carrier_phase, terms.t_avg
    num = (carrier_phase.shape[1] + 1) // 2
    kernel = np.zeros((t_avg.size, 2 * num, nu_grid.size), complex)
    nu_phase = np.exp(-2j * np.pi * nu_grid * t_avg[:, None])[:, None, :]
    kernel[:, np.arange(1 - num, num) % (2 * num)] = carrier_phase[:, :, None] * nu_phase * terms.envelope
    return np.fft.ifft(kernel, axis=1, out=kernel)


def _block_lags(terms: _DelayTerms, rows: slice, width: int):
    """The lags of the block ``rows`` of ``terms`` (:func:`_delay_terms`) as
    :func:`_af_at_delay` reads them: one slice of conjugate-spectrum windows
    when every row lies on the lattice at consecutive shifts mod ``width`` =
    2L, else each row's ``(shift, None)`` on the lattice and ``(0,
    lag_phase)`` off it.  A block that wraps past shift 2L - 1 takes its rows
    one by one."""
    shift, on_lattice = terms.shift[rows].tolist(), terms.on_lattice[rows].tolist()
    if all(on_lattice):
        starts = [int(n) % width for n in shift]
        if starts == list(range(starts[0], starts[0] + len(starts))):
            return slice(starts[0], starts[0] + len(starts))
    return [(int(n), None) if on else (0, phase) for n, on, phase in zip(shift, on_lattice, terms.lag_phase[rows])]


def _af_at_delay(
    symbols: np.ndarray,
    spectrum: tuple[np.ndarray, np.ndarray],
    lags,
    carrier_phase: np.ndarray | None,
    kernel: np.ndarray,
    work: np.ndarray | None = None,
):
    """AF values for a chunk of symbol vectors at a block of delays, all
    Dopplers, as a rows x draws x n_nu array.

    Groups the closed-form double sum by subcarrier offset m = l1 - l2 into
    the lag products ``B_m = sum_l c_{l+m} conj(c_l) exp(j 2 pi l df tau)``,
    and each delay's factors finish the job.  ``spectrum`` is the pair ``(F,
    windows)``: each draw's length-2L FFT F, which does not depend on the
    delay, and the length-2L sliding windows over the draws' doubled
    conjugate spectra ``[conj F, conj F]`` (of at least as many draws), window
    n being conj(F) shifted circularly by n.  ``lags`` is the block's
    :func:`_block_lags`.  On the lattice the lag-phased spectrum is ``G_k =
    F_{(k + shift) mod 2L}``, so conj(G) is window ``shift mod 2L``, read in
    place, and a slice of windows gives every row of the block in one
    multiply; off it G is ``fft(symbols conj(phase), n=2L)``, conjugated
    here.  Either way ``P = conj(G) F`` is the lag products' spectrum, whose
    inverse FFT holds ``B_m`` at index m mod 2L, formed for every row of the
    block into ``work`` (a 1-D complex buffer of at least ``max(rows, 2) x
    draws x 2L`` elements) when given.

    On one Doppler (``carrier_phase`` None) ``kernel`` stacks the rows'
    spectral kernels H of :func:`_spectral`, and by Parseval the AF is ``P @
    H``, one stacked product for the block (:func:`af_closed_form` is the
    one-point case).  On more than one the block is one row, and
    ``carrier_phase`` and ``kernel`` are its carrier phase and S
    (:func:`_delay_terms`): the lag products ``B = ifft(P)`` are multiplied by
    the carrier phase, and the real envelope S finishes them in one real
    product, half the flops of a complex one, so the values are the AF times
    the unit-modulus phase ``exp(j 2 pi nu t_avg)`` of each Doppler column:
    their magnitudes are exact, which is all :func:`mc_average_af` reads.
    """
    spectrum, windows = spectrum
    draws, width = spectrum.shape
    rows = lags.stop - lags.start if isinstance(lags, slice) else len(lags)
    # One buffer per piece of draws, reused in place: a fresh block per call
    # would have the allocator return and re-map its pages on every call.
    if work is None:
        work = np.empty(max(rows, 2) * spectrum.size, complex)
    prod = work[: rows * spectrum.size].reshape(rows, draws, width)
    if isinstance(lags, slice):
        np.multiply(windows[:draws, lags].transpose(1, 0, 2), spectrum, out=prod)
    else:
        for row, (shift, phase) in zip(prod, lags):
            if phase is None:
                np.multiply(windows[:draws, shift % width], spectrum, out=row)
            else:
                np.conjugate(np.fft.fft(symbols * phase.conj(), n=width, axis=1), out=row)
                np.multiply(row, spectrum, out=row)
    if carrier_phase is None:
        return prod @ kernel
    spec, num = prod[0], width // 2
    np.fft.ifft(spec, axis=1, out=spec)
    # A C-contiguous (2L-1) x draws block, so its float view holds each
    # draw's real and imaginary parts as two adjacent columns for S to take.
    # Gathering the rows m = 1-L .. L-1 by assignment and then multiplying in
    # place keeps numpy from staging the mixed-layout product through its own
    # per-call ufunc buffers.
    block = work[spec.size : 2 * spec.size - draws].reshape(width - 1, draws)
    block[: num - 1], block[num - 1 :] = spec[:, num + 1 :].T, spec[:, :num].T
    np.multiply(block, carrier_phase[:, None], out=block)
    return (kernel.T @ block.view(float)).view(complex).T[None]


def _spectrum_windows(symbols: np.ndarray):
    """The pair ``(F, windows)`` that :func:`_af_at_delay` reads for a block of
    draws: each draw's length-2L spectrum F, and the length-2L sliding windows
    over its doubled conjugate ``[conj F, conj F]``, window n being conj(F)
    shifted circularly by n."""
    spectrum = np.fft.fft(symbols, n=2 * symbols.shape[1], axis=1)
    return spectrum, sliding_window_view(np.tile(spectrum.conj(), 2), spectrum.shape[1], axis=1)


def af_closed_form(cfg: OfdmConfig, symbols, tau: float, nu: float):
    """Closed-form ambiguity function at one point: the one-Doppler case of
    :func:`_af_at_delay`, each row's lag-product spectrum (from a window of its
    doubled conjugate FFT on the delay lattice, an FFT of the lag-phased row
    off it) against the delay's spectral kernel (:func:`_spectral`), and zero
    outside the window, times T_p to take the kernel's T_p units back to
    seconds.  ``symbols`` may carry leading batch dimensions, in which case a
    matching array of values is returned; one symbol vector gives a
    complex."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    num = cfg.num_subcarriers
    if symbols.shape[-1] != num:
        raise ValueError(f"expected {num} symbols, got shape {symbols.shape}")
    rows = symbols.reshape(-1, num)
    nu_grid = np.array([float(nu)])
    terms = _delay_terms(cfg, [tau], _doppler_offsets(cfg, nu_grid))
    out = np.zeros(rows.shape[0], complex)
    if terms.inside[0]:
        lags = _block_lags(terms, slice(0, 1), 2 * num)
        out = _af_at_delay(rows, _spectrum_windows(rows), lags, None, _spectral(nu_grid, terms))[0, :, 0]
    out = out.reshape(symbols.shape[:-1]) * cfg.symbol_duration
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

    One loop serves every Doppler grid, and its memory does not grow with
    ``trials``.  The trials run through :func:`mc.map_chunks` in pieces of
    ``AF_DRAWS``, on up to ``threads`` workers: piece k draws its symbols
    from child k of ``SeedSequence(seed)``, splits them into chunks of
    ``AF_CHUNK`` draws, takes each chunk's spectrum F and the windows of its
    doubled conjugate (:func:`_spectrum_windows`) once, and returns its
    per-cell sums of |AF|, which are added in piece order.  So ``AF_DRAWS``
    defines the stream and the order of the sums, and ``threads`` changes
    neither.  The distinct kernel frequencies are found once
    (:func:`_doppler_offsets`).  A delay on the lattice ``tau = n / (2L
    df)``, as every computed delay of the default grids is, reads its
    conjugate spectra as windows and takes no FFT, so the chunks' spectra
    are the only forward FFTs.

    A piece walks the computed delay rows in groups whose terms
    (:func:`_delay_terms`) fit ``KERNEL_BYTES`` and runs every chunk through
    each group's blocks (:func:`_af_at_delay`), each row adding its chunk
    partials in chunk order.  On one Doppler a block is up to
    ``PRODUCT_ROWS`` rows against their spectral kernels H
    (:func:`_spectral`), 2L values a row, built once before the pieces run
    and shared by all of them.  On more a block is one row against its
    carrier phase and envelope S, (2L-1) x n_nu values, which each piece
    builds for itself.

    Every draw has ``AF(tau, nu) = exp(-j 2 pi nu tau) conj(AF(-tau, -nu))``,
    so the mean |AF| is point-symmetric.  When both grids are exactly their
    own negatives reversed (``g == -g[::-1]`` bit for bit, as the default
    grids are), only the rows from the middle up (``tau >= 0``) are computed
    and the rest are copied as ``total[i, j] = total[-1 - i, -1 - j]`` before
    the division by ``trials`` and the peak normalization.  On any other
    grid every row is computed.  The delays may come in any order: the draws
    do not depend on the grid, so a permuted grid permutes the rows, bit for
    bit.
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
    width = 2 * cfg.num_subcarriers
    offsets = _doppler_offsets(cfg, nu_grid)
    terms_size = 2 * offsets[1].size + offsets[2].size
    # Rows per block of _af_at_delay: a stacked product of spectral kernels
    # on one Doppler, one row against its carrier phase and S on more.
    block = PRODUCT_ROWS if nu_grid.size == 1 else 1
    group = max(1, KERNEL_BYTES // (8 * terms_size * block)) * block
    symmetric = np.array_equal(tau_grid, -tau_grid[::-1]) and np.array_equal(nu_grid, -nu_grid[::-1])
    half = tau_grid.size // 2 if symmetric else 0
    computed = np.arange(half, tau_grid.size)
    groups = [computed[s : s + group] for s in range(0, computed.size, group)]

    def build(rows, terms_work=None):
        # One group's blocks, each (its rows of a piece's sums, lags, carrier
        # phase, kernel).  The rows increase, so a block's rows of the sums
        # are a slice where they span no more rows than they number, as on a
        # sorted grid, and an index array otherwise.
        terms = _delay_terms(cfg, tau_grid[rows], offsets, terms_work)
        inside = rows[terms.inside] - half
        cuts = [slice(s, min(s + block, inside.size)) for s in range(0, inside.size, block)]
        if block > 1:
            spectral = _spectral(nu_grid, terms)
            kernels = [(None, spectral[cut]) for cut in cuts]
        else:
            kernels = zip(terms.carrier_phase, terms.envelope)
        targets = [slice(t[0], t[-1] + 1) if t[-1] - t[0] < t.size else t for t in (inside[c] for c in cuts)]
        return [(t, _block_lags(terms, cut, width), *k) for t, cut, k in zip(targets, cuts, kernels)]

    # The spectral kernels H take 2L values a row, so they are built once for
    # every piece; the envelopes S are rebuilt by each piece, group by group.
    kept = [build(rows) for rows in groups] if block > 1 else None

    def piece(rng, count):
        # The piece's product buffer, and its terms buffer, which one group's
        # blocks use up before the next group is built.
        work, terms_work = np.empty(max(block, 2) * AF_CHUNK * width, complex), np.empty(group * terms_size)
        symbols = constellation.sample_symbols(count * cfg.num_subcarriers, rng).reshape(count, -1)
        chunks = [(c, _spectrum_windows(c)) for c in np.split(symbols, range(AF_CHUNK, count, AF_CHUNK))]
        sums = np.zeros((computed.size, nu_grid.size))
        for blocks in kept or (build(rows, terms_work) for rows in groups):
            for chunk, spectrum in chunks:
                for rows, lags, phase, kernel in blocks:
                    sums[rows] += np.abs(_af_at_delay(chunk, spectrum, lags, phase, kernel, work)).sum(axis=1)
        return sums

    total = np.zeros((tau_grid.size, nu_grid.size))
    total[half:] = map_chunks(piece, seed, trials, AF_DRAWS, threads)
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
    magnitude enters, ``|K_m| = |S_m|``, so they read the real envelope S,
    which is in units of T_p: the variances come in units of T_p^2 and the
    mean self magnitude in units of T_p, the same at every bandwidth (qam16
    at tau = 0: self variance L (E[A^4] - 1) = 20.48 and mean self magnitude
    L = 64 at 64 subcarriers).

    * self variance ``L (E[A^4] - 1) |K_0|^2``, zero at constant modulus;
    * cross variance ``sum_{m != 0} (L - |m|) |K_m|^2``, with L - |m| index
      pairs at offset m; unit power makes each pair's amplitude factor one;
    * mean self magnitude ``|sum_l exp(j 2 pi l df tau)| |K_0|``, a Dirichlet
      envelope (E[A^2] = 1).  The cross part has zero mean.
    """
    num = cfg.num_subcarriers
    pairs = num - np.abs(np.arange(1 - num, num))
    pairs[num - 1] = 0
    taus = np.asarray(tau_grid, dtype=float)
    terms = _delay_terms(cfg, taus, _doppler_offsets(cfg, np.array([float(nu)])))
    envelope, centre = terms.envelope[:, :, 0], terms.envelope[:, num - 1, 0]
    dirichlet = np.abs(np.exp(2j * np.pi * np.arange(num) * cfg.subcarrier_spacing * taus[terms.inside, None]).sum(1))
    stats, excess = np.zeros((3, taus.size)), constellation.moment(4) - 1.0
    stats[:, terms.inside] = centre**2 * num * excess, envelope**2 @ pairs, np.abs(centre) * dirichlet
    return stats


def magnitude_db(values) -> np.ndarray:
    """20 log10 of a normalized magnitude, floored at -80 dB for CSV output."""
    return 20.0 * np.log10(np.maximum(np.asarray(values, dtype=float), 1e-4))
