"""Weak-target detection next to strong self-interference, with SO-CFAR.

Per trial: a random OFDM symbol is transmitted; the receiver sees the direct
self-interference copy at lag zero, a weak target echo a few range cells
away, and white noise.  Matched filtering with the known transmitted data
gives a range profile; the smallest-of CFAR statistic divides each cell by
the smaller of its leading/lagging reference-window means, so the
interference peak in one window cannot mask the target.  Detection and
calibration read that one statistic: a cell trips where it exceeds alpha, and
alpha is the noise-only statistic whose exceedance rate meets the target.

The matched filter is an FFT correlation at the shortest 5-smooth length
that keeps the lags read free of wrap-around, run over cache-sized blocks of
trials.  The pd loop correlates only the lags the target cell's reference
windows reach (27 of the 128 instrumented at the defaults) and evaluates the
SO-CFAR rule at that cell only.  Its profile is quadratic in the target
gain, so it takes the window means of three parts once per chunk and
decides every SNR point from them, through the same statistic as
:func:`so_cfar`.

One experiment runs one pd curve per constellation on common random
numbers: calibration and each pd chunk draw their noise once, and every curve
reuses it beside its own symbols, replayed from the same generator state.
The symbol draw takes the same keys whatever the probabilities, so each
draw is the one a curve would see alone, and a curve's alpha and pd are the
same alone or in a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import copy
import math
import numpy as np

from .constellation import Constellation
from .mc import map_chunks
from .ofdm import OfdmConfig, check_db, symbol_signal_batch

# Trials per Monte-Carlo chunk of the pd loop: bounds the (chunk, 2, N) buffers.
PD_CHUNK = 512
# Rows per block of the matched filter's leading axis: keeps its spectra cache-sized.
MF_BLOCK = 64
# Fewest cells a truncated reference window keeps and still counts (see CfarConfig).
MIN_REFERENCE_CELLS = 4
# Fewest expected false alarms a calibration takes its threshold from.
MIN_FALSE_ALARMS = 100


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CfarConfig:
    """Reference/guard cells per side and the threshold multiplier.

    ``alpha=None`` means "calibrate before use".  Defaults put 16 reference
    cells behind 2 guard cells on each side: wide enough that an interferer 8
    cells away lands inside one window, which is exactly the case the
    smallest-of rule is for.

    A window cut to fewer than ``min(MIN_REFERENCE_CELLS, window_cells)``
    cells is no usable background estimate (a one-cell mean under the
    smallest-of rule has a 1/(1+alpha) exceedance tail that would swallow the
    whole false-alarm budget), so such sides are treated like the fully
    missing edge case and the other window decides alone.
    """

    window_cells: int = 16
    guard_cells: int = 2
    alpha: float | None = None

    def __post_init__(self):
        if self.window_cells < 1:
            raise ValueError(f"window_cells must be >= 1, got {self.window_cells}")
        if self.guard_cells < 0:
            raise ValueError(f"guard_cells must be >= 0, got {self.guard_cells}")
        if self.alpha is not None and not (self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def min_profile_len(self) -> int:
        return 2 * (self.window_cells + self.guard_cells) + 2


def _fft_length(minimum: int) -> int:
    """Smallest 2^a * 3^b * 5^c that is >= ``minimum``."""
    size = minimum
    while True:
        rest = size
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return size
        size += 1


def _matched_filter_batch(rx: np.ndarray, ref: np.ndarray, lags: int | None = None) -> np.ndarray:
    """Complex linear cross-correlation ``sum_n rx[n+k] conj(ref[n])`` over the
    last axis at lags ``k = 0..lags-1``, with ``lags`` in 1..N (default N).

    ``ref`` broadcasts against ``rx``, so one reference spectrum serves every
    received row stacked beside it; its rows must have ``rx``'s length, since
    a shorter one would be zero-padded into a wrong correlation.

    The FFT length is the smallest 2^a 3^b 5^c >= N + lags - 1, the shortest
    at which no lag read wraps around: 384 points for 128 lags of N = 256,
    288 for 27, and 2N = 512 for all 256.  The leading (trial) axis runs in
    blocks of ``MF_BLOCK`` rows, each taking the conjugate, product and
    inverse FFT in place on its own spectra and writing into one preallocated
    output.  A row's FFT does not depend on how many rows share the call, so
    the blocking changes no bit.
    """
    n = rx.shape[-1]
    if ref.shape[-1] != n:
        raise ValueError(f"ref rows have {ref.shape[-1]} samples, rx rows have {n}")
    if lags is None:
        lags = n
    elif not 1 <= lags <= n:
        raise ValueError(f"lags must be in 1..{n} (the row length), got {lags}")
    size = _fft_length(n + lags - 1)
    batch = np.broadcast_shapes(rx.shape[:-1], ref.shape[:-1])
    out = np.empty(batch + (lags,), dtype=complex)
    # Every operand gets a leading block axis, even a single row.
    shape = batch or (1,)
    rows = shape[0]
    rx = np.broadcast_to(rx, shape + (n,))
    ref = ref.reshape((1,) * (len(shape) + 1 - ref.ndim) + ref.shape)
    rows_out = out.reshape(shape + (lags,))
    for lo in range(0, rows, MF_BLOCK):
        block = slice(lo, lo + MF_BLOCK)
        spec = np.fft.fft(rx[block], n=size, axis=-1)
        ref_spec = np.fft.fft(ref[block] if len(ref) == rows else ref, n=size, axis=-1)
        spec *= np.conjugate(ref_spec, out=ref_spec)
        np.fft.ifft(spec, axis=-1, out=spec)
        rows_out[block] = spec[..., :lags]
    return out


def reference_means(profiles: np.ndarray, cfar: CfarConfig, cell: int | None = None):
    """Leading/lagging reference-window means for every cell, or for ``cell``
    alone.

    Windows are truncated at the profile edges; a side left with fewer than
    ``min(MIN_REFERENCE_CELLS, cfar.window_cells)`` cells (or none at all)
    yields NaN there, so the other side decides alone.  Accepts a single
    profile or a batch whose last axis is the cells; with ``cell`` given, the
    means drop that axis.  Both forms take the window sums as differences of
    one running sum, so a cell's means are bitwise the same either way.

    The whole-profile form needs ``cfar.min_profile_len()`` cells.  With
    ``cell`` given, a profile that reaches the end of that cell's lagging
    window (``cell + guard + window + 1`` cells) is enough: the cells beyond
    it change neither mean, so a cut profile gives the cell the means of the
    full one.
    """
    profiles = np.asarray(profiles, dtype=float)
    n = profiles.shape[-1]
    if cell is not None and not 0 <= cell < n:
        raise ValueError(f"cell must be in 0..{n - 1}, got {cell}")
    need = cfar.min_profile_len()
    if cell is not None:
        need = min(need, cell + cfar.guard_cells + cfar.window_cells + 1)
    if n < need:
        at = "" if cell is None else f" at cell {cell}"
        raise ValueError(
            f"profile with {n} cells is too short for window={cfar.window_cells}, "
            f"guard={cfar.guard_cells}{at} (needs {need})"
        )
    cs = np.concatenate(
        [np.zeros(profiles.shape[:-1] + (1,)), np.cumsum(profiles, axis=-1)], axis=-1
    )
    i = np.arange(n) if cell is None else cell
    lead_lo = np.clip(i - cfar.guard_cells - cfar.window_cells, 0, n)
    lead_hi = np.clip(i - cfar.guard_cells, 0, n)
    lag_lo = np.clip(i + cfar.guard_cells + 1, 0, n)
    lag_hi = np.clip(i + cfar.guard_cells + 1 + cfar.window_cells, 0, n)
    floor = min(MIN_REFERENCE_CELLS, cfar.window_cells)
    with np.errstate(invalid="ignore"):
        lead = (cs[..., lead_hi] - cs[..., lead_lo]) / np.where(
            lead_hi - lead_lo >= floor, lead_hi - lead_lo, np.nan
        )
        lag = (cs[..., lag_hi] - cs[..., lag_lo]) / np.where(
            lag_hi - lag_lo >= floor, lag_hi - lag_lo, np.nan
        )
    return lead, lag


def _so_statistic(parts: np.ndarray, cfar: CfarConfig, cell: int | None = None, profile_of=None):
    """The smallest-of statistic ``value / fmin(lead, lag)`` of every cell, or
    of ``cell`` alone, on ``profile_of(parts)`` (``parts`` itself by default).
    A positive cell over a zero background is ``inf``, an exactly-zero one 0.

    ``profile_of`` must be linear in the cells' values, like a weighted sum
    over a leading axis of ``parts``: window means are linear too, so it is
    applied to the cell value and to both means of ``parts`` instead of to
    every cell before the running sum.
    """
    lead, lag = reference_means(parts, cfar, cell)
    parts = np.asarray(parts)
    value = parts if cell is None else parts[..., cell]
    if profile_of is not None:
        value, lead, lag = profile_of(value), profile_of(lead), profile_of(lag)
    background = np.fmin(lead, lag)
    return np.divide(value, background, out=np.where(value > 0, np.inf, 0.0), where=background > 0)


def so_cfar(profile: np.ndarray, cfar: CfarConfig, cell: int | None = None) -> np.ndarray:
    """Per-cell detection decisions under the smallest-of rule, for every cell
    or for ``cell`` alone (the cell axis is then dropped).

    A cell trips where its statistic (:func:`_so_statistic`) exceeds alpha;
    edge cells fall back to the single available window.  Decisions are
    invariant to a global positive scaling of the profile, and
    ``so_cfar(p, cfar, c)`` equals ``so_cfar(p, cfar)[..., c]`` bit for bit.
    Calibration and the pd loop read the same statistic.
    """
    if cfar.alpha is None:
        raise ValueError("CfarConfig.alpha is unset; calibrate first")
    return _so_statistic(profile, cfar, cell) > cfar.alpha


@dataclass
class CalibrationResult:
    """Threshold multiplier, the share of ``cells`` noise-only cells that
    :func:`so_cfar` trips at it (never above the target), and ``iterations``,
    the passes made over the statistics: one, by the order-statistic selection."""
    alpha: float
    empirical_pfa: float
    cells: int
    iterations: int


def _check_false_alarms(cells: int, pfa_target: float, source: str, pfa_name: str) -> None:
    """Raise ValueError unless ``pfa_target`` lies in (0, 1) and ``cells``
    noise-only cells expect ``MIN_FALSE_ALARMS`` false alarms at it; the
    messages name the option ``pfa_name`` and the cells' ``source``."""
    if not (0.0 < pfa_target < 1.0):
        raise ValueError(f"{pfa_name} must be in (0, 1), got {pfa_target}")
    if cells * pfa_target < MIN_FALSE_ALARMS:
        raise ValueError(
            f"{source}: {cells} cells expect {cells * pfa_target:.1f} false alarms at "
            f"{pfa_name} {pfa_target:g}; calibration needs >= {MIN_FALSE_ALARMS}"
        )


def check_calibration(
    cfg: OfdmConfig, calib_trials: int, pfa_target: float, names=("calib_trials", "pfa_target")
) -> None:
    """Raise ValueError unless ``calib_trials`` noise-only profiles of the
    instrumented range can calibrate to ``pfa_target`` (see
    :func:`calibrate_alpha`); the messages name the options ``names``, the
    trial count's and the target's."""
    trials_name, pfa_name = names
    _check_false_alarms(
        calib_trials * instrumented_range(cfg), pfa_target, f"{trials_name} {calib_trials}", pfa_name
    )


def calibrate_alpha(cfar: CfarConfig, profiles: np.ndarray, pfa_target: float) -> CalibrationResult:
    """Set the threshold multiplier to the target false-alarm rate on the
    noise-only ``profiles`` (trials, cells).

    With k the most exceedances whose fraction ``k / cells`` stays within
    ``pfa_target``, alpha is the (k+1)-th largest SO-CFAR statistic, the
    smallest multiplier that meets the target.  Requires enough cells for
    ``MIN_FALSE_ALARMS`` expected false alarms and a rate within 20 % of the
    target.
    """
    profiles = np.asarray(profiles, dtype=float)
    _check_false_alarms(profiles.size, pfa_target, "profiles", "pfa_target")
    stats = _so_statistic(profiles, cfar).ravel()
    cells = stats.size
    # int() lands within one of k; the checks use the float rate k / cells.
    k = int(pfa_target * cells)
    k += (k + 1) / cells <= pfa_target
    k -= k / cells > pfa_target
    stats.partition(cells - k - 1)
    alpha = float(stats[cells - k - 1])
    achieved = np.count_nonzero(stats > alpha) / cells
    # An inf alpha (more than k zero backgrounds) achieves 0 and fails the band.
    if not (alpha > 0 and 0.8 * pfa_target <= achieved <= 1.2 * pfa_target):
        raise CalibrationError(
            f"calibration landed at pfa {achieved:.3g} for target {pfa_target:.3g} "
            f"(alpha {alpha:.6g}, {cells} cells)"
        )
    return CalibrationResult(alpha=alpha, empirical_pfa=float(achieved), cells=cells, iterations=1)


def instrumented_range(cfg: OfdmConfig) -> int:
    """Default extent of the CFAR-monitored profile: lags with at least half
    the symbol in the correlation support.

    Beyond that, the zero-padded correlation's reference energy ramps toward
    zero and the cell/background ratios grow pathologically heavy tails; a
    handful of such cells would otherwise consume the whole false-alarm
    budget at small targets (an alpha of ~337 instead of ~45 at 1e-4).
    """
    return cfg.num_samples // 2


def check_target_cell(
    cfg: OfdmConfig, cfar: CfarConfig, offset: int,
    names=("target_cell_offset", "window_cells", "guard_cells", "num_subcarriers", "oversampling"),
) -> None:
    """Raise ValueError unless the CFAR windows fit the instrumented profile
    and the target cell ``offset`` lies in it, past the guard cells that
    the self-interference occupies; the messages name the options ``names``:
    the offset's, the window's, the guard's, the subcarrier count's and the
    oversampling's."""
    offset_name, window, guard, subcarriers, oversampling = names
    n, need = instrumented_range(cfg), cfar.min_profile_len()
    if n < need:
        raise ValueError(
            f"{window} {cfar.window_cells} and {guard} {cfar.guard_cells} need "
            f"2*({window} + {guard}) + 2 = {need} cells; "
            f"{subcarriers} {cfg.num_subcarriers} at {oversampling} {cfg.oversampling} instrument {n}"
        )
    if not (cfar.guard_cells < offset < n):
        raise ValueError(
            f"{offset_name} must lie in {cfar.guard_cells + 1}..{n - 1} (the instrumented profile, "
            f"clear of the interference guard region), got {offset}"
        )


def noise_profile_sampler(cfg: OfdmConfig, constellation: Constellation):
    """Noise-only matched-filter profiles under random known transmit data.

    Profiles are truncated to :func:`instrumented_range`, matching the
    population the detector thresholds in operation.  ``sampler(rng,
    count)`` draws as one curve of :func:`pd_experiment`'s calibration does.
    """

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        [(symbols, noise)] = _curve_draws(cfg, (constellation,), rng, count)
        return _noise_profiles(cfg, symbols, noise)

    return sampler


def _noise_profiles(cfg: OfdmConfig, symbols: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """``|matched filter|^2`` of ``noise`` against the waveforms of the
    (trials, L) ``symbols``, over the :func:`instrumented_range` lags; the
    waveforms are freed on return."""
    tx = symbol_signal_batch(cfg, symbols)
    return np.abs(_matched_filter_batch(noise, tx, instrumented_range(cfg))) ** 2


def _curve_draws(cfg: OfdmConfig, constellations, rng: np.random.Generator, count: int):
    """Yield each curve's (count, L) symbols with the (count, N) unit-variance
    noise that every curve shares.

    Every curve's symbols are drawn from ``rng``'s state on entry (a copy of
    it for all curves after the first), and the one noise draw follows the
    first curve's symbols.  :meth:`Constellation.sample_symbols` takes one
    ``rng.random`` key per symbol whatever the probabilities, so curve i gets
    the symbols and noise a one-curve call with its constellation would, and
    ``rng`` is left after the noise either way.  Only the current curve's
    symbols are held.
    """
    num = cfg.num_subcarriers
    start = copy.deepcopy(rng)
    noise = None
    for constellation in constellations:
        symbols = constellation.sample_symbols(count * num, rng if noise is None else copy.deepcopy(start))
        if noise is None:
            noise = _complex_noise(rng, (count, cfg.num_samples), 1.0)
        yield symbols.reshape(count, num), noise


def _complex_noise(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circular complex Gaussian noise of ``variance``: real parts drawn
    first, then imaginary parts, each scaled into its half of one complex
    output.  Bitwise ``sqrt(variance / 2) * (a + 1j * b)`` from the same two
    draws, without that expression's three complex temporaries.
    """
    scale = math.sqrt(variance / 2.0)
    out = np.empty(shape, dtype=complex)
    np.multiply(rng.standard_normal(shape), scale, out=out.real)
    np.multiply(rng.standard_normal(shape), scale, out=out.imag)
    return out


@dataclass
class DetectionScenario:
    """Full experiment description: one pd curve per entry of
    ``constellations`` (a 1-tuple for one curve), all under one geometry.

    The CFAR monitors, and calibrates on, the first
    :func:`instrumented_range` cells of each profile.  The dB fields must be
    finite and within the bound of :func:`ofdm.check_db`; unless ``cfar``
    carries an alpha, ``calib_trials`` must calibrate to ``pfa_target``
    (:func:`check_calibration`); and the CFAR windows must fit the
    instrumented range with the target cell in it (:func:`check_target_cell`).
    All are checked here, by field name, before any draw or calibration.
    """

    cfg: OfdmConfig
    constellations: tuple[Constellation, ...]
    snr_grid_db: np.ndarray
    si_to_noise_db: float = 10.0
    target_cell_offset: int = 8
    pfa_target: float = 1e-3
    trials: int = 5000
    cfar: CfarConfig = field(default_factory=CfarConfig)
    calib_trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        self.constellations = tuple(self.constellations)
        if not self.constellations:
            raise ValueError("constellations must hold at least one constellation")
        self.snr_grid_db = np.asarray(self.snr_grid_db, dtype=float)
        if self.snr_grid_db.ndim != 1 or self.snr_grid_db.size == 0:
            raise ValueError("snr_grid_db must be a non-empty 1-D list")
        check_db(self.snr_grid_db, "snr_grid_db")
        check_db(self.si_to_noise_db, "si_to_noise_db")
        if not (0.0 < self.pfa_target < 1.0):
            raise ValueError(f"pfa_target must be in (0, 1), got {self.pfa_target}")
        if self.cfar.alpha is None:
            check_calibration(self.cfg, self.calib_trials, self.pfa_target)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        check_target_cell(self.cfg, self.cfar, self.target_cell_offset)


class PdResult(NamedTuple):
    """Each curve's ``alpha``, the ``empirical_pfa`` its calibration reached
    (None for a supplied alpha) and ``null_hits``, the trials whose target
    cell trips with no echo; and ``pd`` per curve and SNR point."""

    alpha: np.ndarray
    empirical_pfa: np.ndarray | None
    null_hits: np.ndarray
    pd: np.ndarray


def pd_experiment(scn: DetectionScenario, *, threads: int = 1) -> PdResult:
    """Detection probability at the target cell over the sensing-SNR grid,
    one curve per constellation of the scenario.

    Calibrates each curve's alpha against the scenario's false-alarm target
    if the CFAR config does not already carry one (child seed 0 of
    ``scn.seed``).  The trials run in chunks of ``PD_CHUNK``; chunk k draws
    from child k of child seed 1 (see :func:`mc.map_chunks`), so memory stays
    O(``PD_CHUNK``) whatever ``scn.trials`` is.  Calibration and every chunk
    draw their noise once and share it across the curves, each curve with
    its own symbols replayed from the same generator state (see
    :func:`_curve_draws`), so a curve's alpha and pd are the same alone or in
    a sweep; each curve is calibrated, or decided, before the next curve's
    waveforms are made.

    Every SNR point shares a chunk's draws: the matched filter is linear, so
    the received correlation is ``C0 + g * C1`` (self-interference plus
    noise, and the unit-gain echo), with both parts computed once per chunk
    and only at the lags the target cell's CFAR windows reach (``offset +
    guard + window + 1``, capped at the instrumented range).  The profile
    ``|C0 + g C1|^2`` is ``P0 + g^2 P1 + g P2`` with the parts ``|C0|^2``,
    ``|C1|^2`` and ``2 Re(C0 C1*)``, and window means are linear, so the
    target cell's value and reference means are taken once per chunk from
    the stacked parts and every SNR point is decided from those quadratics by
    the SO-CFAR rule at that one cell, as is gain 0 (``P0`` alone, no echo)
    for the null hits.  Threads split the chunks and the
    integer hit counts are summed, so the result does not depend on the
    thread count.
    """
    cfg, grid, cfar = scn.cfg, scn.snr_grid_db, scn.cfar
    calib_seed, draw_seed = np.random.SeedSequence(scn.seed).spawn(2)
    if cfar.alpha is None:
        draws = _curve_draws(cfg, scn.constellations, np.random.default_rng(calib_seed), scn.calib_trials)
        results = [
            calibrate_alpha(cfar, _noise_profiles(cfg, symbols, noise), scn.pfa_target)
            for symbols, noise in draws
        ]
        alpha = np.array([r.alpha for r in results])
        empirical_pfa = np.array([r.empirical_pfa for r in results])
    else:
        alpha, empirical_pfa = np.full(len(scn.constellations), cfar.alpha), None

    num = cfg.num_subcarriers
    n_samples = cfg.num_samples
    offset = scn.target_cell_offset
    # The target cell's lagging window ends at offset+guard+window; cutting the
    # profile there leaves its decision as on the full instrumented profile.
    cells = min(instrumented_range(cfg), offset + cfar.guard_cells + cfar.window_cells + 1)
    # Amplitudes scale so received power over the L-subcarrier waveform hits
    # the requested ratios against unit-variance noise.
    gain_si = math.sqrt(10.0 ** (scn.si_to_noise_db / 10.0) / num)
    # Gain 0 comes first: it decides P0 alone, the null hits.
    gain_target = np.sqrt(np.concatenate([[0.0], 10.0 ** (grid / 10.0)]) / num)[:, None]
    gain_sq = gain_target**2

    def profile_of(p: np.ndarray) -> np.ndarray:
        # |C0 + g C1|^2 = |C0|^2 + g^2 |C1|^2 + g 2Re(C0 C1*), for every g at once.
        return p[0] + gain_sq * p[1] + gain_target * p[2]  # (1 + snr, trial)

    def curve_hits(symbols: np.ndarray, noise: np.ndarray, alpha: float) -> np.ndarray:
        count = len(noise)
        tx = symbol_signal_batch(cfg, symbols)
        # Row 0: self-interference plus noise; row 1: the unit-gain echo.
        rx = np.zeros((count, 2, n_samples), dtype=complex)
        rx[:, 0] = gain_si * tx + noise
        rx[:, 1, offset:] = tx[:, : n_samples - offset]
        corr = _matched_filter_batch(rx, tx[:, None, :], cells)
        c0, c1 = corr[:, 0], corr[:, 1]
        parts = np.stack([  # (part, trial, cell)
            c0.real**2 + c0.imag**2,
            c1.real**2 + c1.imag**2,
            2.0 * (c0.real * c1.real + c0.imag * c1.imag),
        ])
        return np.count_nonzero(_so_statistic(parts, cfar, offset, profile_of) > alpha, axis=1)

    def chunk_hits(rng: np.random.Generator, count: int) -> np.ndarray:  # (curve, 1 + snr)
        draws = _curve_draws(cfg, scn.constellations, rng, count)
        return np.array([curve_hits(symbols, noise, a) for (symbols, noise), a in zip(draws, alpha)])

    hits = map_chunks(chunk_hits, draw_seed, scn.trials, PD_CHUNK, threads)
    return PdResult(alpha, empirical_pfa, hits[:, 0], hits[:, 1:] / scn.trials)
