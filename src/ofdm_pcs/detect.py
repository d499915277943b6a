"""Weak-target detection next to strong self-interference, with SO-CFAR.

Per trial: a random OFDM symbol is transmitted; the receiver sees the direct
self-interference copy at lag zero, a weak target echo a few range cells
away, and white noise.  Matched filtering with the known transmitted data
gives a range profile; a smallest-of CFAR thresholds each cell by the smaller
of its leading/lagging reference-window means so the interference peak in one
window cannot mask the target.  The threshold multiplier is calibrated by
bisection against the empirical false-alarm rate on noise-only profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import math
import numpy as np

from .constellation import Constellation
from .mc import map_chunks
from .ofdm import OfdmConfig, symbol_signal_batch

# Trials per Monte-Carlo chunk of the pd loop: bounds the (chunk, 2, N) buffers.
PD_CHUNK = 512


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CfarConfig:
    """Reference/guard cells per side and the threshold multiplier.

    ``alpha=None`` means "calibrate before use".  Defaults put 16 reference
    cells behind 2 guard cells on each side: wide enough that an interferer 8
    cells away lands inside one window, which is exactly the case the
    smallest-of rule is for.

    A truncated window with fewer than ``min_reference_cells`` remaining is
    not a usable background estimate (a one-cell mean under the smallest-of
    rule has a 1/(1+alpha) exceedance tail that would swallow the whole
    false-alarm budget), so such sides are treated like the fully missing
    edge case and the other window decides alone.
    """

    window_cells: int = 16
    guard_cells: int = 2
    alpha: float | None = None
    min_reference_cells: int = 4

    def __post_init__(self):
        if self.window_cells < 1:
            raise ValueError(f"window_cells must be >= 1, got {self.window_cells}")
        if self.guard_cells < 0:
            raise ValueError(f"guard_cells must be >= 0, got {self.guard_cells}")
        if self.alpha is not None and not (self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.min_reference_cells < 1:
            raise ValueError(
                f"min_reference_cells must be >= 1, got {self.min_reference_cells}"
            )

    def min_profile_len(self) -> int:
        return 2 * (self.window_cells + self.guard_cells) + 2

    def window_floor(self) -> int:
        return min(self.min_reference_cells, self.window_cells)


def _matched_filter_batch(rx: np.ndarray, ref: np.ndarray, lags: int | None = None) -> np.ndarray:
    """Complex linear cross-correlation ``sum_n rx[n+k] conj(ref[n])`` over the
    last axis at lags ``k = 0..lags-1`` (default all N).

    ``ref`` broadcasts against ``rx``, so one reference spectrum serves every
    received row stacked beside it.
    """
    n = rx.shape[-1]
    size = 2 * n
    spec = np.fft.fft(rx, n=size, axis=-1) * np.conj(np.fft.fft(ref, n=size, axis=-1))
    return np.fft.ifft(spec, axis=-1)[..., : n if lags is None else lags]


def reference_means(profiles: np.ndarray, cfar: CfarConfig):
    """Leading/lagging reference-window means for every cell.

    Windows are truncated at the profile edges; a side left with fewer than
    ``cfar.window_floor()`` cells (or none at all) yields NaN there, so the
    other side decides alone.  Accepts a single profile or a batch whose
    last axis is the cells.
    """
    profiles = np.asarray(profiles, dtype=float)
    n = profiles.shape[-1]
    if n < cfar.min_profile_len():
        raise ValueError(
            f"profile with {n} cells is too short for window={cfar.window_cells}, "
            f"guard={cfar.guard_cells}"
        )
    cs = np.concatenate(
        [np.zeros(profiles.shape[:-1] + (1,)), np.cumsum(profiles, axis=-1)], axis=-1
    )
    i = np.arange(n)
    lead_lo = np.clip(i - cfar.guard_cells - cfar.window_cells, 0, n)
    lead_hi = np.clip(i - cfar.guard_cells, 0, n)
    lag_lo = np.clip(i + cfar.guard_cells + 1, 0, n)
    lag_hi = np.clip(i + cfar.guard_cells + 1 + cfar.window_cells, 0, n)
    floor = cfar.window_floor()
    with np.errstate(invalid="ignore"):
        lead = (cs[..., lead_hi] - cs[..., lead_lo]) / np.where(
            lead_hi - lead_lo >= floor, lead_hi - lead_lo, np.nan
        )
        lag = (cs[..., lag_hi] - cs[..., lag_lo]) / np.where(
            lag_hi - lag_lo >= floor, lag_hi - lag_lo, np.nan
        )
    return lead, lag


def so_cfar(profile: np.ndarray, cfar: CfarConfig) -> np.ndarray:
    """Per-cell detection decisions under the smallest-of rule.

    Threshold = alpha * min(leading mean, lagging mean); edge cells fall back
    to the single available window.  Decisions are invariant to a global
    positive scaling of the profile.
    """
    if cfar.alpha is None:
        raise ValueError("CfarConfig.alpha is unset; calibrate first")
    lead, lag = reference_means(profile, cfar)
    threshold = cfar.alpha * np.fmin(lead, lag)
    return np.asarray(profile) > threshold


@dataclass
class CalibrationResult:
    alpha: float
    empirical_pfa: float
    cells: int
    iterations: int


def calibrate_alpha(
    cfar: CfarConfig,
    profile_fn,
    pfa_target: float,
    calib_trials: int,
    seed,
    max_iter: int = 200,
) -> CalibrationResult:
    """Bisect the threshold multiplier to the target false-alarm rate.

    ``profile_fn(rng, count)`` must return noise-only profiles of shape
    (count, cells).  The cell/background ratios are computed once; bisection
    then drives the empirical exceedance fraction to ``pfa_target``.  Requires
    enough cells for at least 100 expected false alarms.
    """
    if not (0.0 < pfa_target < 1.0):
        raise ValueError(f"pfa_target must be in (0, 1), got {pfa_target}")
    if calib_trials < 1:
        raise ValueError(f"calib_trials must be >= 1, got {calib_trials}")
    profiles = profile_fn(np.random.default_rng(seed), calib_trials)
    lead, lag = reference_means(profiles, cfar)
    background = np.fmin(lead, lag)
    finite = np.isfinite(background)
    # A zero background (cumsum cancellation on near-empty tail windows) trips
    # the cell at any alpha, exactly as so_cfar decides it; keep it as inf.
    ratios = np.full(np.count_nonzero(finite), np.inf)
    positive = background[finite] > 0
    ratios[positive] = profiles[finite][positive] / background[finite][positive]
    cells = int(ratios.size)
    if cells * pfa_target < 100:
        raise ValueError(
            f"{calib_trials} trials give {cells} cells, expecting "
            f"{cells * pfa_target:.1f} false alarms; need >= 100 for calibration"
        )

    def pfa_of(alpha: float) -> float:
        return np.count_nonzero(ratios > alpha) / cells

    lo, hi = 0.0, 2.0
    iterations = 0
    while pfa_of(hi) > pfa_target:
        hi *= 2.0
        iterations += 1
        if iterations > 60:
            raise CalibrationError(
                f"no alpha below {hi} reaches pfa {pfa_target}; ratio max is {ratios.max():.3g}"
            )
    for _ in range(max_iter):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        iterations += 1
        if pfa_of(mid) > pfa_target:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    achieved = pfa_of(alpha)
    if not (0.8 * pfa_target <= achieved <= 1.2 * pfa_target):
        raise CalibrationError(
            f"calibration landed at pfa {achieved:.3g} for target {pfa_target:.3g} "
            f"(alpha {alpha:.6g}, {cells} cells, {iterations} iterations)"
        )
    return CalibrationResult(
        alpha=float(alpha), empirical_pfa=float(achieved), cells=cells, iterations=iterations
    )


def instrumented_range(cfg: OfdmConfig) -> int:
    """Default extent of the CFAR-monitored profile: lags with at least half
    the symbol in the correlation support.

    Beyond that, the zero-padded correlation's reference energy ramps toward
    zero and the cell/background ratios grow pathologically heavy tails; a
    handful of such cells would otherwise consume the whole false-alarm
    budget at small targets (an alpha of ~337 instead of ~45 at 1e-4).
    """
    return cfg.num_samples // 2


def noise_profile_sampler(cfg: OfdmConfig, constellation: Constellation, cells: int | None = None):
    """Noise-only matched-filter profiles under random known transmit data.

    Profiles are truncated to the instrumented range (``cells``, default
    :func:`instrumented_range`), matching the population the detector
    thresholds in operation.
    """
    cells = instrumented_range(cfg) if cells is None else int(cells)

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        symbols = constellation.sample_symbols(count * cfg.num_subcarriers, rng)
        tx = symbol_signal_batch(cfg, symbols.reshape(count, cfg.num_subcarriers))
        noise = _complex_noise(rng, tx.shape, 1.0)
        return np.abs(_matched_filter_batch(noise, tx, cells)) ** 2

    return sampler


def _complex_noise(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass
class DetectionScenario:
    """Full experiment description for one constellation.

    ``instrumented_cells`` bounds the profile region the CFAR monitors (and
    the calibration population); ``None`` picks :func:`instrumented_range`.
    """

    cfg: OfdmConfig
    constellation: Constellation
    snr_grid_db: np.ndarray
    si_to_noise_db: float = 10.0
    target_cell_offset: int = 8
    pfa_target: float = 1e-3
    trials: int = 5000
    cfar: CfarConfig = field(default_factory=CfarConfig)
    calib_trials: int = 1000
    instrumented_cells: int | None = None
    seed: int = 0

    def __post_init__(self):
        self.snr_grid_db = np.asarray(self.snr_grid_db, dtype=float)
        if self.snr_grid_db.ndim != 1 or self.snr_grid_db.size == 0:
            raise ValueError("snr_grid_db must be a non-empty 1-D list")
        if not (0.0 < self.pfa_target < 1.0):
            raise ValueError(f"pfa_target must be in (0, 1), got {self.pfa_target}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.instrumented_cells is None:
            self.instrumented_cells = instrumented_range(self.cfg)
        n = int(self.instrumented_cells)
        if not (0 < n <= self.cfg.num_samples):
            raise ValueError(f"instrumented_cells must lie in (0, {self.cfg.num_samples}]")
        if n < self.cfar.min_profile_len():
            raise ValueError("instrumented profile is too short for the CFAR geometry")
        if not (self.cfar.guard_cells < self.target_cell_offset < n):
            raise ValueError(
                f"target cell {self.target_cell_offset} must lie in the instrumented "
                f"profile and clear of the interference guard region"
            )


def pd_experiment(scn: DetectionScenario, *, threads: int = 1) -> list[dict]:
    """Detection probability at the target cell over the sensing-SNR grid.

    Calibrates alpha against the scenario's false-alarm target if the CFAR
    config does not already carry one (child seed 0 of ``scn.seed``).  The
    trials run in chunks of ``PD_CHUNK``; chunk k draws its own symbols and
    noise from child k of child seed 1 (see :func:`mc.map_chunks`), so memory
    stays O(``PD_CHUNK``) whatever ``scn.trials`` is.  Every SNR point shares
    a chunk's draws: the matched filter is linear, so the received
    correlation is ``C_clutter + g_s * C_echo`` with both parts computed once
    per chunk, and only at the lags the target cell's CFAR windows reach.
    Threads split the chunks and the integer hit counts are summed, so the
    result does not depend on the thread count.  Returns rows
    ``{"snr_db", "pd", "trials"}``.
    """
    grid = scn.snr_grid_db
    calib_seed, draw_seed = np.random.SeedSequence(scn.seed).spawn(2)
    cfar = scn.cfar
    if cfar.alpha is None:
        calib = calibrate_alpha(
            cfar,
            noise_profile_sampler(scn.cfg, scn.constellation, scn.instrumented_cells),
            scn.pfa_target,
            scn.calib_trials,
            calib_seed,
        )
        cfar = replace(cfar, alpha=calib.alpha)

    num = scn.cfg.num_subcarriers
    n_samples = scn.cfg.num_samples
    offset = scn.target_cell_offset
    # The target cell's lagging window ends at offset+guard+window; cutting the
    # profile there (but not below the CFAR minimum) leaves its decision as on
    # the full instrumented profile.
    cells = min(
        scn.instrumented_cells,
        max(offset + cfar.guard_cells + cfar.window_cells + 1, cfar.min_profile_len()),
    )
    # Amplitudes scale so received power over the L-subcarrier waveform hits
    # the requested ratios against unit-variance noise.
    gain_si = math.sqrt(10.0 ** (scn.si_to_noise_db / 10.0) / num)
    gain_target = np.sqrt(10.0 ** (grid / 10.0) / num)[:, None, None]

    def chunk_hits(rng: np.random.Generator, count: int) -> np.ndarray:
        symbols = scn.constellation.sample_symbols(count * num, rng).reshape(count, num)
        noise = _complex_noise(rng, (count, n_samples), 1.0)
        tx = symbol_signal_batch(scn.cfg, symbols)
        # Row 0: self-interference plus noise; row 1: the unit-gain echo.
        rx = np.zeros((count, 2, n_samples), dtype=complex)
        rx[:, 0] = gain_si * tx + noise
        rx[:, 1, offset:] = tx[:, : n_samples - offset]
        corr = _matched_filter_batch(rx, tx[:, None, :], cells)
        profiles = np.abs(corr[:, 0] + gain_target * corr[:, 1]) ** 2  # (snr, trial, cell)
        lead, lag = reference_means(profiles, cfar)
        threshold = cfar.alpha * np.fmin(lead[..., offset], lag[..., offset])
        return np.count_nonzero(profiles[..., offset] > threshold, axis=1)

    hits = sum(map_chunks(chunk_hits, draw_seed, scn.trials, PD_CHUNK, threads))
    return [
        {"snr_db": float(snr), "pd": int(h) / scn.trials, "trials": scn.trials}
        for snr, h in zip(grid, hits)
    ]
