import math

import numpy as np
import pytest

from ofdm_pcs.constellation import make_psk, make_qam
from ofdm_pcs.detect import (
    PD_CHUNK,
    CalibrationError,
    CfarConfig,
    DetectionScenario,
    _complex_noise,
    _matched_filter_batch,
    calibrate_alpha,
    noise_profile_sampler,
    pd_experiment,
    reference_means,
    so_cfar,
)
from ofdm_pcs.mc import map_chunks
from ofdm_pcs.ofdm import OfdmConfig, symbol_signal_batch

CFG = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.5625e6, oversampling=4)


def exponential_profiles(mean: float = 1.0, cells: int = 128):
    def sampler(rng, count):
        return rng.exponential(mean, size=(count, cells))

    return sampler


def so_cfar_pfa(alpha: float, n: int) -> float:
    """Closed-form SO-CFAR false-alarm rate for i.i.d. unit-exponential cells
    with ``n`` reference cells per side (Weiss 1982; Gandhi & Kassam 1988)."""
    x = 2.0 + alpha / n
    return 2.0 * x**-n * sum(math.comb(n - 1 + k, k) * x**-k for k in range(n))


def random_tx(seed):
    symbols = make_qam(16).sample_symbols(CFG.num_subcarriers, seed)
    return symbol_signal_batch(CFG, symbols[None])[0]


def test_matched_filter_peak_at_zero_lag():
    tx = random_tx(0)
    profile = np.abs(_matched_filter_batch(tx, tx)) ** 2
    assert profile.shape == (CFG.num_samples,)
    assert profile.argmax() == 0


def test_matched_filter_shift_property():
    tx = random_tx(1)
    lags = (3, 17, 100)
    rx = np.zeros((len(lags), tx.size), dtype=complex)
    for row, lag in zip(rx, lags):
        row[lag:] = tx[: tx.size - lag]
    profiles = np.abs(_matched_filter_batch(rx, tx)) ** 2
    assert list(profiles.argmax(axis=1)) == list(lags)


def test_matched_filter_noise_floor_tracks_overlap():
    # White-noise oracle: E profile[k] = (N - k) * L * sigma_n^2.
    rng = np.random.default_rng(2)
    n = CFG.num_samples
    trials = 2000
    symbols = make_qam(16).sample_symbols(trials * 64, rng).reshape(trials, 64)

    tx = symbol_signal_batch(CFG, symbols)
    noise = (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape)) / np.sqrt(2)
    profiles = np.abs(_matched_filter_batch(noise, tx)) ** 2
    for cell in (0, 64, 192):
        expected = (n - cell) * 64
        assert profiles[:, cell].mean() == pytest.approx(expected, rel=0.1)


def test_matched_filter_batch_lags_match_direct_sum():
    rng = np.random.default_rng(14)
    rx = rng.standard_normal((3, 2, 40)) + 1j * rng.standard_normal((3, 2, 40))
    ref = rng.standard_normal((3, 1, 40)) + 1j * rng.standard_normal((3, 1, 40))
    got = _matched_filter_batch(rx, ref, 7)
    direct = np.stack(
        [np.sum(rx[..., k:] * np.conj(ref[..., : 40 - k]), axis=-1) for k in range(7)], axis=-1
    )
    assert got.shape == (3, 2, 7)
    assert np.max(np.abs(got - direct)) <= 1e-9 * np.max(np.abs(direct))


def test_flat_profile_no_detections():
    profile = np.ones(128)
    decisions = so_cfar(profile, CfarConfig(window_cells=8, guard_cells=2, alpha=1.5))
    assert not decisions.any()


def test_spike_detected_in_noise():
    rng = np.random.default_rng(4)
    profile = rng.exponential(1.0, 256)
    profile[100] = 500.0
    decisions = so_cfar(profile, CfarConfig(window_cells=16, guard_cells=2, alpha=20.0))
    assert decisions[100]


def test_so_rule_resists_masking_where_cell_averaging_fails():
    # Interferer inside one reference window: the smallest-of threshold stays
    # near the noise level, a cell-averaging threshold is dragged up.
    profile = np.ones(128)
    profile[10] = 10_000.0
    profile[18] = 8.0
    cfar = CfarConfig(window_cells=16, guard_cells=2, alpha=5.0)
    lead, lag = reference_means(profile, cfar)
    so_threshold = cfar.alpha * np.fmin(lead, lag)[18]
    ca_threshold = cfar.alpha * 0.5 * (lead + lag)[18]
    assert so_cfar(profile, cfar)[18]
    assert so_threshold < 8.0 < ca_threshold


def test_edge_cells_use_single_window():
    profile = np.arange(1.0, 129.0)
    cfar = CfarConfig(window_cells=8, guard_cells=2, alpha=1.0)
    lead, lag = reference_means(profile, cfar)
    assert np.isnan(lead[0]) and np.isfinite(lag[0])
    assert np.isnan(lag[-1]) and np.isfinite(lead[-1])
    # cell 0: lag window is cells 3..10 -> values 4..11
    assert lag[0] == pytest.approx(np.mean(profile[3:11]))
    # smallest-of falls back to the finite side
    decisions = so_cfar(profile, cfar)
    assert decisions.shape == profile.shape


def test_reference_means_window_contents():
    profile = np.arange(128.0)
    cfar = CfarConfig(window_cells=4, guard_cells=1, alpha=1.0)
    lead, lag = reference_means(profile, cfar)
    i = 60
    assert lead[i] == pytest.approx(np.mean(profile[i - 5 : i - 1]))
    assert lag[i] == pytest.approx(np.mean(profile[i + 2 : i + 6]))


def test_windows_below_floor_are_nan():
    profile = np.arange(1.0, 129.0)
    cfar = CfarConfig(window_cells=8, guard_cells=2, min_reference_cells=4)
    lead, lag = reference_means(profile, cfar)
    # cell i has a lead window of i - 2 cells: below the floor up to cell 5
    assert np.isnan(lead[:6]).all() and np.isfinite(lead[6:]).all()
    assert lead[6] == pytest.approx(np.mean(profile[0:4]))
    assert np.isnan(lag[-6:]).all() and np.isfinite(lag[:-6]).all()


def test_so_cfar_interior_pfa_matches_closed_form():
    cfar = CfarConfig(window_cells=16, guard_cells=2, alpha=6.0)
    profiles = np.random.default_rng(12).exponential(1.0, size=(4000, 128))
    # interior cells: both reference windows complete
    decisions = so_cfar(profiles, cfar)[:, 18:110]
    expected = so_cfar_pfa(cfar.alpha, 16)
    band = 4.0 * math.sqrt(expected * (1.0 - expected) / decisions.size)
    assert abs(decisions.mean() - expected) < band


def test_calibrated_alpha_meets_closed_form_pfa():
    # Edge cells with short windows have heavier tails; with the window floor
    # applied they no longer pull the calibrated alpha off the i.i.d. value.
    cfar = CfarConfig()
    result = calibrate_alpha(cfar, exponential_profiles(cells=500), 1e-2, 800, seed=3)
    assert result.cells == 400_000
    assert so_cfar_pfa(result.alpha, cfar.window_cells) == pytest.approx(1e-2, rel=0.06)


def test_decisions_scale_invariant():
    rng = np.random.default_rng(5)
    profile = rng.exponential(1.0, 200)
    profile[50] = 40.0
    cfar = CfarConfig(window_cells=12, guard_cells=2, alpha=7.0)
    base = so_cfar(profile, cfar)
    for k in (1e-6, 3.7, 1e6):
        assert np.array_equal(so_cfar(k * profile, cfar), base)


def test_profile_too_short():
    with pytest.raises(ValueError):
        so_cfar(np.ones(37), CfarConfig(window_cells=16, guard_cells=2, alpha=1.0))


def test_so_cfar_requires_alpha():
    with pytest.raises(ValueError):
        so_cfar(np.ones(128), CfarConfig(window_cells=8, guard_cells=2))


def test_calibrate_median_regime():
    # pfa = 0.5 on exponential cells puts the threshold near the median.
    cfar = CfarConfig(window_cells=8, guard_cells=1)
    result = calibrate_alpha(cfar, exponential_profiles(), 0.5, 400, seed=0)
    assert 0.3 < result.alpha < 1.5
    assert result.empirical_pfa == pytest.approx(0.5, rel=0.05)


def test_calibrate_monotone_in_pfa():
    cfar = CfarConfig(window_cells=8, guard_cells=1)
    loose = calibrate_alpha(cfar, exponential_profiles(), 0.2, 800, seed=1)
    tight = calibrate_alpha(cfar, exponential_profiles(), 0.02, 800, seed=1)
    assert tight.alpha > loose.alpha


def test_calibrate_holds_on_independent_seed():
    cfar = CfarConfig(window_cells=8, guard_cells=1)
    result = calibrate_alpha(cfar, exponential_profiles(), 0.01, 1000, seed=2)
    fresh = exponential_profiles()(np.random.default_rng(3), 1000)
    lead, lag = reference_means(fresh, cfar)
    pfa = np.mean(fresh > result.alpha * np.fmin(lead, lag))
    assert pfa == pytest.approx(0.01, rel=0.2)


def test_calibrate_requires_enough_cells():
    with pytest.raises(ValueError):
        calibrate_alpha(CfarConfig(window_cells=8, guard_cells=1),
                        exponential_profiles(), 1e-4, 10, seed=0)


def test_calibrate_failure_on_degenerate_profiles():
    def constant_profiles(rng, count):
        return np.ones((count, 128))

    with pytest.raises(CalibrationError):
        calibrate_alpha(CfarConfig(window_cells=8, guard_cells=1),
                        constant_profiles, 0.5, 400, seed=0)


def test_scenario_validation():
    c = make_qam(16)
    with pytest.raises(ValueError):
        DetectionScenario(cfg=CFG, constellation=c, snr_grid_db=[0.0], pfa_target=2.0)
    with pytest.raises(ValueError):
        DetectionScenario(cfg=CFG, constellation=c, snr_grid_db=[0.0], trials=0)
    with pytest.raises(ValueError):
        DetectionScenario(cfg=CFG, constellation=c, snr_grid_db=[0.0], target_cell_offset=1)
    small = OfdmConfig(num_subcarriers=8, subcarrier_spacing=1.0, oversampling=2)
    with pytest.raises(ValueError):
        DetectionScenario(cfg=small, constellation=c, snr_grid_db=[0.0])


def test_pd_matches_pfa_without_target_or_interference():
    # Pure null hypothesis: no target and no self-interference leaves the
    # monitored cell with noise statistics only, so Pd collapses to Pfa.
    scn = DetectionScenario(
        cfg=CFG, constellation=make_qam(16), snr_grid_db=np.array([-300.0]),
        si_to_noise_db=-300.0, pfa_target=0.05, trials=2000, calib_trials=100, seed=6,
    )
    rows = pd_experiment(scn)
    pd = rows[0]["pd"]
    # binomial 3-sigma band around the false-alarm rate, plus slack for the
    # truncated-lead-window elevation at a near-edge cell
    band = 3 * np.sqrt(0.05 * 0.95 / 2000)
    assert abs(pd - 0.05) < band + 0.015


def test_pd_with_interference_only_stays_below_calibrated_pfa():
    # The interferer's deterministic sidelobes inflate the reference windows
    # around the (null-located) monitored cell, so its conditional
    # false-alarm rate lands at or below the noise-only calibration.
    scn = DetectionScenario(
        cfg=CFG, constellation=make_qam(16), snr_grid_db=np.array([-300.0]),
        pfa_target=0.05, trials=2000, calib_trials=100, seed=6,
    )
    assert pd_experiment(scn)[0]["pd"] < 0.05


def test_pd_saturates_at_high_snr():
    scn = DetectionScenario(
        cfg=CFG, constellation=make_psk(16), snr_grid_db=np.array([25.0]),
        pfa_target=1e-2, trials=500, calib_trials=200, seed=7,
    )
    rows = pd_experiment(scn)
    assert rows[0]["pd"] > 0.9


def test_pd_deterministic_and_thread_invariant():
    scn = DetectionScenario(
        cfg=CFG, constellation=make_qam(16), snr_grid_db=np.array([5.0, 12.0]),
        pfa_target=1e-2, trials=300, calib_trials=200, seed=8,
    )
    a = pd_experiment(scn, threads=1)
    b = pd_experiment(scn, threads=2)
    assert a == b


def test_pd_uses_supplied_alpha_without_calibration():
    cfar = CfarConfig(window_cells=16, guard_cells=2, alpha=40.0)
    scn = DetectionScenario(
        cfg=CFG, constellation=make_qam(16), snr_grid_db=np.array([20.0]),
        trials=200, cfar=cfar, seed=9,
    )
    rows = pd_experiment(scn)
    assert 0.0 <= rows[0]["pd"] <= 1.0


def test_pd_fast_path_matches_brute_force():
    # Same draws as pd_experiment (per-chunk children of child seed 1, symbols
    # before noise); every SNR point builds its received signal in full,
    # correlates it lag by lag and runs SO-CFAR on the whole instrumented
    # profile.
    cfg = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=4)
    scn = DetectionScenario(
        cfg=cfg, constellation=make_qam(16), snr_grid_db=np.array([-5.0, 0.0, 5.0, 10.0]),
        target_cell_offset=12, trials=150, cfar=CfarConfig(window_cells=8, alpha=6.0), seed=13,
    )
    fast = [round(row["pd"] * scn.trials) for row in pd_experiment(scn)]

    n = cfg.num_samples

    def draw(rng, count):
        symbols = scn.constellation.sample_symbols(count * 16, rng).reshape(count, 16)
        return symbols, _complex_noise(rng, (count, n), 1.0)

    parts = map_chunks(draw, np.random.SeedSequence(13).spawn(2)[1], scn.trials, PD_CHUNK, 1)
    symbols = np.concatenate([p[0] for p in parts])
    noise = np.concatenate([p[1] for p in parts])
    tx = symbol_signal_batch(cfg, symbols)
    delayed = np.zeros_like(tx)
    delayed[:, 12:] = tx[:, : n - 12]
    gain_si = math.sqrt(10.0 ** (scn.si_to_noise_db / 10.0) / 16)
    brute = []
    for snr in scn.snr_grid_db:
        rx = gain_si * tx + math.sqrt(10.0 ** (snr / 10.0) / 16) * delayed + noise
        hits = 0
        for r, t in zip(rx, tx):
            profile = np.abs(np.correlate(r, t, "full")[n - 1 :]) ** 2
            hits += bool(so_cfar(profile[: scn.instrumented_cells], scn.cfar)[12])
        brute.append(hits)
    assert fast == brute
    assert any(0 < h < scn.trials for h in brute)


def test_pd_point_does_not_depend_on_rest_of_grid():
    def scenario(grid):
        return DetectionScenario(
            cfg=CFG, constellation=make_qam(16), snr_grid_db=np.array(grid),
            pfa_target=1e-2, trials=300, calib_trials=200, seed=8,
        )

    assert pd_experiment(scenario([5.0, 12.0]))[1] == pd_experiment(scenario([12.0]))[0]
