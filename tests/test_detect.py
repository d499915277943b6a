import math
import re

import numpy as np
import pytest

from ofdm_pcs import detect
from ofdm_pcs.constellation import make_psk, make_qam
from ofdm_pcs.detect import (
    MF_BLOCK,
    PD_CHUNK,
    CalibrationError,
    CfarConfig,
    DetectionScenario,
    _complex_noise,
    _fft_length,
    _matched_filter_batch,
    calibrate_alpha,
    instrumented_range,
    noise_profile_sampler,
    pd_experiment,
    _so_statistic,
    reference_means,
    so_cfar,
)
from ofdm_pcs.mc import map_chunks
from ofdm_pcs.ofdm import OfdmConfig, symbol_signal_batch
from ofdm_pcs.pcs import PcsProblem, solve_pcs

from noise_oracles import band_limited_noise_profiles

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


def test_noise_profiles_correlate_adjacent_cells_as_the_oversampled_filter():
    # The matched filter passes L of the N = 4L bins, so the powers of adjacent
    # noise-only cells correlate by |D(1) / L|^2, D the Dirichlet kernel of
    # the L bins; 4x oversampling sets this value, the subcarrier spacing does not.
    L, N = CFG.num_subcarriers, CFG.num_samples
    closed_form = (np.sin(np.pi * L / N) / (L * np.sin(np.pi / N))) ** 2
    assert closed_form == pytest.approx(0.8106, abs=1e-4)
    profiles = noise_profile_sampler(CFG, make_qam(16))(np.random.default_rng(21), 2000)
    pooled = np.corrcoef(profiles[:, 20:60].ravel(), profiles[:, 21:61].ravel())[0, 1]
    assert abs(pooled - closed_form) <= 0.01


def test_calibrated_alpha_matches_the_band_limited_noise_model():
    # White noise kept to the L subcarrier bins stands in for the matched
    # filter's noise output; at Pfa 0.05 over 4,000 profiles each alpha reads
    # about 5.15 with a seed-to-seed spread of about 0.03.  Independent cells
    # read about 3.77, so the band tells the correlated profile apart.
    def alpha(profiles):
        return calibrate_alpha(CfarConfig(), profiles, 0.05).alpha

    model = alpha(band_limited_noise_profiles(np.random.default_rng(100), 4000))
    experiment = alpha(noise_profile_sampler(CFG, make_qam(16))(np.random.default_rng(200), 4000))
    independent = alpha(exponential_profiles()(np.random.default_rng(300), 4000))
    assert abs(experiment - model) <= 0.15 < abs(independent - model)


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


def test_matched_filter_batch_rejects_reference_of_other_length():
    # A shorter reference would be zero-padded into a correlation of the wrong signal.
    with pytest.raises(ValueError, match="128 samples.*256"):
        _matched_filter_batch(np.ones(256, complex), np.ones(128, complex))


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize(
    "rx_shape, ref_shape",
    [((-1, 256), (-1, 256)), ((-1, 2, 256), (-1, 1, 256)), ((-1, 256), (256,))],
    ids=["rows", "stacked-rows", "one-ref"],
)
def test_matched_filter_blocks_change_no_bit(rx_shape, ref_shape):
    # Two full blocks plus a remainder equal the same rows correlated one by one.
    count = 2 * MF_BLOCK + 37
    rng = np.random.default_rng(15)
    rx = complex_normal(rng, tuple(count if d < 0 else d for d in rx_shape))
    ref = complex_normal(rng, tuple(count if d < 0 else d for d in ref_shape))
    for lags in (128, 38, 256):
        got = _matched_filter_batch(rx, ref, lags)
        rows = [_matched_filter_batch(rx[i], ref if ref.ndim == 1 else ref[i], lags) for i in range(count)]
        assert np.array_equal(got, np.stack(rows))


@pytest.mark.parametrize(
    "n, lags", [(16, 1), (16, 2), (16, 15), (16, 16), (27, 1), (27, 2), (27, 26), (27, 27)]
)
def test_matched_filter_short_fft_has_no_wraparound(n, lags):
    # Lags 1, 2, N-1 and N.  N + lags - 1 is 5-smooth for (16, 1), (16, 15) and
    # (27, 1), and not for the rest; either way no negative lag may alias onto
    # the ones returned.
    rng = np.random.default_rng(16)
    rx = complex_normal(rng, (3, n))
    ref = complex_normal(rng, (3, n))
    got = _matched_filter_batch(rx, ref, lags)
    direct = np.stack(
        [np.sum(rx[..., k:] * np.conj(ref[..., : n - k]), axis=-1) for k in range(lags)], axis=-1
    )
    assert got.shape == (3, lags)
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_fft_length_is_smallest_five_smooth():
    smooth = sorted(
        2**a * 3**b * 5**c for a in range(11) for b in range(7) for c in range(5)
    )
    for m in range(1, 1025):
        assert _fft_length(m) == next(s for s in smooth if s >= m)
    assert [_fft_length(m) for m in (293, 383, 511)] == [300, 384, 512]


@pytest.mark.parametrize("lags", [0, -3, 17, 20, 40])
def test_matched_filter_rejects_lags_outside_row(lags):
    with pytest.raises(ValueError, match=f"lags must be in 1..16.*got {lags}"):
        _matched_filter_batch(np.ones(16, complex), np.ones(16, complex), lags)


@pytest.mark.parametrize("cell", [0, 5, 60, 127], ids=["first", "edge", "interior", "last"])
def test_one_cell_decision_matches_full_profile(cell):
    # Cell 5 keeps 3 leading cells, under the floor of 4, so its lead is NaN;
    # cells 0 and 127 have one window missing outright.
    cfar = CfarConfig(window_cells=16, guard_cells=2, alpha=3.0)
    profiles = np.random.default_rng(17).exponential(size=(3, 200, 128))
    lead, lag = reference_means(profiles, cfar)
    one_lead, one_lag = reference_means(profiles, cfar, cell)
    assert np.array_equal(one_lead, lead[..., cell], equal_nan=True)
    assert np.array_equal(one_lag, lag[..., cell], equal_nan=True)
    assert np.isnan(one_lead).all() == (cell in (0, 5))
    assert np.isnan(one_lag).all() == (cell == 127)
    decisions = so_cfar(profiles, cfar, cell)
    assert decisions.shape == (3, 200)
    assert np.array_equal(decisions, so_cfar(profiles, cfar)[..., cell])
    assert 0 < np.count_nonzero(decisions) < decisions.size


def test_one_cell_means_need_only_the_cells_windows():
    # Cell 8's lagging window (guard 2, window 16) ends at cell 26: a 27-cell
    # cut gives the means of the full profile, and a 26-cell one is refused.
    cfar = CfarConfig(window_cells=16, guard_cells=2, alpha=3.0)
    profiles = np.random.default_rng(18).exponential(size=(50, 128))
    full = reference_means(profiles, cfar, 8)
    cut = reference_means(profiles[:, :27], cfar, 8)
    for a, b in zip(cut, full):
        assert a.tobytes() == b.tobytes()
    assert np.isfinite(cut).all()
    with pytest.raises(ValueError, match="profile with 26 cells .* at cell 8 [(]needs 27[)]"):
        reference_means(profiles[:, :26], cfar, 8)
    # The whole-profile form still needs the CFAR minimum.
    with pytest.raises(ValueError, match="profile with 27 cells .* guard=2 [(]needs 38[)]"):
        reference_means(profiles[:, :27], cfar)


def test_three_part_decision_matches_built_profiles():
    # |C0 + g C1|^2 is quadratic in g; deciding on its three parts' window
    # means gives so_cfar's decisions on the profiles built for every g.
    rng = np.random.default_rng(19)
    c0, c1 = (rng.standard_normal((300, 40)) + 1j * rng.standard_normal((300, 40)) for _ in range(2))
    gains = np.array([0.0, 0.3, 1.0, 2.5])[:, None]
    cfar = CfarConfig(window_cells=8, guard_cells=2, alpha=4.0)
    parts = np.stack([abs(c0) ** 2, abs(c1) ** 2, 2.0 * (c0 * c1.conj()).real])
    decided = _so_statistic(parts, cfar, 12, lambda p: p[0] + gains**2 * p[1] + gains * p[2]) > cfar.alpha
    profiles = np.abs(c0 + gains[..., None] * c1) ** 2
    assert np.array_equal(decided, so_cfar(profiles, cfar, 12))
    assert 0 < np.count_nonzero(decided) < decided.size


@pytest.mark.parametrize("shape", [(1000, 256), (200, 256), (333,)])
def test_complex_noise_bits(shape):
    want = np.random.default_rng(20)
    scale = math.sqrt(2.5 / 2.0)
    expected = scale * (want.standard_normal(shape) + 1j * want.standard_normal(shape))
    got = np.random.default_rng(20)
    assert _complex_noise(got, shape, 2.5).tobytes() == expected.tobytes()
    assert got.standard_normal(4).tobytes() == want.standard_normal(4).tobytes()


@pytest.mark.parametrize("cell", [-1, 128])
def test_one_cell_decision_rejects_cell_outside_profile(cell):
    cfar = CfarConfig(window_cells=16, guard_cells=2, alpha=3.0)
    with pytest.raises(ValueError, match=f"cell must be in 0..127, got {cell}"):
        so_cfar(np.ones(128), cfar, cell)


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
    cfar = CfarConfig(window_cells=8, guard_cells=2)
    lead, lag = reference_means(profile, cfar)
    # cell i has a lead window of i - 2 cells: below the floor up to cell 5
    assert np.isnan(lead[:6]).all() and np.isfinite(lead[6:]).all()
    assert lead[6] == pytest.approx(np.mean(profile[0:4]))
    assert np.isnan(lag[-6:]).all() and np.isfinite(lag[:-6]).all()
    # A window narrower than the floor counts when whole: two cells here,
    # with cell i's lead window i - 1 cells long until it fills.
    lead, lag = reference_means(profile, CfarConfig(window_cells=2, guard_cells=1))
    assert np.isnan(lead[:3]).all() and np.isfinite(lead[3:]).all()
    assert lead[3] == pytest.approx(np.mean(profile[0:2]))
    assert np.isnan(lag[-3:]).all() and np.isfinite(lag[:-3]).all()


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
    result = calibrate_alpha(cfar, exponential_profiles(cells=500)(np.random.default_rng(3), 800), 1e-2)
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
    result = calibrate_alpha(cfar, exponential_profiles()(np.random.default_rng(0), 400), 0.5)
    assert 0.3 < result.alpha < 1.5
    assert result.empirical_pfa == pytest.approx(0.5, rel=0.05)


def test_calibrate_monotone_in_pfa():
    cfar = CfarConfig(window_cells=8, guard_cells=1)
    loose = calibrate_alpha(cfar, exponential_profiles()(np.random.default_rng(1), 800), 0.2)
    tight = calibrate_alpha(cfar, exponential_profiles()(np.random.default_rng(1), 800), 0.02)
    assert tight.alpha > loose.alpha


def test_calibrate_holds_on_independent_seed():
    cfar = CfarConfig(window_cells=8, guard_cells=1)
    result = calibrate_alpha(cfar, exponential_profiles()(np.random.default_rng(2), 1000), 0.01)
    fresh = exponential_profiles()(np.random.default_rng(3), 1000)
    lead, lag = reference_means(fresh, cfar)
    pfa = np.mean(fresh > result.alpha * np.fmin(lead, lag))
    assert pfa == pytest.approx(0.01, rel=0.2)


def test_calibrate_requires_enough_cells():
    with pytest.raises(ValueError):
        calibrate_alpha(CfarConfig(window_cells=8, guard_cells=1),
                        exponential_profiles()(np.random.default_rng(0), 10), 1e-4)


def test_calibrate_failure_on_degenerate_profiles():
    def constant_profiles(rng, count):
        return np.ones((count, 128))

    with pytest.raises(CalibrationError):
        calibrate_alpha(CfarConfig(window_cells=8, guard_cells=1),
                        constant_profiles(np.random.default_rng(0), 400), 0.5)


def _kth_largest_oracle(profiles, cfar, pfa_target):
    """The (k+1)-th largest cell/background ratio by a full sort, with k the
    largest count whose rate ``k / cells`` is within ``pfa_target``."""
    lead, lag = reference_means(profiles, cfar)
    background = np.fmin(lead, lag)
    finite = np.isfinite(background)
    with np.errstate(divide="ignore"):
        ratios = np.sort(profiles[finite] / background[finite])[::-1]
    cells = ratios.size
    k = np.flatnonzero(np.arange(cells + 1) / cells <= pfa_target)[-1]
    return ratios[k]


@pytest.mark.parametrize("pfa", [1e-3, 1e-2])
@pytest.mark.parametrize(
    "sampler",
    [noise_profile_sampler(CFG, make_qam(16)), exponential_profiles()],
    ids=["qam16", "exponential"],
)
def test_calibrate_selects_exact_order_statistic(sampler, pfa):
    # Alpha is the smallest ratio whose exceedance rate meets the target, so
    # the empirical rate never exceeds it, not even by one cell's 1 / cells.
    # so_cfar at that alpha trips exactly the reported share of the same cells.
    cfar = CfarConfig()
    for seed in range(4):
        profiles = sampler(np.random.default_rng(seed), 1000)
        result = calibrate_alpha(cfar, profiles, pfa)
        expected = _kth_largest_oracle(profiles, cfar, pfa)
        assert np.float64(result.alpha).tobytes() == expected.tobytes(), seed
        assert result.empirical_pfa <= pfa, seed
        assert result.iterations == 1
        tripped = np.count_nonzero(so_cfar(profiles, CfarConfig(alpha=result.alpha)))
        assert tripped / result.cells == result.empirical_pfa, seed


@pytest.mark.parametrize(
    ("pfa", "truncated", "allowed"),
    [(0.29, 927, 928), (math.nextafter(134 / 3200, 0), 134, 133)],
    ids=["int-reads-low", "int-reads-high"],
)
def test_calibrate_allowed_count_uses_float_rate(pfa, truncated, allowed):
    # The allowed count is the largest whose float rate count / cells is
    # within the target, one off int(pfa * cells) at these targets.
    assert int(pfa * 3200) == truncated
    cfar = CfarConfig(window_cells=8, guard_cells=1)
    sampler = exponential_profiles()
    result = calibrate_alpha(cfar, sampler(np.random.default_rng(5), 25), pfa)
    assert result.cells == 3200
    assert result.empirical_pfa == allowed / 3200
    expected = _kth_largest_oracle(sampler(np.random.default_rng(5), 25), cfar, pfa)
    assert np.float64(result.alpha).tobytes() == expected.tobytes()


def zero_window_profiles(rows):
    """Exponential profiles whose cells 40..47 are exactly zero in ``rows``:
    that stretch is the whole lagging window of cell 38 and the whole
    leading window of cell 49 under an 8-cell window behind 1 guard cell."""

    def sampler(rng, count):
        profiles = rng.exponential(1.0, size=(count, 128))
        profiles[rows, 40:48] = 0.0
        return profiles

    return sampler


def test_calibrate_counts_zero_backgrounds_as_exceedances():
    cfar = CfarConfig(window_cells=8, guard_cells=1)
    sampler = zero_window_profiles([3, 70, 211])
    profiles = sampler(np.random.default_rng(4), 400)
    lead, lag = reference_means(profiles, cfar)
    background = np.fmin(lead, lag)
    assert np.count_nonzero(background == 0) == 6
    result = calibrate_alpha(cfar, profiles, 1e-2)
    assert np.isfinite(result.alpha)
    assert np.float64(result.alpha).tobytes() == _kth_largest_oracle(profiles, cfar, 1e-2).tobytes()
    decisions = so_cfar(profiles, CfarConfig(window_cells=8, guard_cells=1, alpha=result.alpha))
    assert decisions[background == 0].all()
    assert np.count_nonzero(decisions) / result.cells == result.empirical_pfa


def test_zero_background_statistic():
    # Cells 40..49 are zero: cell 38's lagging window and cell 49's leading
    # window hold only zeros, so both backgrounds are 0.  The positive cell 38
    # trips at any alpha; the zero cell 49 never does.
    profile = np.ones(128)
    profile[40:50] = 0.0
    cfar = CfarConfig(window_cells=8, guard_cells=1, alpha=1e-300)
    lead, lag = reference_means(profile, cfar)
    assert np.fmin(lead, lag)[38] == np.fmin(lead, lag)[49] == 0.0
    assert _so_statistic(profile, cfar)[[38, 49]].tolist() == [np.inf, 0.0]
    decisions = so_cfar(profile, cfar)
    assert decisions[38] and not decisions[49]


@pytest.mark.parametrize("guard", range(6))
def test_every_cell_has_a_finite_background(guard):
    # From the CFAR minimum length on, one of every cell's windows is whole,
    # so every statistic has a finite background.
    for window in range(1, 20):
        cfar = CfarConfig(window_cells=window, guard_cells=guard)
        for n in range(cfar.min_profile_len(), cfar.min_profile_len() + 40):
            lead, lag = reference_means(np.ones(n), cfar)
            assert np.isfinite(np.fmin(lead, lag)).all(), (window, n)


def test_calibrate_fails_with_more_zero_backgrounds_than_exceedances():
    # 2 zero backgrounds in each of 400 rows exceed the ~496 false alarms a
    # 1e-2 target allows, so the selected ratio is inf.
    cfar = CfarConfig(window_cells=8, guard_cells=1)
    with pytest.raises(CalibrationError, match="alpha inf"):
        calibrate_alpha(cfar, zero_window_profiles(slice(None))(np.random.default_rng(4), 400), 1e-2)


def test_calibrate_rejects_zero_alpha():
    # Every 4th cell is 1 and the rest 0: a quarter of the ratios are positive,
    # within the 20 % band of a 0.3 target, but the selected ratio is 0.
    def sparse_profiles(rng, count):
        return np.tile(np.arange(128) % 4 == 0, (count, 1)).astype(float)

    with pytest.raises(CalibrationError, match="alpha 0"):
        calibrate_alpha(CfarConfig(window_cells=8, guard_cells=1),
                        sparse_profiles(np.random.default_rng(0), 400), 0.3)


def test_scenario_validation():
    c = make_qam(16)
    with pytest.raises(ValueError):
        DetectionScenario(cfg=CFG, constellations=(c,), snr_grid_db=[0.0], pfa_target=2.0)
    with pytest.raises(ValueError):
        DetectionScenario(cfg=CFG, constellations=(c,), snr_grid_db=[0.0], trials=0)
    with pytest.raises(ValueError):
        DetectionScenario(cfg=CFG, constellations=(c,), snr_grid_db=[0.0], target_cell_offset=1)
    small = OfdmConfig(num_subcarriers=8, subcarrier_spacing=1.0, oversampling=2)
    with pytest.raises(ValueError):
        DetectionScenario(cfg=small, constellations=(c,), snr_grid_db=[0.0])


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"calib_trials": 10},
         "calib_trials 10: 1280 cells expect 1.3 false alarms at pfa_target 0.001; calibration needs >= 100"),
        ({"calib_trials": 0},
         "calib_trials 0: 0 cells expect 0.0 false alarms at pfa_target 0.001; calibration needs >= 100"),
        ({"pfa_target": 0.0}, "pfa_target must be in (0, 1), got 0.0"),
        ({"pfa_target": 1.0, "cfar": CfarConfig(alpha=20.0)}, "pfa_target must be in (0, 1), got 1.0"),
    ],
    ids=["calib-trials-10", "calib-trials-0", "pfa-0", "pfa-1-with-alpha"],
)
def test_scenario_checks_calibration_before_any_draw(fields, message):
    # 128 instrumented cells per calibration trial: 10 trials expect 1.3 false
    # alarms at the 1e-3 default, against the 100 calibration needs.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DetectionScenario(cfg=CFG, constellations=(make_qam(16),), snr_grid_db=[0.0], **fields)


def test_scenario_names_its_fields_when_the_cfar_windows_overrun_the_profile():
    # 16 subcarriers at 4x oversampling instrument 32 cells, short of the 38
    # the default windows need; the check that the CLI runs by its flags'
    # names runs here by the scenario's fields.
    message = (
        "window_cells 16 and guard_cells 2 need 2*(window_cells + guard_cells) + 2 = 38 cells; "
        "num_subcarriers 16 at oversampling 4 instrument 32"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DetectionScenario(
            cfg=OfdmConfig(num_subcarriers=16), constellations=(make_qam(16),), snr_grid_db=[0.0],
            pfa_target=0.01,
        )


def test_scenario_with_alpha_takes_any_calibration_size():
    # A supplied alpha skips calibration, so the calibration size is not checked.
    scn = DetectionScenario(
        cfg=CFG, constellations=(make_qam(16),), snr_grid_db=[0.0], calib_trials=0,
        cfar=CfarConfig(alpha=20.0),
    )
    assert scn.calib_trials == 0


def test_scenario_needs_a_constellation():
    with pytest.raises(ValueError, match="constellations"):
        DetectionScenario(cfg=CFG, constellations=(), snr_grid_db=[0.0])


@pytest.mark.parametrize(
    ("field", "entry", "value"),
    [
        pytest.param("si_to_noise_db", 1e308, 1e308, id="si-huge"),
        pytest.param("si_to_noise_db", float("nan"), float("nan"), id="si-nan"),
        pytest.param("snr_grid_db", [0.0, -313.5], -313.5, id="snr-below"),
        pytest.param("snr_grid_db", [float("inf"), 5.0], float("inf"), id="snr-inf"),
    ],
)
def test_scenario_rejects_db_beyond_precision(monkeypatch, field, entry, value):
    # Beyond +-313 dB the weaker signal is lost below one ulp of the stronger:
    # the scenario refuses such a value by its field's name, before any draw
    # or calibration can run.
    def no_work(*args, **kwargs):
        raise AssertionError("calibration started")

    monkeypatch.setattr(detect, "calibrate_alpha", no_work)
    args = {"cfg": CFG, "constellations": (make_qam(16),), "snr_grid_db": [0.0], field: entry}
    message = f"{field} entries must lie within +-313.071 dB, got [{value!r}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pd_experiment(DetectionScenario(**args))
    # The bound itself is accepted.
    limit = -20.0 * np.log10(np.finfo(float).eps)
    DetectionScenario(
        cfg=CFG, constellations=(make_qam(16),), snr_grid_db=[-limit, limit], si_to_noise_db=limit
    )


def test_pd_matches_pfa_without_target_or_interference():
    # Pure null hypothesis: no target and no self-interference leaves the
    # monitored cell with noise statistics only, so Pd collapses to the null
    # rate at that cell.  Cell 8's leading window is cut to 6 cells and its
    # neighbours' powers correlate by 0.81, so that rate is not the 0.05
    # target: the band-limited noise model, calibrated on 4,000 profiles and
    # thresholded at cell 8 over 20,000 fresh ones from its seed, reads
    # 0.0817 +- 0.0019.
    rng = np.random.default_rng(100)
    alpha = calibrate_alpha(CfarConfig(), band_limited_noise_profiles(rng, 4000), 0.05).alpha
    null_hits = sum(
        np.count_nonzero(so_cfar(band_limited_noise_profiles(rng, 4000), CfarConfig(alpha=alpha), 8))
        for _ in range(5)
    )
    scn = DetectionScenario(
        cfg=CFG, constellations=(make_qam(16),), snr_grid_db=np.array([-300.0]),
        si_to_noise_db=-300.0, pfa_target=0.05, trials=2000, calib_trials=100, seed=6,
    )
    pd = pd_experiment(scn).pd[0, 0]
    # binomial 3-sigma band at the target rate, plus slack for the wider
    # spread at the higher null rate, for calibrating on 100 trials and for
    # the model rate's own error
    band = 3 * np.sqrt(0.05 * 0.95 / 2000)
    assert abs(pd - null_hits / 20000) < band + 0.015


def test_pd_with_interference_only_stays_below_calibrated_pfa():
    # The interferer's deterministic sidelobes inflate the reference windows
    # around the (null-located) monitored cell, so its conditional
    # false-alarm rate lands at or below the noise-only calibration.
    scn = DetectionScenario(
        cfg=CFG, constellations=(make_qam(16),), snr_grid_db=np.array([-300.0]),
        pfa_target=0.05, trials=2000, calib_trials=100, seed=6,
    )
    assert pd_experiment(scn).pd[0, 0] < 0.05


def test_pd_saturates_at_high_snr():
    scn = DetectionScenario(
        cfg=CFG, constellations=(make_psk(16),), snr_grid_db=np.array([25.0]),
        pfa_target=1e-2, trials=500, calib_trials=200, seed=7,
    )
    assert pd_experiment(scn).pd[0, 0] > 0.9


def test_pd_deterministic_and_thread_invariant():
    scn = DetectionScenario(
        cfg=CFG, constellations=(make_qam(16),), snr_grid_db=np.array([5.0, 12.0]),
        pfa_target=1e-2, trials=300, calib_trials=200, seed=8,
    )
    a = pd_experiment(scn, threads=1)
    b = pd_experiment(scn, threads=2)
    assert all(map(np.array_equal, a, b))


def test_pd_uses_supplied_alpha_without_calibration():
    cfar = CfarConfig(window_cells=16, guard_cells=2, alpha=40.0)
    scn = DetectionScenario(
        cfg=CFG, constellations=(make_qam(16),), snr_grid_db=np.array([20.0]),
        trials=200, cfar=cfar, seed=9,
    )
    result = pd_experiment(scn)
    assert 0.0 <= result.pd[0, 0] <= 1.0
    assert (result.alpha.tolist(), result.empirical_pfa) == ([40.0], None)


def test_pd_fast_path_matches_brute_force():
    # Same draws as pd_experiment (per-chunk children of child seed 1, symbols
    # before noise); gain 0 (the null hits) and every SNR point build their
    # received signal in full, correlate it lag by lag and run SO-CFAR on the
    # whole instrumented profile.
    cfg = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=4)
    scn = DetectionScenario(
        cfg=cfg, constellations=(make_qam(16),), snr_grid_db=np.array([-5.0, 0.0, 5.0, 10.0]),
        target_cell_offset=12, trials=150, cfar=CfarConfig(window_cells=8, alpha=6.0), seed=13,
    )
    result = pd_experiment(scn)
    fast = [int(result.null_hits[0])] + [round(pd * scn.trials) for pd in result.pd[0]]

    n = cfg.num_samples

    def draw(rng, count):
        symbols = scn.constellations[0].sample_symbols(count * 16, rng).reshape(count, 16)
        return [(symbols, _complex_noise(rng, (count, n), 1.0))]

    parts = map_chunks(draw, np.random.SeedSequence(13).spawn(2)[1], scn.trials, PD_CHUNK, 1)
    symbols = np.concatenate([p[0] for p in parts])
    noise = np.concatenate([p[1] for p in parts])
    tx = symbol_signal_batch(cfg, symbols)
    delayed = np.zeros_like(tx)
    delayed[:, 12:] = tx[:, : n - 12]
    gain_si = math.sqrt(10.0 ** (scn.si_to_noise_db / 10.0) / 16)
    brute = []
    for gain in [0.0] + [math.sqrt(10.0 ** (snr / 10.0) / 16) for snr in scn.snr_grid_db]:
        rx = gain_si * tx + gain * delayed + noise
        hits = 0
        for r, t in zip(rx, tx):
            profile = np.abs(np.correlate(r, t, "full")[n - 1 :]) ** 2
            hits += bool(so_cfar(profile[: instrumented_range(scn.cfg)], scn.cfar)[12])
        brute.append(hits)
    assert fast == brute
    assert brute[0] > 0 and any(0 < h < scn.trials for h in brute[1:])


def test_pd_point_does_not_depend_on_rest_of_grid():
    def scenario(grid):
        return DetectionScenario(
            cfg=CFG, constellations=(make_qam(16),), snr_grid_db=np.array(grid),
            pfa_target=1e-2, trials=300, calib_trials=200, seed=8,
        )

    assert pd_experiment(scenario([5.0, 12.0])).pd[0, 1] == pd_experiment(scenario([12.0])).pd[0, 0]


def _three_curves():
    shaped = make_qam(16).with_probs(solve_pcs(PcsProblem(make_qam(16).amplitudes, 1.64)).probs)
    return (make_qam(16), shaped, make_psk(8))


@pytest.mark.parametrize("threads", [1, 2])
def test_each_curve_of_a_sweep_equals_its_run_alone(threads):
    # Three chunks (two full, one of 37 trials) on common random numbers: each
    # curve's alpha and rows are those of a one-curve run of its constellation,
    # bit for bit, whatever the thread count.
    curves = _three_curves()

    def scenario(constellations):
        return DetectionScenario(
            cfg=CFG, constellations=constellations, snr_grid_db=np.array([0.0, 6.0, 12.0]),
            pfa_target=1e-2, trials=2 * PD_CHUNK + 37, calib_trials=100, seed=11,
        )

    sweep = pd_experiment(scenario(curves), threads=threads)
    assert sweep.pd.shape == (3, 3)
    for i, c in enumerate(curves):
        alone = pd_experiment(scenario((c,)), threads=threads)
        assert all(np.array_equal(field, whole[i : i + 1]) for field, whole in zip(alone, sweep))
    assert len(set(sweep.alpha)) == 3


def test_each_curve_reports_the_calibration_of_its_child_zero_profiles():
    # Each curve reports its own calibration: calibrate_alpha on a
    # one-curve sampler's profiles from child 0 of the seed, bit for bit.
    curves = _three_curves()
    scn = DetectionScenario(
        cfg=CFG, constellations=curves, snr_grid_db=np.array([0.0, 6.0]),
        pfa_target=1e-2, trials=20, calib_trials=100, seed=14,
    )
    calib_seed = np.random.SeedSequence(14).spawn(2)[0]
    expected = []
    for c in curves:
        result = calibrate_alpha(
            scn.cfar, noise_profile_sampler(CFG, c)(np.random.default_rng(calib_seed), 100), 1e-2
        )
        expected.append((result.alpha, result.empirical_pfa))
    found = pd_experiment(scn)
    assert list(zip(found.alpha.tolist(), found.empirical_pfa.tolist())) == expected
    assert all(pfa <= 1e-2 for _, pfa in expected)


@pytest.mark.parametrize("count", [1, 3])
def test_noise_is_drawn_once_per_calibration_and_chunk(monkeypatch, count):
    # One draw for calibration and one per chunk, shared by every curve.
    calls = []

    def counted(rng, shape, variance):
        calls.append(shape)
        return _complex_noise(rng, shape, variance)

    monkeypatch.setattr(detect, "_complex_noise", counted)
    scn = DetectionScenario(
        cfg=CFG, constellations=_three_curves()[:count], snr_grid_db=np.array([6.0]),
        pfa_target=1e-2, trials=2 * PD_CHUNK + 37, calib_trials=100, seed=12,
    )
    pd_experiment(scn)
    assert calls == [(100, 256), (PD_CHUNK, 256), (PD_CHUNK, 256), (37, 256)]
