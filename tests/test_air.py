import math
import re

import numpy as np
import pytest

import ofdm_pcs.air
from ofdm_pcs.air import (
    AIR_CHUNK,
    AirConfig,
    air_mc,
    air_vs_c0,
    air_vs_snr,
    sigma2_from_snr_db,
)
from ofdm_pcs.constellation import Constellation, make_psk, make_qam
from ofdm_pcs.mc import map_chunks
from ofdm_pcs.pcs import PcsProblem, solve_pcs


def grid_mi_oracle(points, probs, sigma2, half_width=6.0, step=0.01):
    """Independent oracle: 2-D Riemann integration of the mixture entropy.

    Computes H(Y) for y = x + n on a fine grid, then subtracts the analytic
    conditional entropy.  Only practical for small constellations.
    """
    axis = np.arange(-half_width, half_width, step)
    re, im = np.meshgrid(axis, axis)
    y = re + 1j * im
    density = np.zeros_like(re)
    for x, p in zip(points, probs):
        density += p * np.exp(-np.abs(y - x) ** 2 / sigma2) / (np.pi * sigma2)
    mass = density * step * step
    keep = mass > 0
    h_y = -np.sum(mass[keep] * np.log2(density[keep]))
    return h_y - np.log2(np.pi * np.e * sigma2)


def same_draw_oracle(constellation, cfg):
    """``air_mc`` recomputed on its own draws with the plain complex formula.

    Draws the indices, then the real and the imaginary noise, per chunk
    through ``map_chunks`` as ``air_mc`` does, and evaluates
    ``-log2 sum_q p_q exp(-|y - x_q|^2 / sigma^2)`` with complex ``|y - x|^2``
    and ``np.logaddexp.reduce`` over the points, without any exponent floor.
    """
    sigma2 = cfg.noise_variance
    mask = constellation.probs > 0
    points = constellation.points[mask]
    prior = constellation.probs[mask]

    def partials(rng, count):
        idx = rng.choice(points.size, size=count, p=prior / prior.sum())
        noise = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        y = points[idx] + noise * math.sqrt(sigma2 / 2.0)
        ll = np.log(prior)[None, :] - np.abs(y[:, None] - points[None, :]) ** 2 / sigma2
        r = -np.logaddexp.reduce(ll, axis=1) / np.log(2.0) - 1.0 / np.log(2.0)
        return np.array([r.sum(), (r * r).sum()])

    total, squares = map_chunks(partials, cfg.seed, cfg.mc_trials, AIR_CHUNK, 1)
    mean = total / cfg.mc_trials
    var = max(squares / cfg.mc_trials - mean * mean, 0.0)
    return mean, math.sqrt(var / cfg.mc_trials)


def _with_rare_points():
    # ring8 plus one inner and one outer point at prior 1e-12: still unit power
    base = make_qam(16)
    ring = np.isclose(base.energies, 1.0)
    probs = np.where(ring, (1.0 - 2e-12) / 8, 0.0)
    probs[np.argmin(base.energies)] = 1e-12
    probs[np.argmax(base.energies)] = 1e-12
    return base.with_probs(probs)


def _ring8():
    # qam16's middle ring: the nearest real and imaginary parts to an
    # observation may form no point of it, as (1, 1) / sqrt(10) is not one.
    base = make_qam(16)
    return base.with_probs(np.where(np.isclose(base.energies, 1.0), 1 / 8, 0.0))


@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 30.0, 60.0])
@pytest.mark.parametrize(
    "constellation, trials",
    [
        (make_qam(16), 3_000),
        (make_psk(16), 3_000),
        (make_qam(256), 2_000),
        (_with_rare_points(), 3_000),
        (_ring8(), 3_000),
        (make_qam(16), 2 * AIR_CHUNK + 123),
    ],
    ids=["qam16", "psk16", "qam256", "qam16-rare-points", "ring8", "qam16-chunked"],
)
def test_air_mc_matches_same_draw_oracle(constellation, trials, snr_db):
    cfg = AirConfig(sigma2_from_snr_db(snr_db), trials, 17)
    rate, std_error = same_draw_oracle(constellation, cfg)
    est = air_mc(constellation, cfg)
    assert est.rate == pytest.approx(rate, rel=1e-12)
    assert est.std_error == pytest.approx(std_error, rel=1e-12)


@pytest.mark.parametrize(
    "constellation, snr_db",
    [
        (make_qam(16), 30.0),
        (make_qam(16), 60.0),
        (make_qam(256), 40.0),
        (_with_rare_points(), 30.0),
        (_with_rare_points(), 60.0),
        (_with_rare_points(), 313.0),
        (make_psk(16), 30.0),
        (make_psk(16), 60.0),
        (make_psk(16), 313.0),
    ],
    ids=[
        "qam16-30dB", "qam16-60dB", "qam256-40dB", "rare-points-30dB", "rare-points-60dB",
        "rare-points-313dB", "psk16-30dB", "psk16-60dB", "psk16-313dB",
    ],
)
def test_air_mc_raises_no_floating_point_error(constellation, snr_db):
    # exp of a far part's exponent would underflow without the floor, and a
    # rare point's prior times two floored factors must stay a normal double
    with np.errstate(all="raise"):
        est = air_mc(constellation, AirConfig(sigma2_from_snr_db(snr_db), 5_000, 4))
    assert np.isfinite(est.rate) and np.isfinite(est.std_error)


def test_degenerate_constellation_rate_zero():
    single = Constellation(np.array([1.0 + 0j]), np.array([1.0]))
    est = air_mc(single, AirConfig(0.5, 50_000, 2))
    assert abs(est.rate) < 0.01


def test_bpsk_matches_grid_oracle():
    c = make_psk(2)
    sigma2 = 0.5
    oracle = grid_mi_oracle(c.points, c.probs, sigma2)
    est = air_mc(c, AirConfig(sigma2, 200_000, 3))
    assert est.rate == pytest.approx(oracle, abs=3 * est.std_error + 2e-3)


def test_qpsk_matches_grid_oracle():
    c = make_psk(4)
    sigma2 = 0.25
    oracle = grid_mi_oracle(c.points, c.probs, sigma2)
    est = air_mc(c, AirConfig(sigma2, 200_000, 4))
    assert est.rate == pytest.approx(oracle, abs=3 * est.std_error + 2e-3)


def test_rate_bounded_by_input_entropy():
    c = make_qam(16)
    est = air_mc(c, AirConfig(0.1, 50_000, 5))
    # Uniform qam16 carries log2(16) bits.
    assert 0.0 <= est.rate <= np.log2(c.order) + 3 * est.std_error


def test_rate_vanishes_in_heavy_noise():
    est = air_mc(make_qam(16), AirConfig(1e4, 50_000, 6))
    assert abs(est.rate) <= 3 * est.std_error + 1e-3


def test_high_snr_saturates_entropy():
    # Tiny noise must not overflow the mixture log-density.
    est = air_mc(make_qam(16), AirConfig(1e-12, 20_000, 7))
    assert np.isfinite(est.rate)
    assert est.rate == pytest.approx(4.0, abs=3 * est.std_error + 1e-6)


def test_shaped_ring_rate():
    est = air_mc(_ring8(), AirConfig(0.01, 100_000, 8))
    assert est.rate == pytest.approx(3.0, abs=0.05)


def test_std_error_scaling():
    c = make_qam(16)
    base = air_mc(c, AirConfig(0.25, 30_000, 9))
    double = air_mc(c, AirConfig(0.25, 60_000, 9))
    ratio = double.std_error / base.std_error
    assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.3)


def test_estimate_reproducible():
    c = make_qam(16)
    a = air_mc(c, AirConfig(0.1, 20_000, 10))
    b = air_mc(c, AirConfig(0.1, 20_000, 10))
    assert a.rate == b.rate and a.std_error == b.std_error


def test_sigma2_from_snr():
    assert sigma2_from_snr_db(10.0) == pytest.approx(0.1)
    assert sigma2_from_snr_db(0.0) == 1.0


def test_air_vs_c0_rows():
    sols, est = air_vs_c0(make_qam(16), [1.0, 1.32], AirConfig(0.01, 20_000, 0))
    assert est.rate.shape == est.std_error.shape == (2,)
    assert est.rate[1] > est.rate[0]
    assert sols[0].entropy_bits == pytest.approx(3.0, abs=1e-9)
    assert sols[1].entropy_bits == pytest.approx(4.0, abs=1e-9)
    for s in sols:
        assert s.gap <= 1e-8


def test_air_vs_c0_saturates_beyond_feasible_maximum():
    # Targets past the feasible fourth-moment maximum clamp to the same
    # distribution, so the rate stays constant up to Monte-Carlo error.
    sols, est = air_vs_c0(make_qam(16), [1.64, 2.0, 3.0], AirConfig(0.01, 40_000, 6))
    rates, ses = est.rate, est.std_error
    for i in (1, 2):
        assert abs(rates[i] - rates[0]) <= 3 * (ses[i] + ses[0])
        assert sols[i].entropy_bits == pytest.approx(sols[0].entropy_bits, abs=1e-9)


def test_air_vs_c0_thread_invariance():
    cfg = AirConfig(0.05, 10_000, 1)
    serial = air_vs_c0(make_qam(16), [1.0, 1.2, 1.32], cfg, threads=1)[1]
    parallel = air_vs_c0(make_qam(16), [1.0, 1.2, 1.32], cfg, threads=3)[1]
    assert np.array_equal(serial.rate, parallel.rate) and np.array_equal(serial.std_error, parallel.std_error)
    constellations = [make_qam(16), make_psk(16)]
    serial = air_vs_snr(constellations, [0.0, 10.0], 10_000, 1, threads=1)
    parallel = air_vs_snr(constellations, [0.0, 10.0], 10_000, 1, threads=3)
    assert np.array_equal(serial.rate, parallel.rate) and np.array_equal(serial.std_error, parallel.std_error)


def test_air_sweeps_seed_layout():
    # Every cell of the SNR sweep and every row of the c0 sweep draws from the
    # sweep's own seed, exactly as a lone air_mc call at that noise variance.
    constellations = [make_qam(16), make_psk(16), make_psk(8)]
    snrs, mc, seed = [0.0, 8.0], 3_000, 5
    sweep = air_vs_snr(constellations, snrs, mc, seed, threads=2)
    for i, snr in enumerate(snrs):
        for k, c in enumerate(constellations):
            assert sweep.rate[k, i] == air_mc(c, AirConfig(sigma2_from_snr_db(snr), mc, seed)).rate
    # A constellation's rates are the same alone as beside other constellations.
    alone = air_vs_snr(constellations[1:2], snrs, mc, seed)
    assert np.array_equal(alone.rate[0], sweep.rate[1])
    base, c0s = make_qam(16), [1.0, 1.2, 1.32]
    _, sweep = air_vs_c0(base, c0s, AirConfig(0.05, mc, seed), threads=2)
    for i, c0 in enumerate(c0s):
        shaped = base.with_probs(solve_pcs(PcsProblem(base.amplitudes, c0)).probs)
        est = air_mc(shaped, AirConfig(0.05, mc, seed))
        assert (sweep.rate[i], sweep.std_error[i]) == (est.rate, est.std_error)


@pytest.mark.parametrize("constellation", [make_qam(16), _with_rare_points()], ids=["qam16", "rare-points"])
def test_air_mc_grid_equals_scalar_calls(constellation):
    # One draw per chunk serves every variance; three chunks, the last one short.
    variances = [sigma2_from_snr_db(snr) for snr in (-10.0, 8.0, 60.0, 313.0)]
    trials = 2 * AIR_CHUNK + 123
    grid = air_mc(constellation, AirConfig(np.array(variances), trials, 12))
    assert grid.rate.shape == grid.std_error.shape == (len(variances),)
    for k, sigma2 in enumerate(variances):
        est = air_mc(constellation, AirConfig(sigma2, trials, 12))
        assert type(est.rate) is float and type(est.std_error) is float
        assert (grid.rate[k], grid.std_error[k]) == (est.rate, est.std_error)


def _qam16_corners_dropped():
    # qam16 shaped at c0 = 1.0: the ring of unit energy, every corner and
    # inner point at prior exactly 0.
    base = make_qam(16)
    return base.with_probs(solve_pcs(PcsProblem(base.amplitudes, 1.0)).probs)


@pytest.mark.parametrize("threads", [1, 3])
def test_air_mc_row_equals_its_lone_call(threads):
    # Every row of one call shares each chunk's keys and unit noise; three
    # chunks, the last one short, and each row must read as it does alone.
    rows = [make_qam(16), make_psk(16), _with_rare_points(), _qam16_corners_dropped()]
    assert (rows[3].probs == 0).any()
    variances = np.array([sigma2_from_snr_db(snr) for snr in (-10.0, 8.0, 60.0, 313.0)])
    cfg = AirConfig(variances, 2 * AIR_CHUNK + 123, 13)
    alone = [air_mc(c, cfg) for c in rows]
    for order in (rows, rows[::-1]):
        est = air_mc(order, cfg, threads=threads)
        assert est.rate.shape == est.std_error.shape == (len(rows), variances.size)
        want = alone if order is rows else alone[::-1]
        for k, lone in enumerate(want):
            assert est.rate[k].tobytes() == lone.rate.tobytes()
            assert est.std_error[k].tobytes() == lone.std_error.tobytes()


def test_air_vs_c0_draws_once_per_chunk(monkeypatch):
    # Three targets over two full chunks and one of a single draw: each chunk
    # draws once for every row, so the chunk function runs three times.
    calls = []

    def counted(fn, *args):
        def chunk(rng, count):
            calls.append(count)
            return fn(rng, count)

        return map_chunks(chunk, *args)

    monkeypatch.setattr(ofdm_pcs.air, "map_chunks", counted)
    _, est = air_vs_c0(make_qam(16), [1.0, 1.2, 1.32], AirConfig(0.05, 2 * AIR_CHUNK + 1, 3))
    assert est.rate.shape == (3,)
    assert calls == [AIR_CHUNK, AIR_CHUNK, 1]


def test_air_mc_rejects_no_constellations():
    with pytest.raises(ValueError, match="^constellations is empty"):
        air_mc([], AirConfig(0.1, 100, 0))
    with pytest.raises(ValueError, match="^constellations is empty"):
        air_vs_snr([], [0.0], 100, 0)


@pytest.mark.parametrize("snr_db", [310.0, 313.0])
def test_air_mc_keeps_the_noise_at_any_snr(snr_db):
    # Forming y = x + n rounds n away beside x above ~300 dB; that read qam16
    # at 4.015 bits at 310 dB and 4.033 at 313 dB.
    c, mc, seed = make_qam(16), 20_000, 11
    ref = air_mc(c, AirConfig(sigma2_from_snr_db(60.0), mc, seed))
    est = air_mc(c, AirConfig(sigma2_from_snr_db(snr_db), mc, seed))
    assert est.rate == pytest.approx(ref.rate, abs=1e-9)
    assert abs(est.rate - 4.0) <= 3 * est.std_error


def test_air_vs_snr_rows():
    est = air_vs_snr([make_qam(16), make_psk(16)], [5.0, 15.0], 20_000, 2)
    assert est.rate.shape == est.std_error.shape == (2, 2)
    # rate nondecreasing in SNR for both inputs
    assert est.rate[0, 1] > est.rate[0, 0]
    assert est.rate[1, 1] > est.rate[1, 0]


def test_config_validation():
    with pytest.raises(ValueError):
        AirConfig(0.0, 100, 0)
    with pytest.raises(ValueError, match="finite"):
        AirConfig(np.inf, 100, 0)
    with pytest.raises(ValueError):
        AirConfig(1.0, 0, 0)


@pytest.mark.parametrize(
    "noise_variance",
    [[], [[0.1, 0.2]], [0.1, 0.0], [0.1, -1.0], [np.nan], [0.1, np.inf]],
    ids=["empty", "2-D", "zero", "negative", "nan", "inf"],
)
def test_config_rejects_bad_noise_variance_grid(noise_variance):
    with pytest.raises(ValueError, match="^noise_variance must be"):
        AirConfig(np.array(noise_variance), 100, 0)


@pytest.mark.parametrize("sigma2", [1e-310, 1e-32, 1e308])
def test_config_rejects_noise_variance_beyond_db_bound(sigma2):
    # Past +-313.07 dB, 1/sigma^2 or the squared distances overflow and the
    # estimate reads nan; the bound is the one the SNR sweep puts on its grid.
    levels = (10.0 * np.log10([sigma2])).tolist()
    message = f"10 log10 noise_variance entries must lie within +-313.071 dB, got {levels}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AirConfig(np.array([0.1, sigma2]), 100, 0)
    # The bound itself is accepted, from either side.
    AirConfig(np.array([sigma2_from_snr_db(snr) for snr in (-313.07, 313.07)]), 100, 0)
