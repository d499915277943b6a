import math

import numpy as np
import pytest

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
        return r.sum(), (r * r).sum()

    parts = map_chunks(partials, cfg.seed, cfg.mc_trials, AIR_CHUNK, 1)
    mean = sum(s for s, _ in parts) / cfg.mc_trials
    var = max(sum(sq for _, sq in parts) / cfg.mc_trials - mean * mean, 0.0)
    return mean, math.sqrt(var / cfg.mc_trials)


def _with_rare_points():
    # ring8 plus one inner and one outer point at prior 1e-12: still unit power
    base = make_qam(16)
    ring = np.isclose(base.energies, 1.0)
    probs = np.where(ring, (1.0 - 2e-12) / 8, 0.0)
    probs[np.argmin(base.energies)] = 1e-12
    probs[np.argmax(base.energies)] = 1e-12
    return base.with_probs(probs)


@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 30.0, 60.0])
@pytest.mark.parametrize(
    "constellation, trials",
    [
        (make_qam(16), 3_000),
        (make_psk(16), 3_000),
        (make_qam(256), 2_000),
        (_with_rare_points(), 3_000),
        (make_qam(16), 2 * AIR_CHUNK + 123),
    ],
    ids=["qam16", "psk16", "qam256", "qam16-rare-points", "qam16-chunked"],
)
def test_air_mc_matches_same_draw_oracle(constellation, trials, snr_db):
    cfg = AirConfig(sigma2_from_snr_db(snr_db), trials, 17)
    rate, std_error = same_draw_oracle(constellation, cfg)
    est = air_mc(constellation, cfg)
    assert est.rate == pytest.approx(rate, rel=1e-12)
    assert est.std_error == pytest.approx(std_error, rel=1e-12)


@pytest.mark.parametrize(
    "constellation, snr_db",
    [(make_qam(16), 30.0), (make_qam(16), 60.0), (make_qam(256), 40.0)],
    ids=["qam16-30dB", "qam16-60dB", "qam256-40dB"],
)
def test_air_mc_raises_no_floating_point_error(constellation, snr_db):
    # exp of a far point's exponent would underflow without the floor
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
    assert 0.0 <= est.rate <= c.entropy_bits() + 3 * est.std_error


def test_rate_vanishes_in_heavy_noise():
    est = air_mc(make_qam(16), AirConfig(1e4, 50_000, 6))
    assert abs(est.rate) <= 3 * est.std_error + 1e-3


def test_high_snr_saturates_entropy():
    # Tiny noise must not overflow the mixture log-density.
    est = air_mc(make_qam(16), AirConfig(1e-12, 20_000, 7))
    assert np.isfinite(est.rate)
    assert est.rate == pytest.approx(4.0, abs=3 * est.std_error + 1e-6)


def test_shaped_ring_rate():
    base = make_qam(16)
    probs = np.where(np.isclose(base.energies, 1.0), 1 / 8, 0.0)
    est = air_mc(base.with_probs(probs), AirConfig(0.01, 100_000, 8))
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
    rows = air_vs_c0(make_qam(16), [1.0, 1.32], AirConfig(0.01, 20_000, 0))
    assert [r["c0"] for r in rows] == [1.0, 1.32]
    assert rows[1]["rate"] > rows[0]["rate"]
    assert rows[0]["entropy_bits"] == pytest.approx(3.0, abs=1e-9)
    assert rows[1]["entropy_bits"] == pytest.approx(4.0, abs=1e-9)
    for r in rows:
        assert r["gap"] <= 1e-8


def test_air_vs_c0_saturates_beyond_feasible_maximum():
    # Targets past the feasible fourth-moment maximum clamp to the same
    # distribution, so the rate stays constant up to Monte-Carlo error.
    rows = air_vs_c0(make_qam(16), [1.64, 2.0, 3.0], AirConfig(0.01, 40_000, 6))
    rates = [r["rate"] for r in rows]
    ses = [r["std_error"] for r in rows]
    for i in (1, 2):
        assert abs(rates[i] - rates[0]) <= 3 * (ses[i] + ses[0])
        assert rows[i]["entropy_bits"] == pytest.approx(rows[0]["entropy_bits"], abs=1e-9)


def test_air_vs_c0_thread_invariance():
    cfg = AirConfig(0.05, 10_000, 1)
    serial = air_vs_c0(make_qam(16), [1.0, 1.2, 1.32], cfg, threads=1)
    parallel = air_vs_c0(make_qam(16), [1.0, 1.2, 1.32], cfg, threads=3)
    assert serial == parallel


def test_air_vs_snr_rows():
    rows = air_vs_snr(
        [("qam16", make_qam(16)), ("psk16", make_psk(16))],
        [5.0, 15.0],
        AirConfig(1.0, 20_000, 2),
    )
    assert list(rows[0]) == ["snr_db", "qam16", "psk16"]
    # rate nondecreasing in SNR for both inputs
    assert rows[1]["qam16"] > rows[0]["qam16"]
    assert rows[1]["psk16"] > rows[0]["psk16"]


def test_config_validation():
    with pytest.raises(ValueError):
        AirConfig(0.0, 100, 0)
    with pytest.raises(ValueError, match="finite"):
        AirConfig(np.inf, 100, 0)
    with pytest.raises(ValueError):
        AirConfig(1.0, 0, 0)
