import numpy as np
import pytest

from ofdm_pcs.air import AirConfig, air_mc, air_vs_c0, air_vs_snr, sigma2_from_snr_db
from ofdm_pcs.constellation import Constellation, make_psk, make_qam


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
    with pytest.raises(ValueError):
        AirConfig(1.0, 0, 0)
