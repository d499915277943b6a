import numpy as np
import pytest

from ofdm_pcs.constellation import make_psk, make_qam
from ofdm_pcs.ofdm import OfdmConfig, symbol_signal_batch


def test_config_defaults():
    cfg = OfdmConfig()
    assert cfg.num_subcarriers == 64
    assert cfg.bandwidth == pytest.approx(100e6)
    assert cfg.symbol_duration * cfg.subcarrier_spacing == pytest.approx(1.0, abs=1e-12)
    assert cfg.num_samples == 256


def test_config_validation():
    with pytest.raises(ValueError):
        OfdmConfig(num_subcarriers=0)
    with pytest.raises(ValueError):
        OfdmConfig(subcarrier_spacing=0.0)
    # The symbol duration 1/df must be finite and non-zero.
    for spacing in (np.inf, 1e-320):
        with pytest.raises(ValueError, match="subcarrier_spacing"):
            OfdmConfig(subcarrier_spacing=spacing)
    with pytest.raises(ValueError):
        OfdmConfig(oversampling=0)


def test_single_dc_subcarrier_is_constant():
    cfg = OfdmConfig(num_subcarriers=1, subcarrier_spacing=1.0, oversampling=8)
    samples = symbol_signal_batch(cfg, np.array([[1.0 + 0j]]))
    assert samples.shape == (1, 8)
    assert np.allclose(samples, 1.0, atol=1e-12)


def test_coherent_sum_at_origin():
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.0, oversampling=4)
    samples = symbol_signal_batch(cfg, np.ones((1, 64), dtype=complex))
    assert samples[0, 0] == pytest.approx(64.0, abs=1e-9)


def test_direct_sum_equivalence():
    cfg = OfdmConfig(num_subcarriers=8, subcarrier_spacing=2.0, oversampling=4)
    rng = np.random.default_rng(0)
    symbols = rng.normal(size=8) + 1j * rng.normal(size=8)
    samples = symbol_signal_batch(cfg, symbols[None])[0]
    n = np.arange(cfg.num_samples)
    t = n * cfg.symbol_duration / cfg.num_samples
    direct = sum(
        symbols[l] * np.exp(2j * np.pi * l * cfg.subcarrier_spacing * t) for l in range(8)
    )
    assert np.allclose(samples, direct, atol=1e-12)


def test_parseval():
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.5625e6, oversampling=4)
    symbols = make_qam(16).sample_symbols(cfg.num_subcarriers, 5)
    samples = symbol_signal_batch(cfg, symbols[None])[0]
    sample_energy = np.sum(np.abs(samples) ** 2) * cfg.symbol_duration / cfg.num_samples
    symbol_energy = cfg.symbol_duration * np.sum(np.abs(symbols) ** 2)
    assert sample_energy == pytest.approx(symbol_energy, rel=1e-9)


def test_linearity():
    cfg = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=2)
    rng = np.random.default_rng(1)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    y = rng.normal(size=16) + 1j * rng.normal(size=16)
    combined, sx, sy = symbol_signal_batch(cfg, np.stack([2.0 * x - 1j * y, x, y]))
    assert np.allclose(combined, 2.0 * sx - 1j * sy, atol=1e-12)


def test_subcarrier_orthogonality():
    cfg = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=1)
    n = np.arange(cfg.num_samples)
    t = n * cfg.symbol_duration / cfg.num_samples
    for l1 in range(4):
        for l2 in range(4):
            inner = np.sum(
                np.exp(2j * np.pi * l1 * t) * np.conj(np.exp(2j * np.pi * l2 * t))
            ) * cfg.symbol_duration / cfg.num_samples
            if l1 == l2:
                assert inner == pytest.approx(cfg.symbol_duration, rel=1e-12)
            else:
                assert abs(inner) <= 1e-9 * cfg.symbol_duration


def test_length_mismatch():
    cfg = OfdmConfig(num_subcarriers=8, subcarrier_spacing=1.0, oversampling=2)
    with pytest.raises(ValueError):
        symbol_signal_batch(cfg, np.ones(8, dtype=complex))  # one vector, not a batch
    with pytest.raises(ValueError):
        symbol_signal_batch(cfg, np.ones((3, 7), dtype=complex))


def test_random_signal_deterministic():
    cfg = OfdmConfig(num_subcarriers=32, subcarrier_spacing=1.0, oversampling=2)
    sym_a, sym_b = (make_qam(16).sample_symbols(3 * 32, 123).reshape(3, 32) for _ in range(2))
    assert np.array_equal(sym_a, sym_b)
    assert np.array_equal(symbol_signal_batch(cfg, sym_a), symbol_signal_batch(cfg, sym_b))


def test_random_signal_psk_constant_modulus():
    cfg = OfdmConfig(num_subcarriers=32, subcarrier_spacing=1.0, oversampling=2)
    symbols = make_psk(8).sample_symbols(cfg.num_subcarriers, 7)
    assert np.allclose(np.abs(symbols), 1.0, atol=1e-12)


def test_mean_sample_power_tracks_subcarrier_count():
    cfg = OfdmConfig(num_subcarriers=32, subcarrier_spacing=1.0, oversampling=2)
    symbols = np.stack([make_qam(16).sample_symbols(32, seed) for seed in range(1000)])
    powers = np.mean(np.abs(symbol_signal_batch(cfg, symbols)) ** 2, axis=1) / cfg.num_subcarriers
    assert np.mean(powers) == pytest.approx(1.0, abs=0.1)
