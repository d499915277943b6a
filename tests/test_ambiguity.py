import numpy as np
import pytest

from ofdm_pcs.ambiguity import (
    AF_CHUNK,
    DelayGeometry,
    af_closed_form,
    af_self_closed_form,
    default_nu_grid,
    default_tau_grid,
    magnitude_db,
    mc_average_af,
    mean_af_components,
    variance_cross_closed,
    variance_self_closed,
)
from ofdm_pcs.constellation import make_psk, make_qam
from ofdm_pcs.ofdm import OfdmConfig, symbol_signal_batch

from af_oracles import af_double_sum, af_quadrature

CFG16 = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=8)


def cross_variance_oracle(cfg, tau, nu):
    """Direct double-loop summation of the cross-variance formula."""
    geom = DelayGeometry.for_delay(tau, cfg.symbol_duration)
    total = 0.0
    for l1 in range(cfg.num_subcarriers):
        for l2 in range(cfg.num_subcarriers):
            if l1 == l2:
                continue
            f = (l1 - l2) * cfg.subcarrier_spacing - nu
            total += np.sinc(f * geom.t_diff) ** 2
    return geom.t_diff**2 * total


def test_delay_geometry():
    geom = DelayGeometry.for_delay(0.25, 1.0)
    assert (geom.t_min, geom.t_max) == (0.25, 1.0)
    assert geom.t_avg == pytest.approx(0.625)
    assert geom.t_diff == pytest.approx(0.75)
    neg = DelayGeometry.for_delay(-0.25, 1.0)
    assert (neg.t_min, neg.t_max) == (0.0, 0.75)
    assert not DelayGeometry.for_delay(1.5, 1.0).overlaps


def test_af_zero_outside_window():
    sym = make_qam(16).sample_symbols(16, 0)
    assert af_closed_form(CFG16, sym, 1.5 * CFG16.symbol_duration, 0.3) == 0
    samples = symbol_signal_batch(CFG16, sym[None])[0]
    assert af_quadrature(CFG16, samples, -1.01 * CFG16.symbol_duration, 0.0) == 0


def test_af_origin_value():
    sym = make_qam(16).sample_symbols(16, 1)
    value = af_closed_form(CFG16, sym, 0.0, 0.0)
    assert value == pytest.approx(CFG16.symbol_duration * np.sum(np.abs(sym) ** 2), abs=1e-9)


def test_af_origin_psk_exact():
    sym = make_psk(16).sample_symbols(16, 2)
    value = af_closed_form(CFG16, sym, 0.0, 0.0)
    assert value == pytest.approx(16 * CFG16.symbol_duration, abs=1e-9)


def test_numeric_origin_equals_sample_sum():
    samples = symbol_signal_batch(CFG16, make_qam(16).sample_symbols(16, 3)[None])[0]
    sample_sum = np.sum(np.abs(samples) ** 2) * CFG16.sample_period
    assert af_quadrature(CFG16, samples, 0.0, 0.0) == pytest.approx(sample_sum, rel=1e-12)


def test_closed_form_matches_numeric_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        sym = make_qam(16).sample_symbols(16, rng.integers(1 << 31))
        samples = symbol_signal_batch(CFG16, sym[None])[0]
        tau = rng.uniform(-1, 1) * CFG16.symbol_duration
        nu = rng.uniform(-0.5, 0.5) * CFG16.bandwidth
        cf = af_closed_form(CFG16, sym, tau, nu)
        num = af_quadrature(CFG16, samples, tau, nu)
        assert abs(cf - num) <= 1e-6 * max(abs(cf), abs(num))


def test_numeric_accepts_off_sample_delays():
    sym = make_qam(16).sample_symbols(16, 8)
    samples = symbol_signal_batch(CFG16, sym[None])[0]
    tau = 0.3271 * CFG16.symbol_duration  # not a sample multiple
    cf = af_closed_form(CFG16, sym, tau, 1.234)
    num = af_quadrature(CFG16, samples, tau, 1.234)
    assert abs(cf - num) <= 1e-9 * abs(cf)


def test_af_symmetry():
    sym = make_qam(16).sample_symbols(16, 5)
    samples = symbol_signal_batch(CFG16, sym[None])[0]
    tau, nu = 0.3, 2.7
    for fn in (
        lambda t, v: af_closed_form(CFG16, sym, t, v),
        lambda t, v: af_quadrature(CFG16, samples, t, v),
    ):
        lhs = fn(-tau, -nu)
        rhs = np.conj(fn(tau, nu)) * np.exp(-2j * np.pi * nu * tau)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_self_plus_cross_is_total():
    sym = make_qam(16).sample_symbols(16, 11)
    tau, nu = 0.21, -1.7
    total = af_closed_form(CFG16, sym, tau, nu)
    self_part = af_self_closed_form(CFG16, sym, tau, nu)
    # Cross part recomputed independently by zeroing the diagonal.
    l = np.arange(16)
    f = (l[:, None] - l[None, :]) * 1.0 - nu
    geom = DelayGeometry.for_delay(tau, CFG16.symbol_duration)
    kernel = geom.t_diff * np.sinc(f * geom.t_diff) * np.exp(
        2j * np.pi * (f * geom.t_avg + l[None, :] * tau)
    )
    np.fill_diagonal(kernel, 0.0)
    cross = sym @ kernel @ sym.conj()
    assert total == pytest.approx(self_part + cross, abs=1e-10)


def test_mc_single_trial_psk_matches_closed_form():
    cfg = CFG16
    taus = np.linspace(-0.8, 0.8, 9)
    nus = np.array([0.0])
    surface = mc_average_af(cfg, make_psk(16), taus, nus, trials=1, seed=21)
    draw = make_psk(16).sample_symbols(16, 21)
    direct = np.array([abs(af_closed_form(cfg, draw, t, 0.0)) for t in taus])
    assert surface.normalization == "peak"
    assert surface.values[:, 0] == pytest.approx(direct / direct.max(), abs=1e-12)


def test_mc_average_peak_normalized():
    surface = mc_average_af(CFG16, make_qam(16), default_tau_grid(CFG16, 33),
                            np.array([0.0]), trials=20, seed=3)
    assert surface.values.max() == pytest.approx(1.0, abs=1e-12)
    assert np.all(surface.values >= 0)


def test_mc_average_thread_invariance():
    taus = default_tau_grid(CFG16, 17)
    nus = np.array([0.0, 1.0])
    a = mc_average_af(CFG16, make_qam(16), taus, nus, 150, 9, threads=1)
    b = mc_average_af(CFG16, make_qam(16), taus, nus, 150, 9, threads=4)
    assert np.array_equal(a.values, b.values)


_PROD = OfdmConfig()
# Off-lattice grids that reach the window edges (tau = +-T_p = +-1) and pass them.
_OFF_LATTICE = (
    np.array([-1.3, -1.0, -0.917, -0.31, 0.0, 0.0731, 0.5557, 0.999, 1.0, 1.2]),
    np.array([-7.3, -2.19, 0.0, 0.61, 3.333, 8.05]),
)


@pytest.mark.parametrize(
    ("cfg", "taus", "nus", "last_chunk", "threads"),
    [
        # Trial counts that leave an uneven last chunk.
        pytest.param(CFG16, *_OFF_LATTICE, 16, 1, id="16-1"),
        pytest.param(CFG16, *_OFF_LATTICE, 7, 3, id="7-3"),
        # Production geometry: the default 64-subcarrier config on the
        # default lattices, including the delay window edges +-T_p.
        pytest.param(
            _PROD,
            default_tau_grid(_PROD)[[0, 1, 37, 100, 128, 129, 203, 255, 256]],
            default_nu_grid(_PROD)[[0, 61, 128, 131, 256]],
            16, 2, id="default-config",
        ),
    ],
)
def test_mc_average_matches_brute_force_oracle(cfg, taus, nus, last_chunk, threads):
    num = cfg.num_subcarriers
    trials, seed = 2 * AF_CHUNK + last_chunk, 13
    c = make_qam(16)
    draws = c.sample_symbols(trials * num, seed).reshape(trials, num)
    direct = np.array([[af_double_sum(cfg, draws, tau, nu) for nu in nus] for tau in taus])
    fast = np.array([[af_closed_form(cfg, draws, tau, nu) for nu in nus] for tau in taus])
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.abs(direct).max()
    brute = np.abs(direct).mean(axis=2)
    surface = mc_average_af(cfg, c, taus, nus, trials, seed, threads=threads)
    assert np.max(np.abs(surface.values - brute / brute.max())) <= 1e-12


@pytest.mark.parametrize("taus", [np.array([-0.4, 0.1, 0.7]), np.array([0.25])])
def test_mc_average_thread_invariance_beyond_row_count(taus):
    nus = np.array([-1.5, 0.0, 2.25])
    a = mc_average_af(CFG16, make_qam(16), taus, nus, 70, 4, threads=1)
    b = mc_average_af(CFG16, make_qam(16), taus, nus, 70, 4, threads=8)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize(
    ("taus", "nus", "name"),
    [
        (np.array([]), np.array([0.0]), "tau_grid"),
        (np.array([0.0]), np.array([]), "nu_grid"),
    ],
)
def test_mc_average_rejects_bad_input(taus, nus, name):
    with pytest.raises(ValueError, match=name):
        mc_average_af(CFG16, make_qam(16), taus, nus, 10, 0)


def test_variance_self_psk_zero():
    for tau in (0.0, 0.3, -0.6):
        for nu in (0.0, 1.3):
            assert variance_self_closed(CFG16, make_psk(16), tau, nu) == 0.0


def test_variance_self_plugin_value():
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.0, oversampling=2)
    # T_diff = 1 at tau = 0; uniform 16-QAM has fourth moment 1.32.
    assert variance_self_closed(cfg, make_qam(16), 0.0, 0.0) == pytest.approx(
        64 * 0.32, abs=1e-9
    )


def test_variance_self_doppler_never_exceeds_zero_doppler():
    c = make_qam(16)
    for tau in (0.0, 0.4):
        base = variance_self_closed(CFG16, c, tau, 0.0)
        for nu in (0.3, 1.0, 2.7):
            assert variance_self_closed(CFG16, c, tau, nu) <= base + 1e-12


def test_variance_self_monotone_in_fourth_moment():
    base = make_qam(16)
    shaped_low = base.with_probs(
        np.where(np.isclose(base.energies, 1.0), 1 / 8, 0.0)
    )
    v_low = variance_self_closed(CFG16, shaped_low, 0.2, 0.0)
    v_high = variance_self_closed(CFG16, base, 0.2, 0.0)
    assert v_low < v_high


def test_variance_self_empirical():
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.0, oversampling=2)
    c = make_qam(16)
    draws = c.sample_symbols(4000 * 64, 17).reshape(4000, 64)
    tau = 0.15
    values = af_self_closed_form(cfg, draws, tau, 0.0)
    empirical = np.mean(np.abs(values) ** 2) - abs(values.mean()) ** 2
    assert empirical == pytest.approx(variance_self_closed(cfg, c, tau, 0.0), rel=0.1)


def test_variance_cross_zero_at_origin():
    assert variance_cross_closed(CFG16, 0.0, 0.0) == pytest.approx(0.0, abs=1e-20)


def test_variance_cross_matches_double_loop():
    for tau, nu in ((0.0, 1.0), (0.2, 0.0), (-0.35, 1.7), (0.6, -2.3)):
        got = variance_cross_closed(CFG16, tau, nu)
        assert got == pytest.approx(cross_variance_oracle(CFG16, tau, nu), rel=1e-12)


def test_variance_cross_positive_at_subcarrier_doppler():
    assert variance_cross_closed(CFG16, 0.0, CFG16.subcarrier_spacing) > 0.1


def test_mean_components_dirichlet():
    cfg = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=2)
    taus = np.array([0.0, 0.1, 0.25, 1.2])
    self_slice, cross_slice = mean_af_components(cfg, taus)
    assert self_slice[0] == pytest.approx(16 * cfg.symbol_duration, abs=1e-9)
    # Geometric-series oracle for the Dirichlet magnitude.
    for i, tau in enumerate(taus[:-1]):
        if tau == 0:
            continue
        expected = (1 - tau) * abs(np.sin(np.pi * 16 * tau) / np.sin(np.pi * tau))
        assert self_slice[i] == pytest.approx(expected, abs=1e-9)
    assert self_slice[-1] == 0.0 and cross_slice[-1] == 0.0
    for i, tau in enumerate(taus):
        assert cross_slice[i] == pytest.approx(
            np.sqrt(variance_cross_closed(cfg, tau, 0.0)), abs=1e-12
        )


def test_total_variance_decomposes_into_self_plus_cross():
    # Self and cross fluctuations are uncorrelated at zero Doppler, so the
    # total variance splits into the two closed forms.
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.0, oversampling=2)
    c = make_qam(16)
    draws = c.sample_symbols(10_000 * 64, 31).reshape(10_000, 64)
    for tau in (0.1, 0.33, 0.57):
        total = af_closed_form(cfg, draws, tau, 0.0)
        empirical = np.mean(np.abs(total) ** 2) - abs(total.mean()) ** 2
        predicted = variance_self_closed(cfg, c, tau, 0.0) + variance_cross_closed(cfg, tau, 0.0)
        assert empirical == pytest.approx(predicted, rel=0.1)


def test_cross_mean_is_zero_empirically():
    cfg = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=2)
    c = make_qam(16)
    draws = c.sample_symbols(4000 * 16, 23).reshape(4000, 16)
    tau, nu = 0.2, 0.7
    cross = af_closed_form(cfg, draws, tau, nu) - af_self_closed_form(cfg, draws, tau, nu)
    se = np.sqrt(np.var(cross) / draws.shape[0])
    assert abs(cross.mean()) < 3 * se


def test_default_grids():
    cfg = OfdmConfig()
    taus = default_tau_grid(cfg)
    nus = default_nu_grid(cfg)
    assert taus.size == nus.size == 257
    assert taus[0] == -cfg.symbol_duration and taus[-1] == cfg.symbol_duration
    assert nus[-1] == pytest.approx(cfg.bandwidth / 2)


def test_magnitude_db_floor():
    db = magnitude_db(np.array([1.0, 1e-3, 0.0]))
    assert db[0] == 0.0
    assert db[1] == pytest.approx(-60.0)
    assert db[2] == -80.0


def test_symbol_length_validation():
    with pytest.raises(ValueError):
        af_closed_form(CFG16, np.ones(15, dtype=complex), 0.0, 0.0)
    with pytest.raises(ValueError):
        af_self_closed_form(CFG16, np.ones(4, dtype=complex), 0.0, 0.0)
