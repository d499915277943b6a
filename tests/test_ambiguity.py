import numpy as np
import pytest

from ofdm_pcs import ambiguity
from ofdm_pcs.ambiguity import (
    AF_CHUNK,
    af_closed_form,
    af_statistics,
    default_nu_grid,
    default_tau_grid,
    magnitude_db,
    mc_average_af,
)
from ofdm_pcs.constellation import make_psk, make_qam
from ofdm_pcs.ofdm import OfdmConfig, symbol_signal_batch

from af_oracles import af_double_sum, af_quadrature, af_self_part, overlap_window

CFG16 = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=8)


def engine_draws(constellation, trials, num, seed):
    """The symbols ``mc_average_af`` averages over in a run of at most
    ``AF_DRAWS`` trials: one piece, drawn from child 0 of the seed."""
    assert trials <= ambiguity.AF_DRAWS
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return constellation.sample_symbols(trials * num, child).reshape(trials, num)


def cross_variance_oracle(cfg, tau, nu):
    """Direct double-loop summation of the cross-variance formula."""
    t_min, t_max = overlap_window(cfg, tau)
    t_diff = t_max - t_min
    total = 0.0
    for l1 in range(cfg.num_subcarriers):
        for l2 in range(cfg.num_subcarriers):
            if l1 == l2:
                continue
            f = (l1 - l2) * cfg.subcarrier_spacing - nu
            total += np.sinc(f * t_diff) ** 2
    return t_diff**2 * total


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
    sample_sum = np.sum(np.abs(samples) ** 2) * CFG16.symbol_duration / CFG16.num_samples
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
    self_part = af_self_part(CFG16, sym, tau, nu)
    # Cross part recomputed independently by zeroing the diagonal.
    l = np.arange(16)
    f = (l[:, None] - l[None, :]) * 1.0 - nu
    t_min, t_max = overlap_window(CFG16, tau)
    t_diff, t_avg = t_max - t_min, 0.5 * (t_max + t_min)
    kernel = t_diff * np.sinc(f * t_diff) * np.exp(
        2j * np.pi * (f * t_avg + l[None, :] * tau)
    )
    np.fill_diagonal(kernel, 0.0)
    cross = sym @ kernel @ sym.conj()
    assert total == pytest.approx(self_part + cross, abs=1e-10)


def test_mc_single_trial_psk_matches_closed_form():
    cfg = CFG16
    taus = np.linspace(-0.8, 0.8, 9)
    nus = np.array([0.0])
    surface = mc_average_af(cfg, make_psk(16), taus, nus, trials=1, seed=21)
    draw = engine_draws(make_psk(16), 1, 16, 21)[0]
    direct = np.array([abs(af_closed_form(cfg, draw, t, 0.0)) for t in taus])
    assert surface[:, 0] == pytest.approx(direct / direct.max(), abs=1e-12)


def test_mc_average_peak_normalized():
    surface = mc_average_af(CFG16, make_qam(16), default_tau_grid(CFG16, 33),
                            np.array([0.0]), trials=20, seed=3)
    assert surface.max() == pytest.approx(1.0, abs=1e-12)
    assert np.all(surface >= 0)


def test_mc_average_thread_invariance():
    taus = default_tau_grid(CFG16, 17)
    nus = np.array([0.0, 1.0])
    a = mc_average_af(CFG16, make_qam(16), taus, nus, 150, 9, threads=1)
    b = mc_average_af(CFG16, make_qam(16), taus, nus, 150, 9, threads=4)
    assert np.array_equal(a, b)


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
        # Every default Doppler column, whose frequencies m df - nu repeat on
        # the integer-Hz lattice, at -T_p, the first delay inside it, 0 and +T_p.
        pytest.param(
            _PROD, default_tau_grid(_PROD)[[0, 1, 128, 256]], default_nu_grid(_PROD),
            1, 2, id="default-config-all-doppler",
        ),
        # A Doppler step of df/4: the frequencies repeat off the integer lattice.
        pytest.param(CFG16, _OFF_LATTICE[0], np.arange(-36, 37) / 4, 9, 3, id="quarter-df"),
        # Grids that are their own (-tau, -nu) mirror, so half the rows are copied:
        # default-lattice points including +-T_p, and an off-lattice pair.
        pytest.param(
            _PROD,
            default_tau_grid(_PROD)[[0, 1, 128, 255, 256]],
            default_nu_grid(_PROD)[[0, 61, 128, 195, 256]],
            5, 2, id="default-config-mirrored",
        ),
        pytest.param(
            CFG16,
            np.array([-1.2, -0.917, -0.31, 0.0, 0.31, 0.917, 1.2]),
            np.array([-7.3, -2.19, 0.0, 2.19, 7.3]),
            11, 3, id="off-lattice-mirrored",
        ),
        # Both sides of the Doppler-count split in mc_average_af: one Doppler
        # folds the phases into a complex kernel column, two take the real envelope.
        pytest.param(CFG16, _OFF_LATTICE[0], np.array([0.75]), 5, 2, id="one-doppler"),
        pytest.param(CFG16, _OFF_LATTICE[0], np.array([-2.19, 0.75]), 5, 2, id="two-doppler"),
        # One Doppler off zero on the default lattice: the grid is not its own
        # mirror, so every row inside the window is computed, negative shifts
        # included, read at shift mod 2L.  Every eighth lattice point leaves no
        # two rows of a block at consecutive shifts; the whole default grid
        # puts whole blocks at negative shifts and one block across the wrap
        # from shift -1 to 0.
        pytest.param(
            _PROD, default_tau_grid(_PROD, 33), np.array([0.75 * _PROD.subcarrier_spacing]),
            3, 2, id="one-doppler-unmirrored-lattice",
        ),
        pytest.param(
            _PROD, default_tau_grid(_PROD), np.array([0.75 * _PROD.subcarrier_spacing]),
            3, 2, id="one-doppler-unmirrored-default-grid",
        ),
    ],
)
def test_mc_average_matches_brute_force_oracle(cfg, taus, nus, last_chunk, threads):
    num = cfg.num_subcarriers
    trials, seed = 2 * AF_CHUNK + last_chunk, 13
    c = make_qam(16)
    draws = engine_draws(c, trials, num, seed)
    direct = np.array([[af_double_sum(cfg, draws, tau, nu) for nu in nus] for tau in taus])
    fast = np.array([[af_closed_form(cfg, draws, tau, nu) for nu in nus] for tau in taus])
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.abs(direct).max()
    brute = np.abs(direct).mean(axis=2)
    surface = mc_average_af(cfg, c, taus, nus, trials, seed, threads=threads)
    assert np.max(np.abs(surface - brute / brute.max())) <= 1e-12


@pytest.mark.parametrize(
    ("cfg", "taus", "nus"),
    [
        pytest.param(CFG16, _OFF_LATTICE[0], np.array([0.75, -2.19]), id="off-lattice"),
        # The zero-Doppler slice on default delays: the one-Doppler grid is its
        # own mirror and computes half the rows, the two-Doppler one all of them.
        pytest.param(
            _PROD, default_tau_grid(_PROD, 33), np.array([0.0, 61.0 * _PROD.subcarrier_spacing]),
            id="zero-doppler",
        ),
    ],
)
def test_mc_average_one_doppler_matches_real_envelope_column(cfg, taus, nus):
    # One Doppler takes the spectral product, two the real envelope: the
    # first column of the two-Doppler mean, renormalized by its own peak,
    # is the one-Doppler result.
    trials, seed = 2 * AF_CHUNK + 9, 17
    one = mc_average_af(cfg, make_qam(16), taus, nus[:1], trials, seed)
    two = mc_average_af(cfg, make_qam(16), taus, nus, trials, seed)
    column = two[:, :1] / two[:, 0].max()
    assert np.max(np.abs(one - column)) <= 1e-12


def test_closed_form_matches_double_sum_at_256_subcarriers():
    # The one-Doppler spectral product on a long symbol, at off-lattice delays
    # and nonzero Doppler: every kernel row must land at its FFT index.
    cfg = OfdmConfig(num_subcarriers=256, subcarrier_spacing=1.0, oversampling=2)
    draws = make_qam(16).sample_symbols(3 * 256, 23).reshape(3, 256)
    for tau in (-0.6180339, 0.0731, 0.93317):
        for nu in (3.71, -101.3):
            fast = af_closed_form(cfg, draws, tau, nu)
            direct = af_double_sum(cfg, draws, tau, nu)
            assert np.max(np.abs(fast - direct)) <= 1e-12 * np.abs(direct).max()


def _on_lattice(cfg, taus):
    """Which delays inside the window take the circular-shift path."""
    nus = np.array([0.0])
    offsets = ambiguity._doppler_offsets(cfg, nus)
    return ambiguity._delay_terms(cfg, taus, offsets).on_lattice


_L32 = OfdmConfig(num_subcarriers=32, subcarrier_spacing=100e6 / 32)
_LATTICE_CASES = [
    # The whole default slice: all 255 delays inside the window lie on
    # the lattice tau = n T_p / 128.
    (_PROD, default_tau_grid(_PROD), 255, "default-slice"),
    # Grids that are not their own mirror, so the negative lattice delays
    # (n < 0) are computed too; the second adds one half a step off it.
    (_PROD, np.array([-127, -64, -33, -1, 0, 5, 64, 126]) / 128 * _PROD.symbol_duration, 8,
     "negative-shifts"),
    (_PROD, np.array([-100.5, -3, 0, 2, 77]) / 128 * _PROD.symbol_duration, 4,
     "negative-shifts-and-off-lattice"),
    # At 32 subcarriers the default step is T_p / 128 against a lattice
    # of T_p / 64: on- and off-lattice rows alternate.
    (_L32, default_tau_grid(_L32), 127, "L32-alternating"),
]


@pytest.mark.parametrize(
    ("cfg", "taus", "nus", "lattice_rows"),
    # Each delay grid on the zero-Doppler slice, which takes the spectral
    # kernel, and on two Dopplers, which take the lag products and the real
    # envelope; the two-Doppler grid is not its own mirror, so every row of
    # it is computed.
    [pytest.param(cfg, taus, np.array([0.0]), rows, id=name) for cfg, taus, rows, name in _LATTICE_CASES]
    + [
        pytest.param(cfg, taus, np.array([0.0, 2.37]) * cfg.subcarrier_spacing, rows, id=name + "-two-doppler")
        for cfg, taus, rows, name in _LATTICE_CASES
    ],
)
def test_lattice_shift_matches_double_sum(cfg, taus, nus, lattice_rows):
    flags = _on_lattice(cfg, taus)
    assert np.count_nonzero(flags) == lattice_rows
    num = cfg.num_subcarriers
    trials, seed = 2 * AF_CHUNK + 3, 29
    c = make_qam(16)
    draws = engine_draws(c, trials, num, seed)
    direct = np.array([[af_double_sum(cfg, draws, tau, nu) for nu in nus] for tau in taus])
    fast = np.array([[af_closed_form(cfg, draws, tau, nu) for nu in nus] for tau in taus])
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.abs(direct).max()
    brute = np.abs(direct).mean(axis=2)
    surface = mc_average_af(cfg, c, taus, nus, trials, seed, threads=2)
    assert np.max(np.abs(surface - brute / brute.max())) <= 1e-12


def _row_kernel_oracle(cfg, tau, nu_grid):
    """One delay's terms by per-row arithmetic, sinc on every cell with no
    gather: the lag ``(shift, phase)``, the carrier phase, the envelope S and
    the spectral kernel H; None outside the window."""
    t_min = max(0.0, float(tau))
    t_max = min(cfg.symbol_duration, cfg.symbol_duration + float(tau))
    t_diff = t_max - t_min
    if not t_diff > 0.0:
        return None
    t_avg = 0.5 * (t_max + t_min)
    num, df = cfg.num_subcarriers, cfg.subcarrier_spacing
    x = 2 * num * df * float(tau)
    lag = (round(x), None)
    if abs(x - lag[0]) > ambiguity.LATTICE_ULPS * np.spacing(2.0 * num):
        lag = (0, np.exp(2j * np.pi * np.arange(num) * df * tau))
    carrier = np.arange(-(num - 1), num) * df
    carrier_phase = np.exp(2j * np.pi * carrier * t_avg)
    envelope = t_diff * np.sinc((carrier[:, None] - nu_grid[None, :]) * t_diff)
    kernel = np.multiply.outer(carrier_phase, np.exp(-2j * np.pi * nu_grid * t_avg)) * envelope
    rotated = np.zeros((2 * num, nu_grid.size), complex)
    rotated[np.arange(1 - num, num)] = kernel
    return lag, carrier_phase, envelope, np.fft.ifft(rotated, axis=0)


@pytest.mark.parametrize("doppler", [0.0, 0.75], ids=["zero-doppler", "0.75df"])
@pytest.mark.parametrize(
    ("cfg", "taus"),
    [pytest.param(cfg, taus, id=name) for cfg, taus, _, name in _LATTICE_CASES]
    + [pytest.param(CFG16, _OFF_LATTICE[0], id="off-lattice")],
)
def test_kernel_pass_matches_per_row_arithmetic(cfg, taus, doppler):
    # The whole grid's terms and spectral kernels in one pass, bit for bit
    # the per-row values; buffers start as NaN, so every value read is written.
    nus = np.array([doppler * cfg.subcarrier_spacing])
    offsets = ambiguity._doppler_offsets(cfg, nus)
    work = np.full(taus.size * (2 * offsets[1].size + offsets[2].size), np.nan)
    terms = ambiguity._delay_terms(cfg, taus, offsets, work)
    kernels = ambiguity._spectral(nus, terms)
    oracle = [_row_kernel_oracle(cfg, tau, nus) for tau in taus]
    assert terms.inside.tolist() == [row is not None for row in oracle]
    for k, (lag, carrier_phase, envelope, kernel) in enumerate(row for row in oracle if row is not None):
        shift, phase = terms.lag(k)
        assert shift == lag[0]
        assert phase is lag[1] is None or np.array_equal(phase, lag[1])
        assert np.array_equal(terms.carrier_phase[k], carrier_phase)
        assert np.array_equal(terms.envelope[k], envelope)
        assert np.array_equal(kernels[k], kernel)


def test_delay_nudged_off_lattice_takes_the_fft():
    cfg = _PROD
    nus = np.array([0.0])
    offsets = ambiguity._doppler_offsets(cfg, nus)
    draws = make_qam(16).sample_symbols(3 * 64, 31).reshape(3, 64)
    for n in (-37, 0, 50):
        tau = n / 128 * cfg.symbol_duration
        nudged = tau + 1e-9 * cfg.symbol_duration
        terms = ambiguity._delay_terms(cfg, np.array([tau, nudged]), offsets)
        assert terms.lag(0) == (n, None)
        shift, phase = terms.lag(1)
        lag_phase = np.exp(2j * np.pi * np.arange(64) * cfg.subcarrier_spacing * nudged)
        assert shift == 0 and np.array_equal(phase, lag_phase)
        for t in (tau, nudged):
            direct = af_double_sum(cfg, draws, t, 0.0)
            fast = af_closed_form(cfg, draws, t, 0.0)
            assert np.max(np.abs(fast - direct)) <= 1e-12 * np.abs(direct).max()


def test_one_doppler_slice_calls_af_at_delay_once_per_row_block_and_chunk(monkeypatch):
    # Profilers count the per-delay stage by its calls and cells: on the
    # default one-Doppler slice the 128 computed delays (0 <= tau < T_p) go in
    # blocks of up to PRODUCT_ROWS rows, each calling it once per chunk of
    # draws, and the cells summed over the calls stay 128 per draw.
    calls = []
    original = ambiguity._af_at_delay

    def counting(symbols, *args):
        out = original(symbols, *args)
        calls.append((symbols.shape[0], out.shape))
        return out

    monkeypatch.setattr(ambiguity, "_af_at_delay", counting)
    taus = default_tau_grid(_PROD)
    rows = ambiguity.PRODUCT_ROWS
    # Threads split pieces of draws, not rows, so the blocks are the same
    # at any thread count.
    blocks = -(-128 // rows)
    for trials, threads in ((AF_CHUNK, 1), (2 * AF_CHUNK + 5, 2), (ambiguity.AF_DRAWS + 5, 2)):
        calls.clear()
        mc_average_af(_PROD, make_qam(16), taus, np.array([0.0]), trials, 3, threads=threads)
        chunks = -(-trials // AF_CHUNK)
        assert len(calls) == blocks * chunks
        assert all(1 <= shape[0] <= rows and shape[1:] == (draws, 1) for draws, shape in calls)
        assert sum(np.prod(shape) for _, shape in calls) == 128 * trials


def test_default_lattice_surface_takes_no_fft_per_delay(monkeypatch):
    # On the default lattice a draw's lag-phased spectrum is its one spectrum
    # shifted circularly, on many Dopplers as on one: the only forward FFTs
    # are the chunks' spectra, taken once before any delay.
    calls = []
    original = np.fft.fft

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    trials = 2 * AF_CHUNK + 5
    taus, nus = default_tau_grid(_PROD), default_nu_grid(_PROD, 9)
    surface = mc_average_af(_PROD, make_qam(16), taus, nus, trials, 3, threads=2)
    assert surface.shape == (257, 9)
    assert calls == [(AF_CHUNK, 64), (AF_CHUNK, 64), (5, 64)]


def test_mc_average_mirror_computes_half_the_rows(monkeypatch):
    taus = default_tau_grid(CFG16, 33)
    nus = np.array([-2.5, -0.75, 0.0, 0.75, 2.5])
    trials = AF_CHUNK + 6
    offsets = ambiguity._doppler_offsets(CFG16, nus)
    terms = ambiguity._delay_terms(CFG16, taus, offsets)
    seen = []
    original = ambiguity._af_at_delay

    def counting(symbols, spectrum, lags, carrier_phase, kernel, work=None):
        seen.extend(
            i for i, phase, envelope in zip(np.flatnonzero(terms.inside), terms.carrier_phase, terms.envelope)
            if np.array_equal(phase, carrier_phase) and np.array_equal(envelope, kernel)
        )
        return original(symbols, spectrum, lags, carrier_phase, kernel, work)

    monkeypatch.setattr(ambiguity, "_af_at_delay", counting)
    mirrored = mc_average_af(CFG16, make_qam(16), taus, nus, trials, 19, threads=2)
    # Rows 16..31 hold 0 <= tau < T_p; row 32 is tau = T_p, outside the window.
    assert sorted(seen) == sorted(list(range(16, 32)) * 2)
    # One delay past the window breaks the symmetry, so every row is computed.
    full = mc_average_af(CFG16, make_qam(16), np.append(taus, 1.5), nus, trials, 19, threads=2)
    assert len(seen) == 2 * (16 + 31)
    assert np.max(np.abs(mirrored - full[:-1])) <= 1e-12
    assert np.array_equal(mirrored[16:], full[16:-1])


@pytest.mark.parametrize("taus", [np.array([-0.4, 0.1, 0.7]), np.array([0.25])])
def test_mc_average_thread_invariance_beyond_row_count(taus):
    nus = np.array([-1.5, 0.0, 2.25])
    a = mc_average_af(CFG16, make_qam(16), taus, nus, 70, 4, threads=1)
    b = mc_average_af(CFG16, make_qam(16), taus, nus, 70, 4, threads=8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "nus", [np.array([0.0]), np.array([-1.5, 0.0, 2.25])], ids=["one-doppler", "three-dopplers"]
)
def test_mc_average_draw_pieces_never_change_a_bit(monkeypatch, nus):
    # Three pieces of AF_DRAWS, the last ending in a short chunk: building
    # the kernels one row at a time gives the same bits as in groups.  The
    # piece size defines the stream, so it is not varied here.
    taus = default_tau_grid(CFG16, 17)
    trials = 2 * ambiguity.AF_DRAWS + AF_CHUNK + 9
    pieces = mc_average_af(CFG16, make_qam(16), taus, nus, trials, 23, threads=2)
    monkeypatch.setattr(ambiguity, "KERNEL_BYTES", 1)
    assert np.array_equal(mc_average_af(CFG16, make_qam(16), taus, nus, trials, 23, threads=2), pieces)


@pytest.mark.parametrize(
    "nus", [np.array([0.0]), np.array([-1.5, 0.0, 2.25])], ids=["one-doppler", "three-dopplers"]
)
def test_mc_average_thread_invariance_across_pieces(nus):
    # Three pieces of AF_DRAWS, the last ending in a short chunk, on one, two
    # and more threads than pieces: threads split the pieces, and the piece
    # sums are added in piece order.
    taus = default_tau_grid(CFG16, 17)
    trials = 2 * ambiguity.AF_DRAWS + AF_CHUNK + 9
    runs = [mc_average_af(CFG16, make_qam(16), taus, nus, trials, 23, threads=t) for t in (1, 2, 8)]
    assert all(np.array_equal(run, runs[0]) for run in runs[1:])


@pytest.mark.parametrize(
    "nus", [np.array([0.0]), np.array([-1.5, 0.0, 2.25])], ids=["one-doppler", "three-dopplers"]
)
@pytest.mark.parametrize(
    "taus",
    [
        np.array([0.0, 0.5, 1.5]),
        # Not its own mirror, so every row is computed on both orders.
        np.append(default_tau_grid(CFG16, 17), 1.5),
    ],
    ids=["gap", "default-grid-and-outside"],
)
def test_mc_average_permuted_grid_permutes_rows(taus, nus):
    # Even rows, then odd ones, put delays outside the window between inside
    # ones: the draws do not depend on the grid and each row is summed on its
    # own, so the rows come out permuted, bit for bit.
    order = np.r_[0 : taus.size : 2, 1 : taus.size : 2]
    sorted_run = mc_average_af(CFG16, make_qam(16), taus, nus, AF_CHUNK + 9, 31)
    assert np.array_equal(mc_average_af(CFG16, make_qam(16), taus[order], nus, AF_CHUNK + 9, 31), sorted_run[order])


@pytest.mark.parametrize(
    ("taus", "nus", "name"),
    [
        (np.array([]), np.array([0.0]), "tau_grid"),
        (np.array([0.0]), np.array([]), "nu_grid"),
        # Only delays at or past the window edge T_p = 1, where the AF is zero.
        (np.array([-1.5, -1.0, 1.0]), np.array([0.0]), "tau_grid"),
    ],
)
def test_mc_average_rejects_bad_input(taus, nus, name):
    with pytest.raises(ValueError, match=name):
        mc_average_af(CFG16, make_qam(16), taus, nus, 10, 0)


def test_variance_self_psk_zero():
    for tau in (0.0, 0.3, -0.6):
        for nu in (0.0, 1.3):
            assert af_statistics(CFG16, make_psk(16), [tau], nu)[0][0] == 0.0


def test_variance_self_plugin_value():
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.0, oversampling=2)
    # T_diff = 1 at tau = 0; uniform 16-QAM has fourth moment 1.32.
    assert af_statistics(cfg, make_qam(16), [0.0], 0.0)[0][0] == pytest.approx(
        64 * 0.32, abs=1e-9
    )


def test_variance_self_doppler_never_exceeds_zero_doppler():
    c = make_qam(16)
    for tau in (0.0, 0.4):
        base = af_statistics(CFG16, c, [tau], 0.0)[0][0]
        for nu in (0.3, 1.0, 2.7):
            assert af_statistics(CFG16, c, [tau], nu)[0][0] <= base + 1e-12


def test_variance_self_monotone_in_fourth_moment():
    base = make_qam(16)
    shaped_low = base.with_probs(
        np.where(np.isclose(base.energies, 1.0), 1 / 8, 0.0)
    )
    v_low = af_statistics(CFG16, shaped_low, [0.2], 0.0)[0][0]
    v_high = af_statistics(CFG16, base, [0.2], 0.0)[0][0]
    assert v_low < v_high


def test_variance_self_empirical():
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.0, oversampling=2)
    c = make_qam(16)
    draws = c.sample_symbols(4000 * 64, 17).reshape(4000, 64)
    tau = 0.15
    values = af_self_part(cfg, draws, tau, 0.0)
    empirical = np.mean(np.abs(values) ** 2) - abs(values.mean()) ** 2
    assert empirical == pytest.approx(af_statistics(cfg, c, [tau], 0.0)[0][0], rel=0.1)


def test_variance_cross_zero_at_origin():
    assert af_statistics(CFG16, make_qam(16), [0.0], 0.0)[1][0] == pytest.approx(0.0, abs=1e-20)


def test_variance_cross_matches_double_loop():
    for tau, nu in ((0.0, 1.0), (0.2, 0.0), (-0.35, 1.7), (0.6, -2.3)):
        got = af_statistics(CFG16, make_qam(16), [tau], nu)[1][0]
        assert got == pytest.approx(cross_variance_oracle(CFG16, tau, nu), rel=1e-12)


def test_variance_cross_positive_at_subcarrier_doppler():
    assert af_statistics(CFG16, make_qam(16), [0.0], CFG16.subcarrier_spacing)[1][0] > 0.1


def test_mean_components_dirichlet():
    cfg = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=2)
    taus = np.array([0.0, 0.1, 0.25, 1.2])
    self_slice = af_statistics(cfg, make_qam(16), taus, 0.0)[2]
    assert self_slice[0] == pytest.approx(16 * cfg.symbol_duration, abs=1e-9)
    # Geometric-series oracle for the Dirichlet magnitude.
    for i, tau in enumerate(taus[:-1]):
        if tau == 0:
            continue
        expected = (1 - tau) * abs(np.sin(np.pi * 16 * tau) / np.sin(np.pi * tau))
        assert self_slice[i] == pytest.approx(expected, abs=1e-9)
    assert self_slice[-1] == 0.0


def test_total_variance_decomposes_into_self_plus_cross():
    # Self and cross fluctuations are uncorrelated at zero Doppler, so the
    # total variance splits into the two closed forms.
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.0, oversampling=2)
    c = make_qam(16)
    draws = c.sample_symbols(10_000 * 64, 31).reshape(10_000, 64)
    for tau in (0.1, 0.33, 0.57):
        total = af_closed_form(cfg, draws, tau, 0.0)
        empirical = np.mean(np.abs(total) ** 2) - abs(total.mean()) ** 2
        predicted = af_statistics(cfg, c, [tau], 0.0)[0][0] + af_statistics(cfg, c, [tau], 0.0)[1][0]
        assert empirical == pytest.approx(predicted, rel=0.1)


def test_cross_mean_is_zero_empirically():
    cfg = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=2)
    c = make_qam(16)
    draws = c.sample_symbols(4000 * 16, 23).reshape(4000, 16)
    tau, nu = 0.2, 0.7
    cross = af_closed_form(cfg, draws, tau, nu) - af_self_part(cfg, draws, tau, nu)
    se = np.sqrt(np.var(cross) / draws.shape[0])
    assert abs(cross.mean()) < 3 * se


def test_default_grids():
    cfg = OfdmConfig()
    taus = default_tau_grid(cfg)
    nus = default_nu_grid(cfg)
    assert taus.size == nus.size == 257
    assert taus[0] == -cfg.symbol_duration and taus[-1] == cfg.symbol_duration
    assert nus[-1] == pytest.approx(cfg.bandwidth / 2)


@pytest.mark.parametrize("points", [1, 2, 33, 64, 256, 257])
def test_default_grids_exactly_antisymmetric(points):
    cfg = OfdmConfig()
    for grid, edge in (
        (default_tau_grid(cfg, points), cfg.symbol_duration),
        (default_nu_grid(cfg, points), cfg.bandwidth / 2),
    ):
        assert grid.size == points
        assert np.array_equal(grid, -grid[::-1])
        if points > 1:
            assert grid[0] == -edge and grid[-1] == edge
        if points % 2:
            assert grid[points // 2] == 0.0


def test_magnitude_db_floor():
    db = magnitude_db(np.array([1.0, 1e-3, 0.0]))
    assert db[0] == 0.0
    assert db[1] == pytest.approx(-60.0)
    assert db[2] == -80.0


def test_symbol_length_validation():
    with pytest.raises(ValueError):
        af_closed_form(CFG16, np.ones(15, dtype=complex), 0.0, 0.0)
