"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a PASS/FAIL line with the
measured quantity next to its tolerance.  Statistical checks run on pinned
seeds so the whole suite is deterministic.  Run with ``pytest -v -s`` to see
the per-criterion lines.
"""

import numpy as np
import pytest

from ofdm_pcs.air import AirConfig, air_mc, air_vs_c0
from ofdm_pcs.ambiguity import (
    af_closed_form,
    af_statistics,
    default_nu_grid,
    default_tau_grid,
    magnitude_db,
    mc_average_af,
)
from ofdm_pcs.cli import main
from ofdm_pcs.constellation import Constellation, group_rings, make_psk, make_qam
from ofdm_pcs.detect import (
    CfarConfig,
    DetectionScenario,
    calibrate_alpha,
    noise_profile_sampler,
    pd_experiment,
    reference_means,
)
from ofdm_pcs.ofdm import OfdmConfig, symbol_signal_batch
from ofdm_pcs.pcs import PcsProblem, fourth_moment_range, solve_pcs

from af_oracles import af_quadrature, af_self_part


def check(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_moment_exactness():
    eps16 = abs(make_qam(16).moment(4) - 1.32)
    eps64 = abs(make_qam(64).moment(4) - 2436 / 1764)
    check(
        "moment exactness",
        eps16 <= 1e-12 and eps64 <= 1e-12,
        f"|m4(qam16)-1.32| = {eps16:.2e}, |m4(qam64)-2436/1764| = {eps64:.2e} (tol 1e-12)",
    )


def test_02_fourth_moment_floor_property():
    rng = np.random.default_rng(20)
    worst = np.inf
    equality_violations = 0
    for trial in range(10_000):
        q = int(rng.integers(2, 33))
        amps = rng.uniform(0.05, 2.5, q)
        probs = rng.dirichlet(np.ones(q))
        if trial % 5 == 0:
            amps = np.ones(q)  # unit ring: the designed equality case
        amps = amps / np.sqrt(probs @ amps**2)
        m4 = probs @ amps**4
        worst = min(worst, m4)
        if m4 <= 1 + 1e-9:
            supported = amps[probs > 1e-12] ** 2
            if np.max(np.abs(supported - 1.0)) > 1e-6:
                equality_violations += 1
    check(
        "fourth-moment floor",
        worst >= 1 - 1e-9 and equality_violations == 0,
        f"min m4 over 10^4 random constellations = {worst:.12f} (floor 1-1e-9), "
        f"equality off the unit ring: {equality_violations}",
    )


def test_03_af_oracle_equivalence():
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=100e6 / 64, oversampling=8)
    rng = np.random.default_rng(30)
    c = make_qam(16)
    worst = 0.0
    for _ in range(100):
        symbols = c.sample_symbols(cfg.num_subcarriers, rng.integers(1 << 31))
        samples = symbol_signal_batch(cfg, symbols[None])[0]
        for _ in range(20):
            tau = rng.uniform(-1, 1) * cfg.symbol_duration
            nu = rng.uniform(-0.5, 0.5) * cfg.bandwidth
            closed = af_closed_form(cfg, symbols, tau, nu)
            numeric = af_quadrature(cfg, samples, tau, nu)
            worst = max(worst, abs(closed - numeric) / max(abs(closed), abs(numeric)))
    check(
        "AF closed form vs numeric oracle",
        worst <= 1e-6,
        f"worst relative deviation over 100x20 points = {worst:.2e} (tol 1e-6)",
    )


def test_04_self_variance_formula():
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.0, oversampling=2)
    qam = make_qam(16)
    psk = make_psk(16)
    draws = qam.sample_symbols(10_000 * 64, 40).reshape(10_000, 64)
    psk_draws = psk.sample_symbols(10_000 * 64, 41).reshape(10_000, 64)
    worst_rel = 0.0
    worst_psk_ratio = 0.0
    for tau in (0.03125, 0.125, 0.25, 0.5, 0.75):
        values = af_self_part(cfg, draws, tau, 0.0)
        empirical = np.mean(np.abs(values) ** 2) - abs(values.mean()) ** 2
        predicted = af_statistics(cfg, qam, [tau], 0.0)[0][0]
        worst_rel = max(worst_rel, abs(empirical - predicted) / predicted)
        psk_values = af_self_part(cfg, psk_draws, tau, 0.0)
        psk_var = np.mean(np.abs(psk_values) ** 2) - abs(psk_values.mean()) ** 2
        worst_psk_ratio = max(worst_psk_ratio, abs(psk_var) / predicted)
    check(
        "self-part variance formula",
        worst_rel <= 0.05 and worst_psk_ratio < 1e-6,
        f"worst relative error at 5 delays = {worst_rel:.3f} (tol 0.05); "
        f"PSK/QAM variance ratio = {worst_psk_ratio:.2e} (tol 1e-6)",
    )


def test_05_cross_statistics():
    cfg = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.0, oversampling=2)
    c = make_qam(16)
    draws = c.sample_symbols(10_000 * 64, 50).reshape(10_000, 64)
    points = [
        (0.07, 0.0), (0.23, 0.0), (0.41, 0.0), (0.63, 0.0),
        (0.07, 0.6), (0.23, 1.7), (0.41, -2.3), (0.63, 0.6),
        (0.11, 3.4), (0.31, -1.1),
    ]
    worst_mean_sigmas = 0.0
    worst_var_rel = 0.0
    for tau, nu in points:
        cross = af_closed_form(cfg, draws, tau, nu) - af_self_part(cfg, draws, tau, nu)
        n = cross.size
        emp_var = np.mean(np.abs(cross) ** 2) - abs(cross.mean()) ** 2
        se = np.sqrt(emp_var / n)
        worst_mean_sigmas = max(worst_mean_sigmas, abs(cross.mean()) / se)
        predicted = af_statistics(cfg, c, [tau], nu)[1][0]
        worst_var_rel = max(worst_var_rel, abs(emp_var - predicted) / predicted)
    check(
        "cross-part statistics",
        worst_mean_sigmas < 3.0 and worst_var_rel <= 0.10,
        f"|mean| = {worst_mean_sigmas:.2f} standard errors (tol 3); "
        f"worst variance error = {worst_var_rel:.3f} (tol 0.10)",
    )


def test_06_pcs_solutions():
    qam16 = make_qam(16)
    sol16 = solve_pcs(PcsProblem(qam16.amplitudes, 1.0))
    on_ring = np.isclose(qam16.energies, 1.0)
    ok_a = (
        sol16.gap <= 1e-8
        and np.all(sol16.probs[~on_ring] <= 1e-9)
        and np.allclose(sol16.probs[on_ring], 1 / 8, atol=1e-9)
    )
    qam64 = make_qam(64)
    sol64 = solve_pcs(PcsProblem(qam64.amplitudes, 1.0))
    off_bracket = 0.0
    for energy, idx in group_rings(qam64):
        if not (abs(energy - 34 / 42) < 1e-9 or abs(energy - 50 / 42) < 1e-9):
            off_bracket += sol64.probs[idx].sum()
    ok_b = abs(sol64.gap - (1.0363 - 1.0)) <= 1e-4 and off_bracket <= 1e-9
    lo, hi = fourth_moment_range(qam16.amplitudes)
    ok_c = abs(lo - 1.0) <= 1e-9 and abs(hi - 1.64) <= 1e-9
    check(
        "shaping solutions",
        ok_a and ok_b and ok_c,
        f"qam16@1.0: gap {sol16.gap:.1e}, uniform eighth on the unit ring: {ok_a}; "
        f"qam64@1.0: gap {sol64.gap:.6f} vs 0.0363 (tol 1e-4), off-bracket mass {off_bracket:.1e}; "
        f"qam16 range ({lo:.10f}, {hi:.10f}) vs (1, 1.64) (tol 1e-9)",
    )


def test_07_rate_vs_target_tradeoff():
    base = make_qam(16)
    _, est = air_vs_c0(base, [1.0, 1.1, 1.2, 1.32], AirConfig(0.01, 200_000, 70))
    rate_ring = est.rate[0]
    rate_uniform = est.rate[-1]
    increments_ok = all(
        est.rate[i + 1] - est.rate[i]
        > 2 * (est.std_error[i] + est.std_error[i + 1])
        for i in range(len(est.rate) - 1)
    )
    check(
        "rate vs shaping target",
        abs(rate_uniform - 4.0) <= 0.05 and abs(rate_ring - 3.0) <= 0.05 and increments_ok,
        f"rate(c0=1.32) = {rate_uniform:.4f} (4.00 +- 0.05), "
        f"rate(c0=1) = {rate_ring:.4f} (3.00 +- 0.05), strictly increasing: {increments_ok}",
    )


def test_08_rate_vs_snr():
    qam, psk = make_qam(16), make_psk(16)
    at30 = [air_mc(c, AirConfig(1e-3, 200_000, 80 + i)) for i, c in enumerate((qam, psk))]
    at10 = [air_mc(c, AirConfig(0.1, 200_000, 82 + i)) for i, c in enumerate((qam, psk))]
    gap10 = at10[0].rate - at10[1].rate
    ok = all(abs(e.rate - 4.0) <= 0.05 for e in at30) and gap10 > 0.1
    check(
        "rate vs SNR",
        ok,
        f"30 dB: qam {at30[0].rate:.4f}, psk {at30[1].rate:.4f} (4.00 +- 0.05); "
        f"10 dB advantage = {gap10:.3f} bits (> 0.1)",
    )


def test_09_sidelobe_gap():
    cfg = OfdmConfig()
    num = cfg.num_subcarriers
    t_p = cfg.symbol_duration
    tau = default_tau_grid(cfg, 257)
    zero_doppler = np.array([0.0])
    qam_db = magnitude_db(
        mc_average_af(cfg, make_qam(16), tau, zero_doppler, 500, 7)[:, 0]
    )
    psk_db = magnitude_db(
        mc_average_af(cfg, make_psk(16), tau, zero_doppler, 500, 7)[:, 0]
    )

    def lobe_peaks(db):
        peaks = []
        for k in range(1, num):
            for sign in (1, -1):
                lo, hi = sorted((sign * k * t_p / num, sign * (k + 1) * t_p / num))
                mask = (tau > lo) & (tau < hi)
                if mask.any():
                    peaks.append(db[mask].max())
        return np.array(peaks)

    # Sidelobe level = per-lobe peak, lobes delimited by the deterministic
    # autocorrelation nulls at multiples of 1/bandwidth; mainlobe excluded.
    gap = (lobe_peaks(qam_db) - lobe_peaks(psk_db)).max()

    nu = default_nu_grid(cfg, 257)
    zero_delay = np.array([0.0])
    qam_zd = magnitude_db(mc_average_af(cfg, make_qam(16), zero_delay, nu, 2000, 7)[0])
    psk_zd = magnitude_db(mc_average_af(cfg, make_psk(16), zero_delay, nu, 2000, 7)[0])
    zd_dev = np.abs(qam_zd - psk_zd).max()
    check(
        "sidelobe gap between 16-QAM and 16-PSK",
        3.0 <= gap <= 7.0 and zd_dev <= 0.5,
        f"max per-lobe zero-Doppler gap = {gap:.2f} dB (window [3, 7]); "
        f"zero-delay slices differ by {zd_dev:.3f} dB max (tol 0.5)",
    )


def test_10_detection_experiment():
    cfg = OfdmConfig()
    base = make_qam(16)
    cfar = CfarConfig()
    pfa_target = 1e-3

    calib_profiles = noise_profile_sampler(cfg, base)(np.random.default_rng(100), 3000)
    calib = calibrate_alpha(cfar, calib_profiles, pfa_target)
    held_out = noise_profile_sampler(cfg, base)(np.random.default_rng(101), 3000)
    lead, lag = reference_means(held_out, cfar)
    pfa_held = float(np.mean(held_out > calib.alpha * np.fmin(lead, lag)))
    pfa_ok = abs(pfa_held - pfa_target) <= 0.25 * pfa_target

    snr_grid = np.arange(-2.0, 21.0, 2.0)
    c0s = (1.0, 1.32, 1.64)
    scn = DetectionScenario(
        cfg=cfg,
        constellations=[base.with_probs(solve_pcs(PcsProblem(base.amplitudes, c0)).probs) for c0 in c0s],
        snr_grid_db=snr_grid, pfa_target=pfa_target, trials=5000, calib_trials=1000, seed=102,
    )
    curves = dict(zip(c0s, pd_experiment(scn).pd))

    trials = 5000
    monotone_ok = True
    for pd in curves.values():
        for i in range(pd.size - 1):
            band = 1.96 * np.sqrt(
                pd[i] * (1 - pd[i]) / trials + pd[i + 1] * (1 - pd[i + 1]) / trials
            )
            if pd[i + 1] - pd[i] < -band:
                monotone_ok = False

    knee = int(np.argmin(np.abs(curves[1.0] - 0.8)))
    ordering = curves[1.0][knee] - curves[1.64][knee]
    check(
        "weak-target detection",
        pfa_ok and monotone_ok and ordering >= 0.05,
        f"held-out pfa = {pfa_held:.2e} (target 1e-3 +- 25%); monotone: {monotone_ok}; "
        f"at snr {snr_grid[knee]:.0f} dB: pd(c0=1) = {curves[1.0][knee]:.3f}, "
        f"pd(c0=1.64) = {curves[1.64][knee]:.3f}, margin {ordering:.3f} (>= 0.05)",
    )


def test_11_cli_determinism(tmp_path):
    cases = [
        ["pcs", "sweep", "--modulation", "qam16", "--c0", "1.0,1.2,1.64"],
        ["af", "slice", "--modulation", "qam16", "--trials", "40", "--points", "65",
         "--subcarriers", "32", "--bandwidth", "32", "--seed", "3"],
        ["air", "sweep-c0", "--modulation", "qam16", "--sigma2", "0.01",
         "--c0", "1.0,1.32", "--mc", "20000", "--seed", "3"],
        ["detect", "pd-sweep", "--c0", "1.0", "--snr", "5,15", "--trials", "200",
         "--pfa", "0.02", "--calib-trials", "100", "--seed", "3"],
    ]
    all_ok = True
    for i, args in enumerate(cases):
        # pcs sweep runs no worker pool, so it takes no --threads.
        runs = [args, args] + ([args + ["--threads", "4"]] if args[0] != "pcs" else [])
        blobs = []
        for j, argv in enumerate(runs):
            out = tmp_path / f"case{i}_{j}.out"
            assert main(argv + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        if len(set(blobs)) != 1:
            all_ok = False
    check(
        "CLI determinism",
        all_ok,
        f"{len(cases)} commands re-run and thread-varied: byte-identical = {all_ok}",
    )
