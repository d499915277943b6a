import numpy as np
import pytest

from ofdm_pcs import pcs
from ofdm_pcs.constellation import group_rings, make_psk, make_qam
from ofdm_pcs.pcs import (
    InfeasibleSupportError,
    PcsProblem,
    SolverNotConvergedError,
    fourth_moment_range,
    solve_pcs,
    sweep_c0,
)


def two_ring_range_oracle(energies):
    """Oracle: scan one- and two-ring chords for the m4 extremes.

    The fourth moment is strictly convex in the ring energy, so every extreme
    of the range LP concentrates on at most two rings (or one ring sitting
    exactly at unit energy).
    """
    e = np.unique(np.round(energies, 12))
    best_lo, best_hi = np.inf, -np.inf
    for i in range(e.size):
        if abs(e[i] - 1.0) < 1e-12:
            best_lo = min(best_lo, e[i] ** 2)
            best_hi = max(best_hi, e[i] ** 2)
        for j in range(i + 1, e.size):
            if not (e[i] <= 1.0 <= e[j]):
                continue
            w = (e[j] - 1.0) / (e[j] - e[i])
            m4 = w * e[i] ** 2 + (1 - w) * e[j] ** 2
            best_lo = min(best_lo, m4)
            best_hi = max(best_hi, m4)
    return best_lo, best_hi


def test_range_qam16():
    lo, hi = fourth_moment_range(make_qam(16).amplitudes)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.64, abs=1e-9)


def test_range_qam64_matches_two_ring_oracle():
    amps = make_qam(64).amplitudes
    lo, hi = fourth_moment_range(amps)
    oracle_lo, oracle_hi = two_ring_range_oracle(amps**2)
    assert lo == pytest.approx(oracle_lo, abs=1e-9)
    assert hi == pytest.approx(oracle_hi, abs=1e-9)
    assert lo == pytest.approx(((34 / 42) ** 2 + (50 / 42) ** 2) / 2, abs=1e-12)


def test_range_psk_degenerate():
    lo, hi = fourth_moment_range(make_psk(8).amplitudes)
    assert (lo, hi) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))


def test_range_random_supports_match_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        q = rng.integers(3, 24)
        amps = rng.uniform(0.2, 1.8, q)
        energies = amps**2
        if not (energies.min() <= 1.0 <= energies.max()):
            continue
        lo, hi = fourth_moment_range(amps)
        oracle = two_ring_range_oracle(energies)
        assert lo == pytest.approx(oracle[0], abs=1e-8)
        assert hi == pytest.approx(oracle[1], abs=1e-8)
        assert lo >= 1.0 - 1e-9


def test_infeasible_support():
    with pytest.raises(InfeasibleSupportError):
        fourth_moment_range(np.array([0.5, 0.6]))
    with pytest.raises(InfeasibleSupportError):
        solve_pcs(PcsProblem(np.array([1.5, 2.0]), 1.0))


def test_qam16_unit_target_picks_unit_ring():
    c = make_qam(16)
    sol = solve_pcs(PcsProblem(c.amplitudes, 1.0))
    assert sol.gap <= 1e-8
    on_ring = np.isclose(c.energies, 1.0)
    assert np.all(sol.probs[~on_ring] <= 1e-9)
    assert sol.probs[on_ring] == pytest.approx(np.full(8, 1 / 8), abs=1e-9)
    assert sol.tie_break_entropy == pytest.approx(3.0, abs=1e-9)


def test_qam16_native_target_recovers_uniform():
    c = make_qam(16)
    sol = solve_pcs(PcsProblem(c.amplitudes, 1.32))
    assert sol.gap <= 1e-8
    assert sol.probs == pytest.approx(np.full(16, 1 / 16), abs=1e-9)


def test_qam64_unit_target_two_bracket_rings():
    c = make_qam(64)
    sol = solve_pcs(PcsProblem(c.amplitudes, 1.0))
    assert sol.achieved_m4 == pytest.approx(3656 / 3528, abs=1e-9)
    assert sol.gap == pytest.approx(3656 / 3528 - 1.0, abs=1e-9)
    for energy, idx in group_rings(c):
        mass = sol.probs[idx].sum()
        if abs(energy - 34 / 42) < 1e-9 or abs(energy - 50 / 42) < 1e-9:
            assert mass == pytest.approx(0.5, abs=1e-9)
        else:
            assert mass <= 1e-9


def test_qam16_interior_target_ring_masses():
    # Three rings + three equality constraints pin the masses: corner and
    # outer masses are (c0 - 1)/1.28 split over four points each.
    c = make_qam(16)
    sol = solve_pcs(PcsProblem(c.amplitudes, 1.1))
    a = (1.1 - 1.0) / 1.28
    for energy, idx in group_rings(c):
        expected = (1 - 2 * a) / 8 if abs(energy - 1) < 1e-9 else a / 4
        assert sol.probs[idx] == pytest.approx(np.full(idx.size, expected), abs=1e-9)


def test_qam64_interior_target_is_gibbs():
    # Max-entropy over the face forces log(p) affine in (energy, energy^2).
    c = make_qam(64)
    sol = solve_pcs(PcsProblem(c.amplitudes, 1.4))
    rings = group_rings(c)
    e = np.array([energy for energy, _ in rings])
    w = np.array([sol.probs[idx].sum() for _, idx in rings])
    n = np.array([idx.size for _, idx in rings])
    design = np.column_stack([np.ones_like(e), e, e**2])
    y = np.log(w / n)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.abs(design @ coef - y).max() < 1e-9
    assert sol.achieved_m4 == pytest.approx(1.4, abs=1e-10)


def test_constraints_hold_across_targets():
    c = make_qam(64)
    energies = c.energies
    lo, hi = fourth_moment_range(c.amplitudes)
    for c0 in np.concatenate([[lo + 1e-7], np.linspace(1.05, 2.2, 12), [hi - 1e-7, 0.2, 3.0]]):
        sol = solve_pcs(PcsProblem(c.amplitudes, float(c0)))
        assert abs(sol.probs.sum() - 1) <= 1e-8
        assert abs(sol.probs @ energies - 1) <= 1e-8
        assert np.all(sol.probs >= -1e-12)
        assert sol.achieved_m4 == pytest.approx(np.clip(c0, lo, hi), abs=1e-8)
        assert sol.gap == pytest.approx(abs(sol.achieved_m4 - c0), abs=1e-12)


def test_out_of_range_targets_clamp():
    c = make_qam(16)
    low = solve_pcs(PcsProblem(c.amplitudes, 0.3))
    high = solve_pcs(PcsProblem(c.amplitudes, 2.5))
    assert low.achieved_m4 == pytest.approx(1.0, abs=1e-8)
    assert high.achieved_m4 == pytest.approx(1.64, abs=1e-8)
    assert high.gap == pytest.approx(2.5 - 1.64, abs=1e-8)


def test_unknown_tie_break():
    with pytest.raises(ValueError):
        solve_pcs(PcsProblem(make_qam(16).amplitudes, 1.0), tie_break="other")


def test_newton_cap_error_names_target_and_rings(monkeypatch):
    # A zero tolerance makes every interior Newton fit run into the cap.
    monkeypatch.setattr(pcs, "NEWTON_TOL", 0.0)
    c = make_qam(64)
    with pytest.raises(SolverNotConvergedError) as info:
        solve_pcs(PcsProblem(c.amplitudes, 1.3))
    message = str(info.value)
    assert message.startswith(f"c0 1.3 (clipped target 1.3, {len(group_rings(c))} rings): ")
    assert "Newton iteration cap reached" in message


def test_max_entropy_invariant_under_permutation():
    c = make_qam(16)
    rng = np.random.default_rng(9)
    perm = rng.permutation(16)
    sol = solve_pcs(PcsProblem(c.amplitudes, 1.2))
    sol_p = solve_pcs(PcsProblem(c.amplitudes[perm], 1.2))
    assert sol_p.probs == pytest.approx(sol.probs[perm], abs=1e-9)


def test_sweep_matches_single_solves():
    c = make_qam(16)
    sols = sweep_c0(c.amplitudes, [1.0, 1.32, 2.0])
    assert [s.achieved_m4 for s in sols] == pytest.approx([1.0, 1.32, 1.64], abs=1e-8)
    single = solve_pcs(PcsProblem(c.amplitudes, 1.32))
    assert sols[1].probs == pytest.approx(single.probs, abs=1e-12)


def test_sweep_psk_constant():
    for sol in sweep_c0(make_psk(16).amplitudes, [0.5, 1.0, 2.0]):
        assert sol.achieved_m4 == pytest.approx(1.0, abs=1e-12)


def test_sweep_monotone_achieved():
    grid = np.linspace(0.8, 2.0, 13)
    sols = sweep_c0(make_qam(16).amplitudes, grid)
    achieved = [s.achieved_m4 for s in sols]
    assert np.all(np.diff(achieved) >= -1e-10)


def test_problem_validation():
    with pytest.raises(ValueError):
        PcsProblem(np.array([]), 1.0)
    with pytest.raises(ValueError):
        PcsProblem(np.array([1.0]), -0.5)
    with pytest.raises(ValueError):
        PcsProblem(np.array([-1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        sweep_c0(make_qam(16).amplitudes, [])
