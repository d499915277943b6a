import numpy as np
import pytest

from ofdm_pcs import pcs
from ofdm_pcs.constellation import group_by_energy, make_psk, make_qam
from ofdm_pcs.pcs import (
    FEAS_TOL,
    InfeasibleSupportError,
    PcsProblem,
    SolverNotConvergedError,
    fourth_moment_range,
    solve_pcs,
)


def two_ring_vertex_oracle(energies):
    """Oracle: (m4, masses over the distinct energies) at both m4 extremes,
    scanned over every energy within FEAS_TOL of 1 and every two-energy chord
    through 1.  E^2 is strictly convex in E, so each extreme is one of them."""
    e, ends = np.unique(energies), []
    for i, j in zip(*np.triu_indices(e.size)):
        w = np.zeros(e.size)
        if i == j and abs(e[i] - 1.0) <= FEAS_TOL:
            w[i] = 1.0
        elif i < j and e[i] <= 1.0 <= e[j]:
            w[i], w[j] = (e[j] - 1.0) / (e[j] - e[i]), (1.0 - e[i]) / (e[j] - e[i])
        else:
            continue
        ends.append((float(w @ e**2), w))
    return min(ends, key=lambda end: end[0]), max(ends, key=lambda end: end[0])


def two_ring_range_oracle(energies):
    return tuple(m4 for m4, _ in two_ring_vertex_oracle(energies))


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


_RNG = np.random.default_rng(5)  # the supports of test_range_random_supports_match_oracle
_RANDOM = [_RNG.uniform(0.2, 1.8, _RNG.integers(3, 24)) for _ in range(30)]


@pytest.mark.parametrize("amps", [
    *(make_qam(n).amplitudes for n in (16, 64, 256)), make_psk(8).amplitudes,
    *(a for a in _RANDOM if (a**2).min() <= 1.0 <= (a**2).max()),
    # Rings within FEAS_TOL of 1: alone on their side of it, or bracketed.
    *(np.sqrt(e) for e in ([0.5, 1 - 5e-10], [1 + 5e-10, 1.5], [0.5, 1 + 5e-10, 1.5])),
])
def test_range_end_masses_match_two_ring_oracle(amps):
    rings = group_by_energy(amps**2)
    ring_e = np.array([e for e, _ in rings])
    ends = [pcs.solve_lp(ring_e, maximize) for maximize in (False, True)]
    for end, (m4, w) in zip(ends, two_ring_vertex_oracle(ring_e)):
        assert end.iterations == 0 and np.all(end.masses >= 0)
        assert abs(end.masses.sum() - 1.0) <= 1e-12 and abs(end.masses @ ring_e - 1.0) <= FEAS_TOL
        assert abs(end.masses @ ring_e**2 - m4) <= 1e-12 and end.masses == pytest.approx(w, abs=1e-12)
    # A target beyond either end takes that end's masses, spread evenly over each ring.
    for c0, end in zip((0.0, 1e3), ends):
        probs = solve_pcs(PcsProblem(amps, c0)).probs
        for (_, idx), mass in zip(rings, end.masses):
            assert probs[idx] == pytest.approx(np.full(idx.size, mass / idx.size), abs=1e-15)


@pytest.mark.parametrize("c0", [0.0, 0.9, 1.0])
def test_qam256_at_unit_target_is_its_unit_ring(c0):
    # The unit ring's energy computes to 1 - 2.2e-16; it is still the ring at 1.
    sol = solve_pcs(PcsProblem(make_qam(256).amplitudes, c0))
    assert sol.probs[sol.probs > 0].tolist() == [1 / 16] * 16
    assert sol.entropy_bits == 4.0


def test_infeasible_support():
    for _ in range(3):  # on every call, not only the first on a support
        with pytest.raises(InfeasibleSupportError):
            fourth_moment_range(np.array([0.5, 0.6]))
        with pytest.raises(InfeasibleSupportError):
            solve_pcs(PcsProblem(np.array([1.5, 2.0]), 1.0))


def test_qam16_native_target_recovers_uniform():
    c = make_qam(16)
    sol = solve_pcs(PcsProblem(c.amplitudes, 1.32))
    assert sol.gap <= 1e-8
    assert sol.probs == pytest.approx(np.full(16, 1 / 16), abs=1e-9)


def test_qam16_interior_target_ring_masses():
    # Three rings + three equality constraints pin the masses: corner and
    # outer masses are (c0 - 1)/1.28 split over four points each.
    c = make_qam(16)
    sol = solve_pcs(PcsProblem(c.amplitudes, 1.1))
    a = (1.1 - 1.0) / 1.28
    for energy, idx in group_by_energy(c.energies):
        expected = (1 - 2 * a) / 8 if abs(energy - 1) < 1e-9 else a / 4
        assert sol.probs[idx] == pytest.approx(np.full(idx.size, expected), abs=1e-9)


def test_qam64_interior_target_is_gibbs():
    # Max-entropy over the face forces log(p) affine in (energy, energy^2).
    c = make_qam(64)
    sol = solve_pcs(PcsProblem(c.amplitudes, 1.4))
    rings = group_by_energy(c.energies)
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


def assert_targets_converge(amps, rng, count):
    """Solve ``count`` targets drawn over the feasible range widened by 5 % at
    each end.  The solver stops below 1e-12 in its own ring-ordered sums; the
    moments summed here over points, in another order, may differ from those
    by a few rounding errors of the largest term, so that much is allowed."""
    energies = amps**2
    lo, hi = fourth_moment_range(amps)
    pad = 0.05 * (hi - lo)
    tol = 1e-12 + 8 * np.finfo(float).eps * energies.max() ** 2
    for c0 in np.maximum(rng.uniform(lo - pad, hi + pad, count), 0.0):
        sol = solve_pcs(PcsProblem(amps, float(c0)))
        assert np.all(sol.probs >= 0) and abs(sol.probs.sum() - 1) <= tol
        assert abs(sol.probs @ energies - 1) <= tol
        assert abs(sol.probs @ energies**2 - np.clip(c0, lo, hi)) <= tol


@pytest.mark.parametrize("order", [16, 64, 256])
def test_every_qam_target_converges(order):
    assert_targets_converge(make_qam(order).amplitudes, np.random.default_rng(order), 400)


def test_every_random_support_target_converges():
    rng = np.random.default_rng(8)
    for _ in range(40):
        amps = rng.uniform(0.05, 2.5, rng.integers(3, 40))
        if (amps**2).min() < 1.0 < (amps**2).max():
            assert_targets_converge(amps, rng, 10)


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
    assert message.startswith(f"c0 1.3 (clipped target 1.3, {len(group_by_energy(c.energies))} rings): ")
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
    sols = [solve_pcs(PcsProblem(c.amplitudes, c0)) for c0 in [1.0, 1.32, 2.0]]
    assert [s.achieved_m4 for s in sols] == pytest.approx([1.0, 1.32, 1.64], abs=1e-8)
    single = solve_pcs(PcsProblem(c.amplitudes, 1.32))
    assert sols[1].probs == pytest.approx(single.probs, abs=1e-12)


def test_sweep_psk_constant():
    for c0 in [0.5, 1.0, 2.0]:
        assert solve_pcs(PcsProblem(make_psk(16).amplitudes, c0)).achieved_m4 == pytest.approx(1.0, abs=1e-12)


def test_sweep_monotone_achieved():
    grid = np.linspace(0.8, 2.0, 13)
    sols = [solve_pcs(PcsProblem(make_qam(16).amplitudes, c0)) for c0 in grid]
    achieved = [s.achieved_m4 for s in sols]
    assert np.all(np.diff(achieved) >= -1e-10)


def test_problem_validation():
    with pytest.raises(ValueError):
        PcsProblem(np.array([]), 1.0)
    with pytest.raises(ValueError):
        PcsProblem(np.array([1.0]), -0.5)
    with pytest.raises(ValueError):
        PcsProblem(np.array([-1.0, 1.0]), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_amplitudes_rejected(bad):
    # NaN passes the feasibility check; the range would read NaN.
    for call in (lambda a: PcsProblem(a, 1.0), fourth_moment_range):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            call(np.array([bad, 1.0, 1.2]))


def _fresh_rings(energies):
    """The ring structure of ``energies``, grouped from scratch."""
    groups = group_by_energy(energies)
    of_point = np.empty(energies.size, dtype=int)
    for r, (_, idx) in enumerate(groups):
        of_point[idx] = r
    return [e for e, _ in groups], [idx.size for _, idx in groups], of_point.tolist()


@pytest.mark.parametrize("order, c0", [(16, 1.2), (64, 1.4), (256, 1.3), (256, 0.5)])
def test_cold_and_warm_solves_agree_bit_for_bit(order, c0):
    amps = make_qam(order).amplitudes
    pcs._rings_of.cache_clear()
    cold = solve_pcs(PcsProblem(amps, c0))
    assert pcs._rings_of.cache_info().misses == 1
    warm = solve_pcs(PcsProblem(amps, c0))
    assert pcs._rings_of.cache_info().hits == 1
    assert warm.probs.tobytes() == cold.probs.tobytes()
    assert warm.diagnostics["newton_iterations"] == cold.diagnostics["newton_iterations"]
    assert (warm.achieved_m4, warm.entropy_bits) == (cold.achieved_m4, cold.entropy_bits)


def test_memo_arrays_are_read_only_and_never_returned():
    amps = make_qam(64).amplitudes
    rings = pcs._rings_of((amps**2).tobytes())
    assert all(not array.flags.writeable for array in rings)
    for c0 in (0.5, 1.4, 3.0):  # the lower end, an interior target, the upper end
        first, second = (solve_pcs(PcsProblem(amps, c0)).probs for _ in range(2))
        assert first.flags.writeable and not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, array) for array in rings)
        first[:] = -1.0
        assert solve_pcs(PcsProblem(amps, c0)).probs.tobytes() == second.tobytes()


def test_supports_one_ulp_apart_or_reordered_get_their_own_rings():
    amps = make_qam(64).amplitudes
    nudged = amps.copy()
    nudged[5] = np.nextafter(nudged[5], np.inf)
    perm = np.random.default_rng(39).permutation(amps.size)
    supports = [amps, nudged, amps[perm]]
    keys = [(a**2).tobytes() for a in supports]
    assert len(set(keys)) == 3
    for a, key in zip(supports, keys):
        rings = pcs._rings_of(key)
        energy, count, of_point = _fresh_rings(a**2)
        assert rings.energy.tolist() == energy and rings.count.tolist() == count
        assert rings.of_point.tolist() == of_point
    base, moved = (solve_pcs(PcsProblem(a, 1.4)).probs for a in (amps, amps[perm]))
    assert pcs._rings_of(keys[2]).of_point.tolist() == pcs._rings_of(keys[0]).of_point[perm].tolist()
    assert moved == pytest.approx(base[perm], rel=1e-12)

