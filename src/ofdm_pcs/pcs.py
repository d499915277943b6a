"""Fourth-moment-targeting probability shaping over a fixed constellation.

Given the amplitudes of a constellation's points, choose point probabilities
minimizing ``|sum_q p_q A_q^4 - c0|`` subject to unit average power and the
probability simplex.  Two range LPs (dense simplex solver) give the feasible
fourth-moment interval and the target is clipped onto it.  The solution is the
maximum-entropy distribution with that fourth moment: a Maxwell-Boltzmann
(Gibbs) law in E and E^2, fitted as two nested monotone 1-D roots, so it is
unique, reproducible and found for every target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constellation import group_by_energy
from .simplex import solve_lp

FEAS_TOL = 1e-9
# Targets within this distance of the feasible boundary snap onto it; the
# interior Gibbs parameterization diverges exactly at the boundary.
BOUNDARY_TOL = 1e-9
NEWTON_TOL = 1e-12


class InfeasibleSupportError(ValueError):
    """The unit-power constraint cannot be met on the given amplitudes."""


class SolverNotConvergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class PcsProblem:
    """Shaping instance: point amplitudes plus the fourth-moment target."""

    support: np.ndarray
    c0: float

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float).copy()
        if support.ndim != 1 or support.size == 0:
            raise ValueError("support must be a non-empty 1-D amplitude list")
        if np.any(support < 0):
            raise ValueError("amplitudes must be nonnegative")
        if not np.isfinite(self.c0) or self.c0 < 0:
            raise ValueError(f"c0 must be a nonnegative real, got {self.c0}")
        support.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "c0", float(self.c0))


@dataclass
class PcsSolution:
    probs: np.ndarray
    achieved_m4: float
    gap: float
    feasible_range: tuple[float, float]
    tie_break_entropy: float
    diagnostics: dict = field(default_factory=dict)


def _check_feasible(energies: np.ndarray):
    if energies.min() > 1 + FEAS_TOL or energies.max() < 1 - FEAS_TOL:
        raise InfeasibleSupportError(
            "unit average power is unreachable: point energies span "
            f"[{energies.min():.6g}, {energies.max():.6g}], which does not cover 1"
        )


def fourth_moment_range(support) -> tuple[float, float]:
    """Extremes of ``sum p A^4`` over the power-constrained simplex.

    Both bounds come from linear programs over the energy rings (grouping
    equal-energy points loses nothing: the objective and constraints depend on
    points only through their energies).
    """
    support = np.asarray(support, dtype=float)
    energies = support**2
    _check_feasible(energies)
    ring_e = np.array([e for e, _ in group_by_energy(energies)])
    lo = _range_lp(ring_e, maximize=False)[1]
    hi = _range_lp(ring_e, maximize=True)[1]
    return (lo, hi)


def _range_lp(ring_e: np.ndarray, maximize: bool):
    """LP over ring masses; returns (ring mass vector, extreme m4 value, pivots)."""
    a_eq = np.vstack([np.ones_like(ring_e), ring_e])
    b_eq = np.array([1.0, 1.0])
    c = -(ring_e**2) if maximize else ring_e**2
    res = solve_lp(c, a_eq, b_eq)
    value = float(ring_e**2 @ res.x)
    return res.x, value, res.iterations


def solve_pcs(problem: PcsProblem, tie_break: str = "max-entropy") -> PcsSolution:
    """Solve the shaping problem for one target ``c0``.

    The target is clipped onto the feasible fourth-moment range, and the
    result is the entropy-maximizing distribution with that fourth moment,
    which spreads mass uniformly within each energy ring.  ``tie_break``
    accepts only ``"max-entropy"``.
    """
    if tie_break != "max-entropy":
        raise ValueError(f"unknown tie_break {tie_break!r}")
    amps = problem.support
    energies = amps**2
    quads = energies**2
    _check_feasible(energies)

    rings = group_by_energy(energies)
    ring_e = np.array([e for e, _ in rings])
    ring_n = np.array([len(idx) for _, idx in rings], dtype=float)

    w_min, m4_min, lp_min = _range_lp(ring_e, maximize=False)
    w_max, m4_max, lp_max = _range_lp(ring_e, maximize=True)

    m4_target = float(np.clip(problem.c0, m4_min, m4_max))
    try:
        ring_w, newton_iters = _max_entropy_ring_masses(
            ring_e, ring_n, m4_target, m4_min, m4_max, w_min, w_max
        )
    except SolverNotConvergedError as exc:
        raise SolverNotConvergedError(
            f"c0 {problem.c0!r} (clipped target {m4_target!r}, {ring_e.size} rings): {exc}"
        ) from exc
    probs = np.zeros(amps.size)
    for (energy, idx), w in zip(rings, ring_w):
        probs[idx] = w / idx.size

    achieved = float(probs @ quads)
    pos = probs[probs > 0]
    return PcsSolution(
        probs=probs,
        achieved_m4=achieved,
        gap=abs(achieved - problem.c0),
        feasible_range=(m4_min, m4_max),
        tie_break_entropy=float(-(pos @ np.log2(pos))) if pos.size else 0.0,
        diagnostics={"lp_iterations": lp_min + lp_max, "newton_iterations": newton_iters},
    )


def _max_entropy_ring_masses(ring_e, ring_n, m4_target, m4_min, m4_max, w_min, w_max):
    """Entropy-maximizing ring masses subject to the two moment equalities.

    Boundary targets have a unique mass vector (the range LP vertex: the
    objective ``E^2`` is strictly convex in ``E``, so the extreme is a one- or
    two-ring chord).  Interior targets take the Gibbs masses
    w ~ n_r * exp(l1*E_r + l2*E_r^2) from two nested monotone roots: for a
    fixed l2, E_w[E] = 1 in l1 (slope Var E), and along that curve
    E_w[E^2] = target in l2 (slope Var E^2 - Cov(E, E^2)^2 / Var E).  Each
    inner root starts from the curve's tangent at the previous one.
    """
    if m4_target <= m4_min + BOUNDARY_TOL:
        return w_min, 0
    if m4_target >= m4_max - BOUNDARY_TOL:
        return w_max, 0
    feats = np.vstack([ring_e, ring_e**2])
    log_n = np.log(ring_n)
    # The last inner root (l1, l2), dl1/dl2 there, its masses and step count.
    fit = {"lam": (0.0, 0.0), "tangent": 0.0, "steps": 0}

    def mean_gap(lam1, base):
        logits = base + lam1 * ring_e
        z = np.exp(logits - logits.max())
        fit["w"] = w = z / z.sum()
        mean = w @ ring_e
        return mean - 1.0, w @ (ring_e - mean) ** 2

    def m4_gap(lam2):
        lam1, prev = fit["lam"]
        base = log_n + lam2 * feats[1]
        lam1, steps = _monotone_root(lambda x: mean_gap(x, base), lam1 + fit["tangent"] * (lam2 - prev))
        mom = feats @ fit["w"]
        centered = feats - mom[:, None]
        cov = (centered * fit["w"]) @ centered.T
        fit.update(lam=(lam1, lam2), tangent=-cov[0, 1] / cov[0, 0], steps=fit["steps"] + steps)
        return mom[1] - m4_target, cov[1, 1] + cov[0, 1] * fit["tangent"]

    _, steps = _monotone_root(m4_gap, 0.0)
    return fit["w"], fit["steps"] + steps


def _monotone_root(f, x):
    """Root of an increasing ``f``, which returns its value and slope at ``x``.

    A Newton step is taken when it lands inside the bracket of the points
    evaluated so far; otherwise, or at zero slope, the bracket is bisected.
    While one end is unknown, a step goes at most ``span`` past the known
    end, and ``span`` doubles.  Returns the root and the evaluation count.
    """
    lo, hi, span = -np.inf, np.inf, 1.0
    for it in range(1, 101):
        value, slope = map(float, f(x))
        if abs(value) < NEWTON_TOL:
            return x, it
        lo, hi = (x, hi) if value < 0 else (lo, x)
        newton = x - value / max(slope, 1e-300)
        if hi == np.inf:
            x = min(newton, lo + span)
        elif lo == -np.inf:
            x = max(newton, hi - span)
        else:
            x = newton if lo < newton < hi else 0.5 * (lo + hi)
        span *= 2
    raise SolverNotConvergedError(f"Newton iteration cap reached, residual {abs(value):.3e}")


def sweep_c0(support, c0_grid) -> list[PcsSolution]:
    """Independent :func:`solve_pcs` calls over a grid of targets."""
    grid = np.asarray(c0_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("c0_grid must be a non-empty 1-D list")
    return [solve_pcs(PcsProblem(support, c0)) for c0 in grid]
