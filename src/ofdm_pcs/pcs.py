"""Fourth-moment-targeting probability shaping over a fixed constellation.

Given the amplitudes of a constellation's points, choose point probabilities
minimizing ``|sum_q p_q A_q^4 - c0|`` subject to unit average power and the
probability simplex.  Two range LPs (dense simplex solver) give the feasible
fourth-moment interval; the target is clipped onto it, and the solution is the
maximum-entropy distribution with that fourth moment, which makes it unique
and reproducible.
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

    Interior targets use the Gibbs family p ~ n_r * exp(l1*E_r + l2*E_r^2)
    fitted by damped Newton on the convex dual.  Boundary targets have a
    unique mass vector (the range LP vertex: the objective ``E^2`` is strictly
    convex in ``E``, so the extreme is a one- or two-ring chord); three or
    fewer rings pin the masses by the equality constraints alone.
    """
    r = ring_e.size
    if m4_target <= m4_min + BOUNDARY_TOL:
        return w_min, 0
    if m4_target >= m4_max - BOUNDARY_TOL:
        return w_max, 0
    if r <= 3:
        a = np.vstack([np.ones(r), ring_e, ring_e**2])
        b = np.array([1.0, 1.0, m4_target])
        w, *_ = np.linalg.lstsq(a, b, rcond=None)
        if np.any(w < -1e-10) or np.max(np.abs(a @ w - b)) > 1e-9:
            raise SolverNotConvergedError(
                f"ring masses for target {m4_target!r} are not realizable: w={w!r}"
            )
        return np.clip(w, 0.0, None), 0

    feats = np.vstack([ring_e, ring_e**2])
    target = np.array([1.0, m4_target])
    log_n = np.log(ring_n)
    lam = np.zeros(2)

    def dual_and_moments(lam):
        logits = log_n + lam @ feats
        shift = logits.max()
        z = np.exp(logits - shift)
        total = z.sum()
        w = z / total
        dual = shift + np.log(total) - lam @ target
        return dual, w, feats @ w

    dual, w, mom = dual_and_moments(lam)
    for it in range(1, 301):
        grad = mom - target
        if np.max(np.abs(grad)) < NEWTON_TOL:
            return w, it
        centered = feats - mom[:, None]
        hess = (centered * w) @ centered.T
        ridge = 1e-14 * max(1.0, np.trace(hess))
        try:
            step = np.linalg.solve(hess + ridge * np.eye(2), -grad)
        except np.linalg.LinAlgError:
            step = -grad
        scale = 1.0
        for _ in range(60):
            cand = lam + scale * step
            cand_dual, cand_w, cand_mom = dual_and_moments(cand)
            if cand_dual <= dual + 1e-4 * scale * (grad @ step):
                lam, dual, w, mom = cand, cand_dual, cand_w, cand_mom
                break
            scale *= 0.5
        else:
            raise SolverNotConvergedError(
                f"line search stalled at iteration {it}, residual {grad!r}"
            )
    raise SolverNotConvergedError(
        f"Newton iteration cap reached, residual {np.max(np.abs(mom - target)):.3e}"
    )


def sweep_c0(support, c0_grid) -> list[PcsSolution]:
    """Independent :func:`solve_pcs` calls over a grid of targets."""
    grid = np.asarray(c0_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("c0_grid must be a non-empty 1-D list")
    return [solve_pcs(PcsProblem(support, c0)) for c0 in grid]
