"""Fourth-moment-targeting probability shaping over a fixed constellation.

Given the amplitudes of a constellation's points, choose point probabilities
minimizing ``|sum_q p_q A_q^4 - c0|`` subject to unit average power and the
probability simplex.  The feasible fourth-moment interval has closed-form
ends (``E^2`` is strictly convex in the energy ``E``, so each end is one ring
or a chord between two rings) and the target is clipped onto it.  The
solution is the maximum-entropy distribution with that fourth moment: a
Maxwell-Boltzmann (Gibbs) law in E and E^2, fitted as two nested monotone 1-D
roots, so it is unique, reproducible and found for every target.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constellation import group_by_energy

FEAS_TOL = 1e-9
# Targets within this distance of the feasible boundary snap onto it; the
# interior Gibbs parameterization diverges exactly at the boundary.
BOUNDARY_TOL = 1e-9
NEWTON_TOL = 1e-12
# A ring this close to 1 is at unit energy: the distance is rounding in the
# squared amplitudes (qam256's unit ring computes to 1 - 2.2e-16).
UNIT_ULPS = 4 * np.finfo(float).eps


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
        if not np.all(np.isfinite(support) & (support >= 0)):
            raise ValueError(f"amplitudes must be finite and nonnegative, got {support.tolist()}")
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
    entropy_bits: float
    diagnostics: dict = field(default_factory=dict)


def fourth_moment_range(support) -> tuple[float, float]:
    """Extremes of ``sum p A^4`` over the power-constrained simplex, in closed
    form (:func:`solve_lp`), for amplitudes that :class:`PcsProblem` accepts."""
    _, (_, lo), (_, hi) = _range_lps(PcsProblem(support, 0.0).support ** 2)
    return (lo, hi)


class _Rings(NamedTuple):
    """A support's energy rings, as :func:`group_by_energy` groups them, with
    the constants the Newton fit reads; every array is read-only."""

    energy: np.ndarray  # each ring's mean energy, ascending
    count: np.ndarray  # points per ring, as floats
    of_point: np.ndarray  # each point's ring index
    log_count: np.ndarray
    feats: np.ndarray  # rows energy and energy^2


@functools.lru_cache(maxsize=8)
def _rings_of(key: bytes) -> _Rings:
    """The rings of the point energies whose float64 bytes are ``key``.
    Callers solve many targets on one support, so each support is grouped
    once per process; the bytes tell apart supports that differ in any bit
    or in point order."""
    energies = np.frombuffer(key)
    groups = group_by_energy(energies)
    energy = np.array([e for e, _ in groups])
    count = np.array([idx.size for _, idx in groups], dtype=float)
    of_point = np.empty(energies.size, dtype=np.intp)
    for r, (_, idx) in enumerate(groups):
        of_point[idx] = r
    rings = _Rings(energy, count, of_point, np.log(count), np.vstack([energy, energy**2]))
    for array in rings:
        array.setflags(write=False)
    return rings


class RangeEnd(NamedTuple):
    masses: np.ndarray
    iterations: int = 0  # solver pivots: none, the end is taken in closed form


def solve_lp(ring_e: np.ndarray, maximize: bool) -> RangeEnd:
    """Ring masses at the smallest, or with ``maximize`` the largest, ``sum w E^2``
    over ``w >= 0``, ``sum w = 1`` and ``sum w E = 1``, for ascending ``E``.

    ``E^2`` is strictly convex in ``E``, so the minimum is its chord between the
    rings next to 1 on either side (one ring, if it sits at 1), and the maximum
    its chord between the innermost and the outermost ring.  A ring within
    ``UNIT_ULPS`` of 1 counts as being at 1, alone, and so does a ring with no
    partner across 1, which is within ``FEAS_TOL`` of 1 (:func:`_range_lps`
    checks that).
    """
    if maximize:
        i, j = 0, ring_e.size - 1
    else:
        i = max(int(np.searchsorted(ring_e, 1.0, "right")) - 1, 0)
        j = min(int(np.searchsorted(ring_e, 1.0)), ring_e.size - 1)
    lo, hi, masses = ring_e[i], ring_e[j], np.zeros(ring_e.size)
    if lo >= 1.0 - UNIT_ULPS or hi <= 1.0 + UNIT_ULPS:
        masses[i if lo >= 1.0 - UNIT_ULPS else j] = 1.0
    else:
        masses[i], masses[j] = (hi - 1.0) / (hi - lo), (1.0 - lo) / (hi - lo)
    return RangeEnd(masses)


def _range_lps(energies: np.ndarray):
    """Energy rings and both ends of the fourth-moment range over their masses.

    Returns ``(rings, lo, hi)``: the support's :class:`_Rings`, and for the
    minimum and the maximum of ``sum p E^2`` the (ring mass vector, extreme
    m4 value).  Grouping equal-energy points loses nothing: the objective and
    constraints depend on points only through their energies.
    """
    if energies.min() > 1 + FEAS_TOL or energies.max() < 1 - FEAS_TOL:
        raise InfeasibleSupportError(
            "unit average power is unreachable: point energies span "
            f"[{energies.min():.6g}, {energies.max():.6g}], which does not cover 1"
        )
    rings = _rings_of(energies.tobytes())
    ends = [solve_lp(rings.energy, maximize).masses for maximize in (False, True)]
    return rings, *((w, float(rings.energy**2 @ w)) for w in ends)


def solve_pcs(problem: PcsProblem, tie_break: str = "max-entropy") -> PcsSolution:
    """Solve the shaping problem for one target ``c0``.

    The target is clipped onto the feasible fourth-moment range, and the
    result is the entropy-maximizing distribution with that fourth moment,
    which spreads mass uniformly within each energy ring.  ``tie_break``
    accepts only ``"max-entropy"``.
    """
    if tie_break != "max-entropy":
        raise ValueError(f"unknown tie_break {tie_break!r}")
    energies = problem.support**2
    quads = energies**2
    rings, (w_min, m4_min), (w_max, m4_max) = _range_lps(energies)

    m4_target = float(np.clip(problem.c0, m4_min, m4_max))
    try:
        ring_w, newton_iters = _max_entropy_ring_masses(rings, m4_target, m4_min, m4_max, w_min, w_max)
    except SolverNotConvergedError as exc:
        raise SolverNotConvergedError(
            f"c0 {problem.c0!r} (clipped target {m4_target!r}, {rings.energy.size} rings): {exc}"
        ) from exc
    probs = (ring_w / rings.count)[rings.of_point]

    achieved = float(probs @ quads)
    pos = probs[probs > 0]
    return PcsSolution(
        probs=probs,
        achieved_m4=achieved,
        gap=abs(achieved - problem.c0),
        feasible_range=(m4_min, m4_max),
        # 0 - x, not -x: a one-point support's sum is 0, and -0 would print as "-0".
        entropy_bits=0.0 - float(pos @ np.log2(pos)),
        diagnostics={"newton_iterations": newton_iters},
    )


def _max_entropy_ring_masses(rings, m4_target, m4_min, m4_max, w_min, w_max):
    """Entropy-maximizing ring masses subject to the two moment equalities.

    Boundary targets have a unique mass vector (the :func:`solve_lp` end: the
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
    ring_e, feats = rings.energy, rings.feats
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
        base = rings.log_count + lam2 * feats[1]
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

