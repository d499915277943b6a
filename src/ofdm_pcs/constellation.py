"""Discrete complex constellations with per-point transmit probabilities.

A constellation is a fixed set of complex points together with a probability
vector.  Points are normalized so that the average transmitted power is one,
which makes amplitude moments directly comparable across modulations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Validation tolerances for the simplex and unit-power constraints.
PROB_TOL = 1e-9
POWER_TOL = 1e-9
# Points whose squared amplitudes differ by less than this share a ring.
RING_TOL = 1e-9


class IndexSampler:
    """I.i.d. indices ``0..len(p)-1`` drawn with probabilities ``p``.

    ``draw(rng, n)`` equals ``rng.choice(len(p), size=n, p=p)`` bit for bit
    and leaves ``rng`` where that call would: it takes numpy's own
    ``cdf = p.cumsum(); cdf /= cdf[-1]`` and one ``rng.random(n)`` key per
    index, and ``index(keys)`` maps the keys to indices, so callers that
    share one set of keys across several distributions draw them once.  An
    index is the count of cdf entries <= its key.  That count is found by
    halving steps over the cdf padded with ``inf`` to a power of two, so
    every key takes the same log2 steps, each one gather and compare over
    all keys at once, with no per-key branch.
    """

    def __init__(self, p):
        cdf = np.asarray(p, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        size = 1 << (cdf.size - 1).bit_length()
        self._cdf = np.concatenate([cdf, np.full(size - cdf.size, np.inf)])

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.index(rng.random(n))

    def index(self, keys: np.ndarray) -> np.ndarray:
        """``cdf.searchsorted(keys, side="right")`` for keys in [0, 1)."""
        idx = np.zeros(keys.shape, dtype=np.int64)
        step = self._cdf.size // 2
        while step:
            # The last cdf entry is exactly 1 > key, so idx never passes len(p) - 1.
            idx += step * (self._cdf.take(idx + (step - 1)) <= keys)
            step //= 2
        return idx


@dataclass(frozen=True)
class Constellation:
    """Ordered complex points plus a probability vector on the simplex.

    Invariants checked at construction: points and probabilities are finite,
    probabilities form a simplex within ``PROB_TOL``, the average power
    ``sum(p * |x|^2)`` is one within ``POWER_TOL`` and the fourth moment
    ``sum(p * |x|^4)`` is finite.  Zero probabilities are
    allowed (shaped distributions may drop points entirely).  The point mean
    is *not* constrained.

    Instances are immutable; all methods are pure functions.
    """

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.complex128).copy()
        probs = np.asarray(self.probs, dtype=np.float64).copy()
        if points.ndim != 1 or points.size == 0:
            raise ValueError("points must be a non-empty 1-D sequence")
        if probs.shape != points.shape:
            raise ValueError(
                f"probs shape {probs.shape} does not match points shape {points.shape}"
            )
        # NaN fails no comparison below, so non-finite input is caught first.
        for name, values in (("points", points), ("probabilities", probs)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{name} must be finite, got {values[bad[0]]} at index {bad[0]}")
        if np.any(probs < -PROB_TOL) or np.any(probs > 1 + PROB_TOL):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, expected 1")
        # A finite point may still overflow |x|^2 or |x|^4; the moment it
        # breaks is refused below, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            power, m4 = (float(probs @ np.abs(points) ** k) for k in (2, 4))
        if not abs(power - 1.0) <= POWER_TOL:
            raise ValueError(f"average power is {power!r}, expected 1 (unit power)")
        if not np.isfinite(m4):
            raise ValueError(f"fourth moment E[A^4] is {m4!r}, expected finite")
        np.clip(probs, 0.0, 1.0, out=probs)
        points.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "probs", probs)

    @property
    def order(self) -> int:
        return self.points.size

    @property
    def amplitudes(self) -> np.ndarray:
        return np.abs(self.points)

    @property
    def energies(self) -> np.ndarray:
        """Squared amplitudes |x_q|^2."""
        return np.abs(self.points) ** 2

    def moment(self, k: int) -> float:
        """Amplitude moment ``sum_q p_q A_q**k`` for even ``k``."""
        if k <= 0 or k % 2 != 0:
            raise ValueError(f"only even positive amplitude moments are defined, got k={k}")
        return float(self.probs @ self.amplitudes**k)

    def sample_symbols(self, n: int, seed) -> np.ndarray:
        """Draw ``n`` i.i.d. symbols from the point distribution.

        An integer or ``SeedSequence`` seed gives the same draw on every call.
        A ``Generator`` is used as is (``np.random.default_rng(g) is g``), so
        the draw advances it and moves what the caller draws from it next
        (``detect``'s noise draws, for one).
        """
        if n < 1:
            raise ValueError(f"need at least one draw, got n={n}")
        rng = np.random.default_rng(seed)
        return self.points[IndexSampler(self.probs).draw(rng, n)]

    def with_probs(self, probs) -> "Constellation":
        """Same points, new probability vector (revalidated)."""
        return Constellation(self.points, probs)

    def to_json_dict(self) -> dict:
        return {
            "points": [{"re": float(z.real), "im": float(z.imag)} for z in self.points],
            "probs": [float(p) for p in self.probs],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Constellation":
        try:
            points = np.array([p["re"] + 1j * p["im"] for p in doc["points"]])
            probs = np.array(doc["probs"], dtype=float)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed constellation document: {exc}") from exc
        return cls(points, probs)

    @classmethod
    def from_json(cls, text: str) -> "Constellation":
        return cls.from_json_dict(json.loads(text))


def make_psk(order: int) -> Constellation:
    """Uniform phase-shift-keying constellation with ``order`` points.

    Points are unit modulus at phases 2*pi*q/order, in angle-ascending order,
    each with probability 1/order.  Each phase is folded into [0, pi/2] and
    both parts are taken as sines of the folded angle with their quadrant's
    signs, so the points are exactly mirror-symmetric: point q and point
    order - q share their real part and negate their imaginary part, for an
    even order point q and point order/2 - q negate their real part, and the
    parts on the axes are exactly 0.
    """
    if int(order) != order or order < 2:
        raise ValueError(f"PSK order must be an integer >= 2, got {order}")
    order = int(order)
    # Phases in units of pi / (2 order): a quarter turn is `order` units.
    t = 4 * np.arange(order)
    half = np.minimum(t, 4 * order - t)  # |phase| in [0, pi]
    ref = np.minimum(half, 2 * order - half)  # folded into [0, pi/2]
    re = np.copysign(np.sin(np.pi * (order - ref) / (2 * order)), order - half)
    im = np.copysign(np.sin(np.pi * ref / (2 * order)), 2 * order - t)
    return Constellation(re + 1j * im, np.full(order, 1.0 / order))


def make_qam(order: int) -> Constellation:
    """Uniform square QAM constellation normalized to unit average power.

    The grid is {+-1, +-3, ...}^2 scaled by 1/sqrt(2*(side^2-1)/3) so that the
    average energy under uniform probabilities is exactly one.  Points are
    ordered row-major: imaginary part descending, real part ascending.
    """
    if int(order) != order or order < 4:
        raise ValueError(f"QAM order must be a perfect square >= 4, got {order}")
    order = int(order)
    side = math.isqrt(order)
    if side * side != order or side % 2 != 0:
        raise ValueError(
            f"QAM order must be the square of an even side (4, 16, 64, ...), got {order}"
        )
    levels = np.arange(-(side - 1), side, 2)
    scale = math.sqrt(2.0 * (side**2 - 1) / 3.0)
    re, im = np.meshgrid(levels, levels[::-1])
    points = (re + 1j * im).ravel() / scale
    return Constellation(points, np.full(order, 1.0 / order))


def group_by_energy(energies):
    """Bucket point indices by squared amplitude.

    Returns a list of ``(energy, indices)`` pairs sorted by energy.  Points
    whose energies differ by at most ``RING_TOL`` land in the same ring.
    """
    energies = np.asarray(energies, dtype=float)
    order = np.argsort(energies, kind="stable")
    rings = []
    current = [order[0]]
    for idx in order[1:]:
        if energies[idx] - energies[current[0]] <= RING_TOL:
            current.append(idx)
        else:
            rings.append(current)
            current = [idx]
    rings.append(current)
    return [
        (float(np.mean(energies[idx])), np.array(idx, dtype=int)) for idx in rings
    ]
