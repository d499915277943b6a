"""Correctness checks on the artifacts the benchmark workloads produce.

Every check raises :class:`CheckError` with a message naming what is wrong.
The checks test properties that hold whatever random stream or estimator
produced the numbers (symmetries, information-theoretic bounds, monotonicity
within a stated statistical band), so they keep holding when the library's
RNG streams move or Monte-Carlo estimates are replaced by quadrature.  They
use only the standard library, so they do not share code with what they
check.
"""

from __future__ import annotations

import math
from itertools import combinations


class CheckError(ValueError):
    """An artifact fails a correctness check."""


def read_csv(text: str) -> tuple[dict, list[str], list[list[float]]]:
    """Split an ``ofdm-pcs`` CSV artifact into (meta, header, numeric rows)."""
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif line.strip():
            body.append(line)
    if not body:
        raise CheckError("artifact has no header line")
    header = body[0].split(",")
    rows = []
    for line in body[1:]:
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise CheckError(f"non-numeric row {line[:60]!r}") from exc
        if len(row) != len(header):
            raise CheckError(f"row has {len(row)} fields, header has {len(header)}")
        if not all(math.isfinite(v) for v in row):
            raise CheckError(f"non-finite value in row {line[:60]!r}")
        rows.append(row)
    return meta, header, rows


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _mirror_gap(values: list[float]) -> float:
    """Largest |v[i] - v[-1 - i]|: zero for a sequence symmetric about its middle."""
    return max(abs(a - b) for a, b in zip(values, reversed(values)))


def _require_centred(grid: list[float], name: str) -> None:
    """The grid is odd-sized and antisymmetric, so its middle entry is 0."""
    _require(len(grid) % 2 == 1, f"{name} grid needs an odd size to hold 0")
    gap = max(abs(a + b) for a, b in zip(grid, reversed(grid)))
    _require(gap <= 1e-9 * max(map(abs, grid)), f"{name} grid is not symmetric about 0")


# --- ambiguity -------------------------------------------------------------

AF_SYMMETRY_TOL = 1e-12
# The CLI writes floats with 12 significant digits ("{:.12g}").
PRINTED_DIGITS = 12


def printing_error(value: float) -> float:
    """Largest rounding error of ``value`` as read back from a 12-digit artifact:
    half a unit in its last printed digit, plus one double ulp for the parse."""
    if value == 0.0:
        return 0.0
    exponent = int(f"{value:.{PRINTED_DIGITS - 1}e}".partition("e")[2])
    return 0.5 * 10.0 ** (exponent - PRINTED_DIGITS + 1) + math.ulp(value)


def check_af_surface(text: str, tol: float = AF_SYMMETRY_TOL) -> None:
    """Peak-normalized surface: peak 1 at (0, 0) and |AF(-tau, -nu)| = |AF(tau, nu)|.

    Mirrored cells may differ by ``tol`` plus what printing each one to the
    artifact's 12 digits can add, so the verdict does not depend on where
    rounding falls.
    """
    _, header, rows = read_csv(text)
    nu = [float(h) for h in header[1:]]
    tau = [r[0] for r in rows]
    values = [r[1:] for r in rows]
    _require_centred(tau, "tau")
    _require_centred(nu, "nu")
    it, inu = len(tau) // 2, len(nu) // 2
    peak = max(max(row) for row in values)
    _require(abs(peak - 1.0) <= tol, f"peak is {peak!r}, expected 1")
    _require(abs(values[it][inu] - 1.0) <= tol, f"value at (0, 0) is {values[it][inu]!r}, expected 1")
    excess, a, b = max(
        (abs(a - b) - tol - printing_error(a) - printing_error(b), a, b)
        for row, mirror in zip(values, reversed(values))
        for a, b in zip(row, reversed(mirror))
    )
    _require(
        excess <= 0.0,
        f"surface differs from its (-tau, -nu) mirror by {abs(a - b):.3e} ({a!r} vs {b!r}),"
        f" over {tol:.0e} plus printing rounding",
    )


AF_SLICE_TOL_DB = 1e-6
# Off-peak floor window, as fractions of the largest |tau| on the grid: past
# the main lobe and clear of the window edge where every slice falls to zero.
FLOOR_WINDOW = (0.05, 0.9)


def check_af_slice(text: str, tol_db: float = AF_SLICE_TOL_DB) -> float:
    """Zero-Doppler slice symmetric in tau with its 0 dB peak at tau = 0.

    Returns the off-peak floor in dB: the mean linear magnitude over
    :data:`FLOOR_WINDOW`, converted to dB.
    """
    _, header, rows = read_csv(text)
    _require(header == ["tau", "magnitude_db"], f"unexpected header {header}")
    tau = [r[0] for r in rows]
    db = [r[1] for r in rows]
    _require_centred(tau, "tau")
    span = max(map(abs, tau))
    gap = _mirror_gap(db)
    _require(gap <= tol_db, f"slice is not symmetric in tau: gap {gap:.3e} dB")
    mid = len(tau) // 2
    _require(abs(db[mid]) <= 1e-9 and max(db) <= 1e-9, f"peak {max(db)!r} dB is not 0 dB at tau = 0")
    lo, hi = FLOOR_WINDOW
    off_peak = [10.0 ** (d / 20.0) for t, d in zip(tau, db) if lo * span <= abs(t) <= hi * span]
    _require(bool(off_peak), "no delays in the off-peak window")
    return 20.0 * math.log10(sum(off_peak) / len(off_peak))


def check_floor_order(lower_db: float, higher_db: float, what: str) -> None:
    _require(lower_db < higher_db, f"{what}: floor {lower_db:.3f} dB is not below {higher_db:.3f} dB")


# --- achievable rate ---------------------------------------------------------

# Monte-Carlo allowance in bits.  At 20 000 draws the per-point standard error
# is at most about 0.012 bits, so 0.1 bits is over 8 standard errors for a
# bound and about 6 for a difference of two points.
RATE_TOL = 0.1


def rate_ceiling(order: int, snr_db: float) -> float:
    """min(log2 M, log2(1 + SNR)): no input of M points beats either."""
    return min(math.log2(order), math.log2(1.0 + 10.0 ** (snr_db / 10.0)))


def check_air_snr(text: str, orders: dict[str, int], tol: float = RATE_TOL) -> None:
    """Rates under the capacity/entropy ceiling and non-decreasing in SNR."""
    _, header, rows = read_csv(text)
    _require(header[0] == "snr_db", f"unexpected header {header}")
    _require(len(header) == len(orders) + 1, f"expected {len(orders)} rate columns, got {header[1:]}")
    snr = [r[0] for r in rows]
    _require(all(b > a for a, b in zip(snr, snr[1:])), "SNR grid not increasing")
    for col, name in enumerate(header[1:], start=1):
        label = name.removeprefix("rate_")
        _require(label in orders, f"unexpected column {name}")
        rates = [r[col] for r in rows]
        for s, rate in zip(snr, rates):
            ceiling = rate_ceiling(orders[label], s)
            _require(-tol <= rate <= ceiling + tol, f"{label} rate {rate:.4f} at {s} dB outside [0, {ceiling:.4f}] + {tol}")
        for (s0, r0), (s1, r1) in zip(zip(snr, rates), zip(snr[1:], rates[1:])):
            _require(r1 >= r0 - tol, f"{label} rate falls from {r0:.4f} at {s0} dB to {r1:.4f} at {s1} dB")


def check_air_c0(text: str, order: int, tol: float = RATE_TOL) -> None:
    """Rates under min(log2 M, log2(1 + 1/sigma2)) and under the input entropy."""
    meta, header, rows = read_csv(text)
    _require(header == ["c0", "rate_bits", "std_error", "gap", "entropy_bits"], f"unexpected header {header}")
    sigma2 = float(meta["sigma2"])
    snr_db = -10.0 * math.log10(sigma2)
    ceiling = rate_ceiling(order, snr_db)
    for c0, rate, std_error, _gap, entropy in rows:
        _require(std_error >= 0.0, f"negative std_error at c0 = {c0}")
        _require(-tol <= rate <= ceiling + tol, f"rate {rate:.4f} at c0 = {c0} above {ceiling:.4f} + {tol}")
        _require(rate <= entropy + tol, f"rate {rate:.4f} at c0 = {c0} above the input entropy {entropy:.4f}")


# --- detection ---------------------------------------------------------------

PD_SIGMAS = 4.0
# Detection probability at the lowest SNR: the target is 5 dB under the noise,
# so detections there are essentially false alarms (target rate 1e-3).
PD_FLOOR_MAX = 0.05


def check_pd_sweep(text: str) -> None:
    """pd non-decreasing in SNR within a binomial band, ~0 at the lowest SNR,
    and the sensing-friendly shaping (smallest c0) detects more at high SNR
    than the rate-friendly one (largest c0)."""
    _, header, rows = read_csv(text)
    _require(header == ["c0", "snr_db", "pd", "trials"], f"unexpected header {header}")
    series: dict[float, list[tuple[float, float, float]]] = {}
    for c0, snr, pd, trials in rows:
        _require(0.0 <= pd <= 1.0 and trials >= 1, f"pd {pd} or trials {trials} out of range")
        series.setdefault(c0, []).append((snr, pd, trials))
    _require(len(series) >= 2, "need at least two shaping targets")
    high_means = {}
    for c0, points in series.items():
        points.sort()
        _require(points[0][1] <= PD_FLOOR_MAX, f"pd {points[0][1]} at the lowest SNR for c0 = {c0}")
        for (s0, p0, n0), (s1, p1, n1) in zip(points, points[1:]):
            p = 0.5 * (p0 + p1)
            band = PD_SIGMAS * math.sqrt(p * (1 - p) * (1 / n0 + 1 / n1)) + 1 / min(n0, n1)
            _require(p1 >= p0 - band, f"pd falls from {p0} at {s0} dB to {p1} at {s1} dB for c0 = {c0}")
        top = points[len(points) // 2 :]
        high_means[c0] = sum(p for _, p, _ in top) / len(top)
    lo, hi = min(high_means), max(high_means)
    _require(
        high_means[lo] > high_means[hi],
        f"mean high-SNR pd {high_means[lo]:.4f} at c0 = {lo} is not above {high_means[hi]:.4f} at c0 = {hi}",
    )


# --- shaping -----------------------------------------------------------------

SHAPING_TOL = 1e-9


def ring_energies(energies, tol: float = 1e-9) -> list[float]:
    rings: list[float] = []
    for e in sorted(energies):
        if not rings or e - rings[-1] > tol:
            rings.append(e)
    return rings


def feasible_m4_range(energies) -> tuple[float, float]:
    """Exact range of E[A^4] under unit power, by enumerating ring pairs.

    With two equality constraints, every vertex of the feasible set puts mass
    on at most two energy rings, so the extremes of the (linear) fourth moment
    are among the one- and two-ring mixtures that reach unit power.
    """
    rings = ring_energies(energies)
    values = [e * e for e in rings if abs(e - 1.0) <= 1e-12]
    for a, b in combinations(rings, 2):
        if a <= 1.0 <= b and b > a:
            w = (b - 1.0) / (b - a)
            values.append(w * a * a + (1 - w) * b * b)
    if not values:
        raise CheckError("unit power is unreachable on these energies")
    return min(values), max(values)


def check_shaping(probs, energies, target: float, m4_range: tuple[float, float], tol: float = SHAPING_TOL) -> None:
    """On the simplex, unit power, and E[A^4] equal to the clipped target."""
    _require(len(probs) == len(energies), "probability vector has the wrong length")
    _require(all(math.isfinite(p) and p >= -tol for p in probs), "negative or non-finite probability")
    _require(abs(math.fsum(probs) - 1.0) <= tol, f"probabilities sum to {math.fsum(probs)!r}")
    power = math.fsum(p * e for p, e in zip(probs, energies))
    _require(abs(power - 1.0) <= tol, f"average power {power!r} is not 1")
    m4 = math.fsum(p * e * e for p, e in zip(probs, energies))
    want = min(max(target, m4_range[0]), m4_range[1])
    _require(abs(m4 - want) <= tol, f"fourth moment {m4!r} differs from the clipped target {want!r}")
