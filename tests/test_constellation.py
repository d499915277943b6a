import json
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ofdm_pcs.constellation import (
    Constellation,
    IndexSampler,
    group_by_energy,
    make_psk,
    make_qam,
)
from ofdm_pcs.pcs import PcsProblem, solve_pcs


def enumerated_qam_moment(side: int, power: int) -> float:
    """Independent oracle: direct enumeration of the odd-integer grid."""
    levels = range(-(side - 1), side, 2)
    energies = [a * a + b * b for a in levels for b in levels]
    scale = sum(energies) / len(energies)
    return sum((e / scale) ** (power // 2) for e in energies) / len(energies)


def test_bpsk_points():
    c = make_psk(2)
    assert np.allclose(sorted(c.points, key=lambda z: z.real), [-1, 1], atol=1e-12)
    assert np.allclose(c.probs, 0.5)


def test_psk16_constant_modulus():
    c = make_psk(16)
    assert c.order == 16
    assert np.allclose(np.abs(c.points), 1.0, atol=1e-12)
    assert c.moment(4) == pytest.approx(1.0, abs=1e-12)


def test_qpsk_power_and_entropy():
    c = make_psk(4)
    assert c.moment(2) == pytest.approx(1.0, abs=1e-12)
    assert solve_pcs(PcsProblem(c.amplitudes, 1.0)).entropy_bits == pytest.approx(2.0, abs=1e-12)


def test_psk_phases_ascending():
    c = make_psk(8)
    assert np.all(np.diff(np.angle(c.points) % (2 * np.pi)) > 0)


def exact_unit_point(q: int, order: int) -> complex:
    """Independent oracle: exp(2 pi j q / order) from its Taylor series in
    40-digit decimal arithmetic, rounded once to complex128."""
    pi = Decimal("3.14159265358979323846264338327950288419716939937510")
    with localcontext() as ctx:
        ctx.prec = 40
        x = 2 * pi * q / order
        parts, term = [Decimal(0), Decimal(0)], Decimal(1)
        for n in range(120):
            # (jx)^n / n! adds to the real part for even n, the imaginary for odd
            parts[n % 2] += term if n % 4 < 2 else -term
            term = term * x / (n + 1)
        return complex(float(parts[0]), float(parts[1]))


@pytest.mark.parametrize("order", [2, 3, 4, 8, 12, 16, 32])
def test_psk_points_are_mirror_symmetric(order):
    points = make_psk(order).points
    for q in range(order):
        mirror = points[-q % order]
        assert points[q].real == mirror.real and points[q].imag == -mirror.imag
        if order % 2 == 0:
            assert points[q].real == -points[(order // 2 - q) % order].real
        assert abs(points[q] - exact_unit_point(q, order)) <= 8 * 2.0**-53
    # sin 0 and sin pi are exactly 0, as are the real parts at +-pi/2
    assert points[0].imag == 0.0
    if order % 2 == 0:
        assert points[order // 2].imag == 0.0
    if order % 4 == 0:
        assert points[order // 4].real == 0.0 == points[3 * order // 4].real
        # one part per folded phase and sign: 9 per axis on psk16
        assert np.unique(points.real).size == np.unique(points.imag).size == order // 2 + 1


@pytest.mark.parametrize("order", [0, 1, -4])
def test_psk_invalid_order(order):
    with pytest.raises(ValueError):
        make_psk(order)


def test_qam16_rings():
    c = make_qam(16)
    rings = group_by_energy(c.energies)
    assert [round(e, 12) for e, _ in rings] == [0.2, 1.0, 1.8]
    assert [len(idx) for _, idx in rings] == [4, 8, 4]


def test_qam16_point_set_matches_enumeration():
    c = make_qam(16)
    expected = sorted(
        (complex(a, b) / math.sqrt(10) for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)),
        key=lambda z: (z.real, z.imag),
    )
    got = sorted(c.points, key=lambda z: (z.real, z.imag))
    assert np.allclose(got, expected, atol=1e-15)


@pytest.mark.parametrize("order,power", [(16, 4), (64, 4), (16, 2), (64, 2), (256, 4)])
def test_qam_moments_match_enumeration(order, power):
    c = make_qam(order)
    oracle = enumerated_qam_moment(math.isqrt(order), power)
    assert c.moment(power) == pytest.approx(oracle, abs=1e-12)


def test_qam16_fourth_moment_value():
    assert make_qam(16).moment(4) == pytest.approx(1.32, abs=1e-12)


def test_qam64_fourth_moment_value():
    assert make_qam(64).moment(4) == pytest.approx(2436 / 1764, abs=1e-12)


@pytest.mark.parametrize("order", [2, 8, 9, 10, 36.5])
def test_qam_invalid_order(order):
    with pytest.raises(ValueError):
        make_qam(order)


def test_moment_rejects_odd_power():
    with pytest.raises(ValueError):
        make_qam(16).moment(3)


def test_entropy_uniform_and_degenerate():
    c8 = Constellation(np.exp(2j * np.pi * np.arange(8) / 8), np.full(8, 0.125))
    assert solve_pcs(PcsProblem(c8.amplitudes, 1.0)).entropy_bits == pytest.approx(3.0, abs=1e-12)


def test_entropy_below_log2_order():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.integers(2, 20)
        p = rng.dirichlet(np.ones(q))
        amps = rng.uniform(0.3, 2.0, q)
        amps /= np.sqrt(p @ amps**2)
        c = Constellation(amps + 0j, p)
        assert solve_pcs(PcsProblem(c.amplitudes, c.moment(4))).entropy_bits <= np.log2(q) + 1e-12


def test_sampling_deterministic():
    c = make_qam(16)
    a = c.sample_symbols(512, 42)
    b = c.sample_symbols(512, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c.sample_symbols(512, 43))


@pytest.mark.parametrize("points", [1, 2, 3, 16, 17, 256, 1000, 1024])
@pytest.mark.parametrize("zeros", [False, True], ids=["dense", "zeros"])
def test_index_sampler_matches_rng_choice(points, zeros):
    rng = np.random.default_rng(points)
    p = rng.random(points)
    if zeros and points > 1:
        p[rng.random(points) < 0.4] = 0.0
        p[0] = p[-1] = 0.0
        p[points // 2] = 1.0
    p /= p.sum()
    expected, drawn = np.random.default_rng(5), np.random.default_rng(5)
    want = expected.choice(points, size=3000, p=p)
    got = IndexSampler(p).draw(drawn, 3000)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    # Same stream position afterwards: the next draw is the same too.
    assert drawn.standard_normal(8).tobytes() == expected.standard_normal(8).tobytes()


def test_index_sampler_keys_on_cdf_entries():
    # A key equal to a cdf entry goes past it (searchsorted side="right"),
    # and a zero-probability point is never drawn, at 0.0 either.
    p = np.array([0.0, 0.25, 0.25, 0.0, 0.5])
    cdf = p.cumsum() / p.sum()
    keys = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0), [0.0, np.nextafter(1.0, 0.0)]])

    class Keys:
        def random(self, n):
            assert n == keys.size
            return keys.copy()

    got = IndexSampler(p).draw(Keys(), keys.size)
    assert np.array_equal(got, cdf.searchsorted(keys, side="right"))
    assert np.array_equal(got[:4], [1, 2, 4, 4])
    assert not np.isin(got, [0, 3]).any()


@pytest.mark.parametrize(
    "p",
    [[1.0], [0.0, 0.25, 0.25, 0.0, 0.5], [0.5, 0.0, 0.0, 0.5, 0.0], [0.1] * 10, [1e-12, 0.3, 0.0, 0.7 - 1e-12]],
    ids=["one", "zeros-inside", "zeros-at-end", "uniform10", "rare"],
)
def test_index_sampler_index_matches_searchsorted(p):
    # Oracle: numpy's cdf, searched from the right; keys on every cdf entry,
    # just below each, 0.0, the largest double below 1 and random keys.
    p = np.array(p)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    edges = cdf[cdf < 1.0]
    keys = np.concatenate([
        edges, np.nextafter(edges, 0.0), [0.0, np.nextafter(1.0, 0.0)],
        np.random.default_rng(3).random(500),
    ])
    got = IndexSampler(p).index(keys)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.searchsorted(cdf, keys, side="right"))
    assert (p[got] > 0).all()


def test_bpsk_sample_mean_near_zero():
    draws = make_psk(2).sample_symbols(100_000, 7)
    # CLT: |mean| below three standard errors of a unit-variance symbol.
    assert abs(draws.mean()) < 3 / math.sqrt(draws.size)


def test_qam16_sample_fourth_moment():
    draws = make_qam(16).sample_symbols(100_000, 11)
    assert np.mean(np.abs(draws) ** 4) == pytest.approx(1.32, abs=0.02)


def test_zero_probabilities_allowed():
    base = make_qam(16)
    probs = np.zeros(16)
    probs[np.isclose(base.energies, 1.0)] = 1 / 8
    shaped = base.with_probs(probs)
    assert shaped.moment(4) == pytest.approx(1.0, abs=1e-12)


def test_constructor_rejects_bad_simplex():
    points = np.array([1.0 + 0j, -1.0 + 0j])
    with pytest.raises(ValueError):
        Constellation(points, np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        Constellation(points, np.array([1.2, -0.2]))


@pytest.mark.parametrize(("points", "probs", "message"), [
    ([1, complex(np.nan, 0)], [0.5, 0.5], "points must be finite, got (nan+0j) at index 1"),
    ([1, complex(0, np.inf)], [1.0, 0.0], "points must be finite, got infj at index 1"),
    ([1, -1], [np.nan, 0.5], "probabilities must be finite, got nan at index 0"),
], ids=["nan-point", "inf-point", "nan-prob"])
def test_constructor_rejects_non_finite(points, probs, message):
    # NaN fails every comparison, so the simplex and power checks pass it.
    with pytest.raises(ValueError) as info:
        Constellation(np.array(points, dtype=complex), np.array(probs))
    assert str(info.value) == message


@pytest.mark.parametrize(("points", "probs", "message"), [
    ([0, 1e80], [1.0, 1e-160], "fourth moment E[A^4] is inf, expected finite"),
    ([1, 1e200], [1.0, 0.0], "average power is nan, expected 1 (unit power)"),
], ids=["m4-overflows", "unused-point-overflows"])
def test_constructor_rejects_overflowing_moments(points, probs, message):
    # Each point is finite, but |x|^4 (or |x|^2) overflows: unit power can
    # hold while E[A^4] is inf, and 0 * inf makes the power NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            Constellation(np.array(points, dtype=complex), np.array(probs))
    assert str(info.value) == message


def test_constructor_rejects_bad_power():
    points = np.array([2.0 + 0j, -2.0 + 0j])
    with pytest.raises(ValueError):
        Constellation(points, np.array([0.5, 0.5]))


def test_constructor_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        Constellation(np.array([1.0 + 0j]), np.array([0.5, 0.5]))


def test_points_are_immutable():
    c = make_qam(16)
    with pytest.raises(ValueError):
        c.points[0] = 0
    with pytest.raises(ValueError):
        c.probs[0] = 0


def test_renormalized_power_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.integers(2, 30)
        p = rng.dirichlet(np.ones(q))
        raw = rng.uniform(0.05, 3.0, q)
        amps = raw / np.sqrt(p @ raw**2)
        c = Constellation(amps * np.exp(1j * rng.uniform(0, 2 * np.pi, q)), p)
        assert c.moment(2) == pytest.approx(1.0, abs=1e-9)


def test_constructor_means_are_zero():
    for c in (make_psk(2), make_psk(16), make_qam(16), make_qam(64)):
        assert abs(c.probs @ c.points) < 1e-12


def test_json_round_trip():
    c = make_qam(16)
    again = Constellation.from_json(json.dumps(c.to_json_dict()))
    assert np.array_equal(again.points, c.points)
    assert np.array_equal(again.probs, c.probs)


def test_json_schema_fields():
    doc = make_psk(2).to_json_dict()
    assert set(doc) == {"points", "probs"}
    assert all(set(p) == {"re", "im"} for p in doc["points"])


def test_from_json_ignores_extra_keys():
    doc = make_qam(16).to_json_dict()
    doc["achieved_m4"] = 1.32
    c = Constellation.from_json_dict(doc)
    assert c.order == 16


def test_from_json_malformed():
    with pytest.raises(ValueError):
        Constellation.from_json('{"points": [{"re": 1}], "probs": [1.0]}')
