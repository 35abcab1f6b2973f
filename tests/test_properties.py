"""Property-based checks over randomized ferromagnetic baths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import assert_roots_match, coeffs, eval_ratio, spins, uniform_couplings
from leeyang.partition import build_exact, build_long_range, build_ring
from leeyang.spins import HalfInt, _ladder
from leeyang.zeros import find_zeros

BETA = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


def random_poly(kind, n, two_s, beta):
    s = HalfInt(two_s)
    if kind == "exact":
        return build_exact(spins(two_s, n), uniform_couplings(n, 1.0), beta)
    if kind == "long_range":
        return build_long_range(n, s, 1.0, beta)
    return build_ring(max(n, 3), s, 1.0, beta)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["exact", "long_range", "ring"]),
    n=st.integers(min_value=2, max_value=6),
    two_s=st.integers(min_value=1, max_value=3),
    beta=BETA,
)
def test_coefficient_symmetry(kind, n, two_s, beta):
    poly = random_poly(kind, n, two_s, beta)
    scale = max(1.0, np.abs(poly.log_coeffs).max())
    np.testing.assert_allclose(
        poly.log_coeffs, poly.log_coeffs[::-1], rtol=0, atol=1e-12 * scale
    )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["exact", "long_range", "ring"]),
    n=st.integers(min_value=3, max_value=6),
    two_s=st.integers(min_value=1, max_value=3),
    beta=st.floats(min_value=1e-3, max_value=4.0, allow_nan=False),
)
def test_root_set_structure(kind, n, two_s, beta):
    poly = random_poly(kind, n, two_s, beta)
    zs = find_zeros(poly)
    assert len(zs.roots) == poly.two_ns
    # closed under conjugation
    assert_roots_match(zs.roots, np.conj(zs.roots), atol=1e-9)
    # product of roots
    c = coeffs(poly)
    expected = (-1) ** poly.two_ns * c[0] / c[-1]
    assert np.prod(zs.roots) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["exact", "long_range", "ring"]),
    n=st.integers(min_value=2, max_value=5),
    two_s=st.integers(min_value=1, max_value=3),
    beta=BETA,
    theta=st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
)
def test_eval_ratio_bounded_on_unit_circle(kind, n, two_s, beta, theta):
    poly = random_poly(kind, n, two_s, beta)
    assert abs(eval_ratio(poly, np.exp(1j * theta))) <= 1 + 1e-14
    assert eval_ratio(poly, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_fixed_and_seeded_random_baths():
    # Each bath: coefficient symmetry, one zero per degree, closure under
    # conjugation (so the angles are symmetric under negation), the product of
    # the zeros, and |Z/Z(1)| <= 1 at an angle.  First four fixed rings, then
    # 200 baths from a fixed seed with random J in [0, 1.5) (random symmetric
    # couplings for exact): hypothesis would also draw baths that find_zeros
    # rightly refuses, such as long_range 2s=2 N=8 at J = 0.5, beta = 1e-3.
    def check(poly, theta):
        scale = max(1.0, np.abs(poly.log_coeffs).max())
        np.testing.assert_allclose(
            poly.log_coeffs, poly.log_coeffs[::-1], rtol=0, atol=1e-12 * scale
        )
        zs = find_zeros(poly)
        assert len(zs.roots) == poly.two_ns
        assert_roots_match(zs.roots, np.conj(zs.roots), atol=1e-9)
        non_real = zs.angles[np.abs(np.abs(zs.angles) - np.pi) > 1e-9]
        np.testing.assert_allclose(np.sort(non_real), np.sort(-non_real), atol=1e-9)
        c = coeffs(poly)
        assert np.prod(zs.roots) == pytest.approx(
            (-1) ** poly.two_ns * c[0] / c[-1], rel=1e-9
        )
        assert abs(eval_ratio(poly, np.exp(1j * theta))) <= 1 + 1e-14

    for n, two_s, beta, degree in [(5, 2, 0.7, 10), (7, 1, 1.3, 7), (6, 2, 0.4, 12),
                                   (9, 1, 0.8, 9)]:
        poly = build_ring(n, HalfInt(two_s), 1.0, beta)
        assert poly.two_ns == degree
        check(poly, 1.0)

    rng = np.random.default_rng(20240817)
    for _ in range(200):
        kind = rng.choice(["exact", "long_range", "ring"])
        two_s = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.0, 4.0))
        if kind == "exact":
            n = int(rng.integers(2, 6))
            J = np.triu(rng.uniform(0.0, 1.5, (n, n)), 1)
            poly = build_exact(spins(two_s, n), J + J.T, beta)
        elif kind == "long_range":
            n = int(rng.integers(2, 9))
            poly = build_long_range(n, HalfInt(two_s), float(rng.uniform(0, 1.5)), beta)
        else:
            n = int(rng.integers(3, 9))
            poly = build_ring(n, HalfInt(two_s), float(rng.uniform(0, 1.5)), beta)
        check(poly, rng.uniform(-np.pi, np.pi))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ladder_coefficients_positive_and_symmetric(data):
    d0 = data.draw(st.integers(min_value=1, max_value=12))
    delta = data.draw(st.integers(min_value=1, max_value=d0))
    k = data.draw(st.integers(min_value=0, max_value=d0 - delta))
    coeff = math.ldexp(*_ladder(d0, k, delta))
    assert coeff > 0
    # (S+)^delta matrix elements are mirror symmetric: <l+d| |l> = <-l| |-l-d>,
    # and -l-d sits at k' = 2s0 - k - delta
    mirror = math.ldexp(*_ladder(d0, d0 - k - delta, delta))
    assert coeff == pytest.approx(mirror, rel=1e-13)
