import dataclasses
import math
import re
import time

import mpmath
import numpy as np
import pytest

import leeyang.zeros

from helpers import (
    assert_roots_match,
    coeffs,
    eval_ratio,
    figure_panels,
    plain_cosine_series,
    spins,
    uniform_couplings,
)
from leeyang.partition import (
    PartitionPolynomial,
    build_exact,
    build_long_range,
    build_ring,
)
from leeyang.spins import HalfInt
from leeyang.zeros import (
    Factor,
    RootConvergenceError,
    bracket_root,
    cosine_series,
    find_zeros,
)


def poly_from_coeffs(coeffs, beta=0.0):
    coeffs = np.asarray(coeffs, float)
    return PartitionPolynomial(beta, [(np.log(coeffs), 1)], {"kind": "test"})


def reference_angles(poly):
    """Sorted zero angles of the max-normalized double coefficients, to 60 digits."""
    with mpmath.workdps(60):
        c = [mpmath.mpf(float(x)) for x in coeffs(poly)]
        roots = mpmath.polyroots(c[::-1], maxsteps=500, extraprec=400)
        return np.sort([float(mpmath.arg(z)) for z in roots])


def two_free_spins():
    """1 + 2z + z^2 as two uncoupled spin-1/2, which carries its factorization."""
    return build_long_range(2, HalfInt(1), 1.0, 0.0)


class TestFindZeros:
    # beta = 0: each bath's polynomial is a product of (1 + z + ... + z^2s),
    # one per spin, so its zeros are roots of unity of known multiplicity
    @pytest.mark.parametrize("poly, clusters", [
        (two_free_spins(), [(np.pi, 2)]),
        (build_exact(spins(5, 2), uniform_couplings(2, 1.0), 0.0),
         [(k * np.pi / 3, 2) for k in (-2, -1, 1, 2, 3)]),
        (build_exact([HalfInt(2), HalfInt(5)], np.zeros((2, 2)), 0.0),
         [(-2 * np.pi / 3, 2), (-np.pi / 3, 1), (np.pi / 3, 1), (2 * np.pi / 3, 2), (np.pi, 1)]),
        (build_long_range(4, HalfInt(1), 1.0, 0.0), [(np.pi, 4)]),
        (build_ring(10, HalfInt(2), 1.0, 0.0), [(-2 * np.pi / 3, 10), (2 * np.pi / 3, 10)]),
    ], ids=["two-free-spins", "fig2-pair-5/2", "free-spins-1-and-5/2", "fig4-long-range",
            "fig6-ring"])
    def test_infinite_temperature_closed_form(self, poly, clusters):
        zs = find_zeros(poly)
        angles, counts = zip(*clusters)
        assert [m for _, m in zs.clusters] == list(counts) and sum(counts) == poly.two_ns
        np.testing.assert_allclose(zs.angles, np.repeat(angles, counts), rtol=0, atol=1e-15)

    def test_triangle_beta_one_quadratic_formula(self):
        poly = build_exact(spins(1, 2), uniform_couplings(2, 1.0), 1.0)
        zs = find_zeros(poly)
        a = math.exp(-0.5)
        expected = sorted([complex(-a, -math.sqrt(1 - a * a)), complex(-a, math.sqrt(1 - a * a))], key=lambda z: z.imag)
        got = sorted(zs.roots, key=lambda z: z.imag)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert abs(abs(zs.roots[0]) - 1) < 1e-12
        theta = math.acos(-a)  # 2.2224860...
        np.testing.assert_allclose(np.sort(np.abs(zs.angles)), [theta, theta], atol=1e-12)

    def test_against_companion_matrix_oracle(self):
        # numpy.roots of the coefficients, grouped by the reported clusters: each
        # group holds exactly its multiplicity, and its centroid lies within 1e-4
        # of a multiple zero and 1e-9 of a simple one.  The rows are the figure
        # panels (all twelve in under 2 s), the spin-5/2 pair at beta = 0.8, two
        # free spin-1/2, the spin-1/2 pair at beta = 1, and the spin-5/2 pair and
        # ring 2s=2 N=6 from infinite to low temperature.
        baths = [(name, poly) for name, poly, _ in figure_panels()] + [
            ("pair 5/2 beta=0.8", build_exact(spins(5, 2), uniform_couplings(2, 1.0), 0.8)),
            ("two free spins", two_free_spins()),
            ("pair 1/2 beta=1", build_exact(spins(1, 2), uniform_couplings(2, 1.0), 1.0)),
        ]
        for beta in (0.0, 1 / 32, 1 / 8, 0.5, 1.0, 4.0):
            baths.append((f"pair 5/2 beta={beta}",
                          build_exact(spins(5, 2), uniform_couplings(2, 1.0), beta)))
            baths.append((f"ring 6 x 1 beta={beta}", build_ring(6, HalfInt(2), 1.0, beta)))
        start = time.perf_counter()
        for name, poly in baths:
            zs = find_zeros(poly)
            oracle = np.roots(coeffs(poly)[::-1])
            centers = np.exp(1j * np.array([angle for angle, _ in zs.clusters]))
            group = np.argmin(np.abs(oracle[:, None] - centers[None, :]), axis=1)
            for j, (angle, mult) in enumerate(zs.clusters):
                members = oracle[group == j]
                assert len(members) == mult, (name, angle, len(members))
                error = abs(members.mean() - centers[j])
                assert error < (1e-4 if mult > 1 else 1e-9), (name, angle, error)
            # above beta = 0 no zero of these baths is multiple
            assert poly.beta == 0 or {m for _, m in zs.clusters} == {1}, name
            assert zs.circle_deviation < 1e-10, name
        assert time.perf_counter() - start < 2.0

    def test_residuals_small_for_simple_roots(self):
        # the oracle: complex Horner evaluation of Z(z)/Z(1) at every root
        for name, poly, _ in figure_panels():
            residual = np.max(np.abs(eval_ratio(poly, find_zeros(poly).roots)))
            assert residual < 1e-12, f"{name}: residual {residual:.3g}"

    def test_unexplained_double_root_refused_quickly(self):
        # raw [1, 2, 1] has a touching zero at -1 that no factor accounts for:
        # F never changes sign, so the count certificate fails
        start = time.perf_counter()
        with pytest.raises(RootConvergenceError, match="found 0 of 1"):
            find_zeros(poly_from_coeffs([1, 2, 1]))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("poly, found, reason", [
        # near beta = 0 the near-5-fold zero at pi leaves the series at rounding noise
        (build_long_range(5, HalfInt(1), 1.0, 1e-8), "found 39 of 2 sign changes",
         "more than the factor has zeros, so its series is at rounding noise"),
        (build_ring(10, HalfInt(1), 1.0, 1e-3), "found 0 of 5 sign changes",
         "the zeros are multiple, too close for the grid, or off the unit circle"),
    ], ids=["more", "fewer"])
    def test_refusal_says_which_way_the_count_failed(self, poly, found, reason):
        with pytest.raises(RootConvergenceError) as refusal:
            find_zeros(poly)
        message = str(refusal.value)
        assert message.startswith(found) and message.endswith(reason)

    @pytest.mark.parametrize("panel", [p for p in figure_panels() if p[1].beta > 0],
                             ids=lambda p: p[0])
    def test_against_60_digit_reference(self, panel):
        _, poly, _ = panel
        np.testing.assert_allclose(
            find_zeros(poly).angles, reference_angles(poly), rtol=0, atol=1e-13
        )

    def test_close_pair_split_by_refinement(self):
        # just above beta = 0 each double zero of two spin-1 splits by ~2e-3,
        # far below the initial grid spacing
        poly = build_exact(spins(2, 2), uniform_couplings(2, 1.0), 1e-6)
        zs = find_zeros(poly)
        assert [m for _, m in zs.clusters] == [1, 1, 1, 1]
        np.testing.assert_allclose(zs.angles, reference_angles(poly), rtol=0, atol=1e-12)


class TestBracketRoot:
    def test_root_within_an_ulp_of_an_end(self):
        # cos(fl(pi)/2) = 6e-17: once the secant lands on fl(pi), the root is
        # within an ulp of that end, and halving down to it takes ~40 steps
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            return math.cos(x / 2)

        a, b = math.pi - 1.5e-3, math.pi + 1.5e-3
        root = bracket_root(f, a, b, math.cos(a / 2), math.cos(b / 2), 1e-14)
        assert abs(root - math.pi) <= 1e-15
        assert calls <= 6

    def test_secant_step_outside_the_bracket_bisects(self):
        # with fa = -1e-300 the first secant step rounds to 2 ulps below a, so
        # the solver's first evaluation is the midpoint a/2 + b/2
        points = []

        def f(x):
            points.append(x)
            return (x - 0.1) / 0.6 - 1e-300

        root = bracket_root(f, 0.1, 0.7, -1e-300, 1.0, 1e-17)
        assert points[0] == 0.1 / 2 + 0.7 / 2
        assert 0.1 <= root <= 0.7

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    @pytest.mark.parametrize("f, root", [
        (lambda x: x - 2.0, 2.0), (lambda x: -(x - 2.0), 2.0),
        (lambda x: 1.0 - x, 1.0), (lambda x: -(1.0 - x), 1.0),
    ], ids=["-, +0 at b", "+, -0 at b", "+0 at a, -", "-0 at a, +"])
    def test_end_that_is_a_root(self, dtype, f, root):
        # the ends' sign bits differ and one end is an exact (signed) zero
        a, b = dtype(1.0), dtype(2.0)
        fa, fb = f(a), f(b)
        assert np.signbit(fa) != np.signbit(fb)
        assert abs(bracket_root(f, a, b, fa, fb, 1e-14) - root) <= 1e-14

    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    def test_stops_on_adjacent_floats(self, dtype):
        a = dtype(1.0)
        b = np.nextafter(a, dtype(2.0))
        root = bracket_root(lambda x: x - a, a, b, dtype(-1.0), dtype(1.0), 0.0)
        assert a <= root <= b

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [float, np.float64])
    def test_midpoint_of_ends_beyond_half_the_float_range(self, dtype):
        # a + b overflows, so the last bracket's midpoint must be a/2 + b/2
        f = lambda x: (x / 1e308) ** 3 - 3
        a, b = dtype(1e308), dtype(1.7e308)
        root = bracket_root(f, a, b, f(a), f(b), 1e300)
        assert abs(root - 3 ** (1 / 3) * 1e308) <= 1e300


class TestStructuralMultiplicity:
    def test_identical_blocks_multiply_block_zeros(self):
        block = np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.7], [0.3, 0.7, 0.0]])
        alone = find_zeros(build_exact(spins(2, 3), block, 0.8))
        poly = build_exact(spins(2, 9), np.kron(np.eye(3), block), 0.8)
        assert len(poly.factors) == 1 and poly.factors[0][1] == 3
        zs = find_zeros(poly)
        assert [m for _, m in zs.clusters] == [3] * len(alone.clusters)
        np.testing.assert_allclose(
            [a for a, _ in zs.clusters], [a for a, _ in alone.clusters], atol=1e-14
        )
        assert len(zs.roots) == poly.two_ns == 18

    def test_different_blocks_share_pi(self):
        a = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
        b = np.array([[0.0, 0.8, 0.0], [0.8, 0.0, 1.2], [0.0, 1.2, 0.0]])
        couplings = np.zeros((6, 6))
        couplings[:3, :3], couplings[3:, 3:] = a, b
        zs = find_zeros(build_exact(spins(1, 6), couplings, 0.5))
        assert len(zs.roots) == 6
        assert zs.clusters[-1] == (np.pi, 2)
        assert [m for _, m in zs.clusters[:-1]] == [1, 1, 1, 1]


class TestZeroSet:
    def test_is_its_clusters(self):
        # the one stored field; angles, roots and circle deviation follow from it
        zs = find_zeros(build_exact(spins(2, 9), np.kron(np.eye(3), uniform_couplings(3, 1.0)), 0.8))
        assert [f.name for f in dataclasses.fields(zs)] == ["clusters"]
        angles = [a for a, m in zs.clusters for _ in range(m)]
        np.testing.assert_array_equal(zs.angles, angles)
        np.testing.assert_allclose(
            zs.roots, [complex(math.cos(a), math.sin(a)) for a in angles], rtol=0, atol=1e-15
        )
        assert zs.circle_deviation == max(abs(math.hypot(z.real, z.imag) - 1) for z in zs.roots)


class TestPredictedZeroTimes:
    def test_angle_pi(self):
        zs = find_zeros(two_free_spins())
        np.testing.assert_allclose(
            np.sort(zs.times(1.0, 1)), [np.pi, np.pi], atol=1e-8
        )

    def test_conjugate_pair_mapping(self):
        poly = build_exact(spins(1, 2), uniform_couplings(2, 1.0), 1.0)
        zs = find_zeros(poly)
        theta = math.acos(-math.exp(-0.5))
        times = np.sort(zs.times(1.0, 1))
        np.testing.assert_allclose(times, [theta, 2 * np.pi - theta], atol=1e-12)
        # conjugate roots map to (t, period - t)
        assert times[0] + times[1] == pytest.approx(2 * np.pi, rel=1e-12)

    def test_delta_scaling(self):
        poly = build_exact(spins(1, 2), uniform_couplings(2, 1.0), 1.0)
        zs = find_zeros(poly)
        t1 = np.sort(zs.times(1.0, 1))
        t2 = np.sort(zs.times(1.0, 2))
        np.testing.assert_allclose(t2, t1 / 2, rtol=1e-14)

    def test_times_in_fundamental_period(self):
        poly = build_ring(8, HalfInt(1), 1.0, 0.6)
        zs = find_zeros(poly)
        lam, delta = 2.0, 2
        times = np.sort(zs.times(lam, delta))
        assert np.all(times >= 0)
        assert np.all(times < 2 * np.pi / (lam * delta))

    def test_round_trip_to_roots(self):
        poly = build_ring(5, HalfInt(2), 1.0, 0.9)
        zs = find_zeros(poly)
        lam, delta = 1.5, 1
        times = np.sort(zs.times(lam, delta))
        assert_roots_match(np.exp(-1j * lam * delta * times), zs.roots, atol=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam, delta, message", [
        (0.0, 1, "lam must be finite and positive, got 0.0"),
        (math.nan, 1, "lam must be finite and positive, got nan"),
        (math.inf, 1, "lam must be finite and positive, got inf"),
        (1.0, 0, "delta must be a positive integer, got 0"),
        # the period overflows
        (5e-324, 1, "the period 2pi/(lam*delta) must be finite and positive, "
                    "got lam = 5e-324, delta = 1"),
        (1e-310, 1, "the period 2pi/(lam*delta) must be finite and positive, "
                    "got lam = 1e-310, delta = 1"),
    ])
    def test_invalid_arguments_refused(self, lam, delta, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            find_zeros(two_free_spins()).times(lam, delta)


class TestCosineSeries:
    @pytest.fixture
    def terms(self):
        return Factor(build_ring(7, HalfInt(3), 1.0, 0.6).log_coeffs, 1).terms

    @pytest.mark.parametrize("builder, n, two_s, beta", [
        *((build_long_range, d, 1, 0.5) for d in (1, 2, 3, 4, 10, 20)),
        (build_ring, 7, 3, 0.6),
    ])
    def test_in_place_kernel_matches_the_plain_sum(self, monkeypatch, builder, n, two_s, beta):
        # same values and sign bits as the plain sum: on the sampling pass's
        # float64 grid, and on the finder's longdouble grid, whose every point the
        # finder's bracket solve also evaluates as the grid does
        factor = Factor(builder(n, HalfInt(two_s), 1.0, beta).log_coeffs, 1)
        d = len(factor.log_coeffs) - 1
        finder_theta = np.linspace(0.0, np.pi, 8 * (d + 1) + 1).astype(np.longdouble)
        samples = np.linspace(0.0, 2 * np.pi, 4097)
        grids = [
            (*factor.unit_terms, samples),
            (*factor.terms, finder_theta),
            # zero weights: every term is -0.0 where cos(k theta) < 0, and the sum +0.0
            (np.array([0.5, 1.5]), np.zeros(2), samples),
        ]
        for k, w, theta in grids:
            got, ref = cosine_series(k, w, theta), plain_cosine_series(k, w, theta)
            assert got.dtype == ref.dtype == theta.dtype
            # by value: a longdouble's padding bytes are not part of it
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))
        solved = []
        monkeypatch.setattr(
            leeyang.zeros, "bracket_root", lambda F, a, *rest: solved.append(F) or a
        )
        leeyang.zeros._factor_zeros(factor)
        assert len(solved) == d // 2
        grid = cosine_series(*factor.terms, finder_theta)
        for F in solved:
            np.testing.assert_array_equal(np.array([F(t) for t in finder_theta]), grid)

    def test_scalar_matches_array_element_in_double(self, terms):
        k, w = terms
        k, w = k.astype(float), (w / w.sum()).astype(float)  # F(0) = 1
        theta = np.linspace(-2.0, 9.0, 101)
        grid = cosine_series(k, w, theta)
        for i in range(len(theta)):
            assert cosine_series(k, w, float(theta[i])).view(np.uint64) == grid[i].view(np.uint64)

