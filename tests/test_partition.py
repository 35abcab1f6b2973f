import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (
    brute_force_log_sectors,
    coupling_blocks_oracle,
    eval_ratio,
    log_coeffs_60_digits,
    log_polymat_mul_reference,
    multiplicities,
    ring_couplings,
    spins,
    uniform_couplings,
)
import leeyang.partition
from leeyang.partition import (
    _ENUMERATION_CHUNK,
    _LINEAR_RANGE,
    ENUMERATION_CAP,
    PartitionPolynomial,
    _coupling_blocks,
    _log_polymat_mul,
    build_exact,
    build_long_range,
    build_ring,
    long_range_integral_oracle,
)
from leeyang.spins import HalfInt
from leeyang.zeros import find_zeros


def rel_coeff_diff(a, b):
    return np.max(np.abs(np.exp(a.log_coeffs - b.log_coeffs) - 1.0))


class TestBuildExact:
    def test_two_spin_half_infinite_temperature(self):
        poly = build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0)
        np.testing.assert_allclose(np.exp(poly.log_coeffs), [1, 2, 1], rtol=1e-14)

    def test_two_spin_half_beta_one(self):
        poly = build_exact(spins(1, 2), uniform_couplings(2, 1.0), 1.0)
        c = np.exp(poly.log_coeffs - poly.log_coeffs[0])
        np.testing.assert_allclose(c, [1, 2 * math.exp(-0.5), 1], rtol=1e-14)

    def test_two_spin_five_half_multiplicities(self):
        poly = build_exact(spins(5, 2), uniform_couplings(2, 1.0), 0.0)
        np.testing.assert_allclose(
            np.exp(poly.log_coeffs), [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1], rtol=1e-12
        )

    def test_asymmetric_couplings_rejected(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            build_exact(spins(1, 2), bad, 1.0)

    def test_nonzero_diagonal_rejected(self):
        bad = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            build_exact(spins(1, 2), bad, 1.0)

    def test_antiferromagnetic_rejected(self):
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="ferromagnetic"):
            build_exact(spins(1, 2), bad, 1.0)

    def test_split_bath_is_product_of_blocks(self):
        a = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
        b = np.array([[0.0, 0.8], [0.8, 0.0]])
        couplings = np.zeros((5, 5))
        couplings[:3, :3], couplings[3:, 3:] = a, b
        poly = build_exact(spins(2, 5), couplings, 0.7)
        pa = np.exp(build_exact(spins(2, 3), a, 0.7).log_coeffs)
        pb = np.exp(build_exact(spins(2, 2), b, 0.7).log_coeffs)
        np.testing.assert_allclose(np.exp(poly.log_coeffs), np.convolve(pa, pb), rtol=1e-13)
        assert sorted(count for _, count in poly.factors) == [1, 1]

    def test_connected_bath_is_one_factor(self):
        poly = build_exact(spins(1, 3), uniform_couplings(3, 1.0), 0.5)
        (lc, count), = poly.factors
        assert count == 1
        np.testing.assert_array_equal(lc, poly.log_coeffs)

    def test_bounded_memory_matches_long_range(self):
        # 2^18 configurations: a table of all of them at once peaks near 80 MB
        n, beta = 18, 0.5
        tracemalloc.start()
        try:
            poly = build_exact(spins(1, n), uniform_couplings(n, 1.0 / n), beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        lc = build_long_range(n, HalfInt(1), 1.0, beta).log_coeffs
        assert np.all(np.abs(poly.log_coeffs - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    def test_partial_last_chunk_matches_long_range(self):
        # 3^11 = 177147 configurations, not a multiple of the chunk size
        n, beta = 11, 0.7
        poly = build_exact(spins(2, n), uniform_couplings(n, 1.0 / n), beta)
        lc = build_long_range(n, HalfInt(2), 1.0, beta).log_coeffs
        assert np.all(np.abs(poly.log_coeffs - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    def test_twenty_spins_bounded_memory(self):
        # 2^20 configurations, enumerated as two 2^10-row half-tables
        n, beta = 20, 0.5
        tracemalloc.start()
        try:
            poly = build_exact(spins(1, n), uniform_couplings(n, 1.0 / n), beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        lc = build_long_range(n, HalfInt(1), 1.0, beta).log_coeffs
        assert np.all(np.abs(poly.log_coeffs - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    # Trailing spins join the L part while |L|^2 < count; the rest are H.
    @pytest.mark.parametrize("beta", [0.5, 50.0, 400.0])
    @pytest.mark.parametrize(
        "two_spins",
        [
            [1, 2, 3, 5, 1, 2],  # H = 1/2, 1, 3/2 and L = 5/2, 1/2, 1
            [2, 3, 2, 1, 2],  # half-integer total on each side: H = 1, 3/2
            [3, 1, 2],  # H is the single spin 3/2
            [5, 1],  # H is empty
            # L is one spin, so each of its sectors is one column
            [3, 7],
            [1, 40],
        ],
    )
    def test_matches_brute_force_oracle(self, two_spins, beta):
        n = len(two_spins)
        upper = np.triu(np.random.default_rng(sum(two_spins)).uniform(0.0, 1.5, (n, n)), 1)
        couplings = upper + upper.T
        block = [HalfInt(d) for d in two_spins]
        lc = brute_force_log_sectors(block, couplings, beta)
        got = build_exact(block, couplings, beta).log_coeffs
        assert np.all(np.abs(got - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "coupling, beta",
        [(math.inf, 0.0), (1e308, 10.0), (1.0, math.nan), (1.0, math.inf), (1.0, 1e308)],
        ids=["inf-at-beta-0", "overflow", "nan-beta", "inf-beta", "log-weight-beyond-bound"],
    )
    def test_non_finite_beta_j_rejected(self, coupling, beta):
        with pytest.raises(ValueError, match="finite"):
            build_exact(spins(1, 2), [[0.0, coupling], [coupling, 0.0]], beta)

    def test_invalid_spin_rejected(self):
        with pytest.raises(ValueError, match="magnitude"):
            build_exact([HalfInt(1), HalfInt(0)], uniform_couplings(2, 1.0), 1.0)

    def test_enumeration_cap(self):
        n = 21  # 2^21 > cap
        with pytest.raises(ValueError, match=str(ENUMERATION_CAP)):
            build_exact(spins(1, n), uniform_couplings(n, 1.0), 1.0)

    def test_cap_refusal_is_brief(self):
        # 2^1024 configurations: beyond the float range, 309 digits in full
        n = 1024
        chain = np.diag(np.ones(n - 1), 1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceed the enumeration cap {ENUMERATION_CAP}") as err:
            build_exact(spins(1, n), chain + chain.T, 1.0)
        assert time.perf_counter() - start < 0.25
        message = str(err.value)
        assert "1024 spins" in message and "1.80e+308 configurations" in message
        assert len(message) < 100

    def test_identical_blocks_enumerated_once(self, monkeypatch):
        calls = 0
        enumerate_block = leeyang.partition._enumerate

        def counting(block, bJ):
            nonlocal calls
            calls += 1
            return enumerate_block(block, bJ)

        monkeypatch.setattr(leeyang.partition, "_enumerate", counting)
        upper = np.triu(np.random.default_rng(3).uniform(0.2, 1.5, (3, 3)), 1)
        block = upper + upper.T
        poly = build_exact(spins(1, 12), np.kron(np.eye(4), block), 0.3)
        assert calls == 1
        (lc, count), = poly.factors
        assert count == 4
        np.testing.assert_array_equal(lc, enumerate_block(spins(1, 3), 0.3 * block))
        oracle = brute_force_log_sectors(spins(1, 3), block, 0.3)
        expected = np.exp(oracle)
        for _ in range(3):
            expected = np.convolve(expected, np.exp(oracle))
        np.testing.assert_allclose(np.exp(poly.log_coeffs), expected, rtol=1e-13)

    # four chunks of 2^16 configurations each at N = 18; at beta = 2000 the
    # exponents of one chunk span about 4000
    @pytest.mark.parametrize("beta", [50.0, 400.0, 2000.0])
    @pytest.mark.parametrize("n", [16, 18])
    def test_low_temperature_over_chunks(self, n, beta):
        got = build_exact(spins(1, n), uniform_couplings(n, 1.0 / n), beta).log_coeffs
        for lc in (
            build_long_range(n, HalfInt(1), 1.0, beta).log_coeffs,
            log_coeffs_60_digits("long_range", n, 1, 1.0, beta),
        ):
            assert np.all(np.abs(got - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    def test_cap_counts_one_block(self):
        # four blocks of 64 configurations: 2^24 in all, but each block is
        # enumerated on its own
        block = uniform_couplings(6, 1.0)
        couplings = np.kron(np.eye(4), block)
        poly = build_exact(spins(1, 24), couplings, 0.5)
        (lc, count), = poly.factors
        assert count == 4
        oracle = brute_force_log_sectors(spins(1, 6), block, 0.5)
        assert np.all(np.abs(lc - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))
        expected = np.exp(lc)
        for _ in range(3):
            expected = np.convolve(expected, np.exp(lc))
        np.testing.assert_allclose(np.exp(poly.log_coeffs), expected, rtol=1e-13)

    def test_free_spins_at_infinite_temperature(self):
        # 2^30 configurations, each spin its own block
        poly = build_exact(spins(1, 30), np.zeros((30, 30)), 0.0)
        lc = build_long_range(30, HalfInt(1), 1.0, 0.0).log_coeffs
        assert np.all(np.abs(poly.log_coeffs - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 17, 21, 27, 34, 38, 40, 300])
    def test_coupling_blocks_match_breadth_first_search(self, n):
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.15), 1)
        linked = upper | upper.T
        assert _coupling_blocks(linked) == coupling_blocks_oracle(linked)
        # one chain through every spin, in shuffled order
        path = rng.permutation(n)
        chain = np.zeros((n, n), dtype=bool)
        chain[path[:-1], path[1:]] = True
        chain |= chain.T
        assert _coupling_blocks(chain) == coupling_blocks_oracle(chain) == [tuple(range(n))]

    def test_large_connected_bath_refused_quickly(self):
        n = 512
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceed the enumeration cap {ENUMERATION_CAP}"):
            build_exact(spins(1, n), uniform_couplings(n, 1.0), 1.0)
        assert time.perf_counter() - start < 1.0

    def test_many_distinct_blocks_build_quickly(self):
        # 512 pairs with distinct couplings: each block polynomial is compared
        # against every earlier group of its length, 131K comparisons in all
        n = 512
        rng = np.random.default_rng(0)
        pair_J = rng.uniform(0.5, 1.5, n)
        couplings = np.kron(np.diag(pair_J), [[0.0, 1.0], [1.0, 0.0]])
        start = time.perf_counter()
        poly = build_exact(spins(1, 2 * n), couplings, 1.0)
        assert time.perf_counter() - start < 1.0
        assert [count for _, count in poly.factors] == [1] * n
        for p in (0, 1, n - 1):
            (lc, _), = build_exact(spins(1, 2), uniform_couplings(2, pair_J[p]), 1.0).factors
            np.testing.assert_array_equal(poly.factors[p][0], lc)

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2)])
    def test_block_joins_first_close_group(self, order):
        # pairs A and B are 1.5e-12 apart in every log coefficient, beyond the
        # 1e-12 grouping tolerance, and C lies 0.75e-12 from both: C joins the
        # group that came first
        pair_J = np.array([1.0, 1.0 + 6e-12, 1.0 + 3e-12])[list(order)]
        couplings = np.kron(np.diag(pair_J), [[0.0, 1.0], [1.0, 0.0]])
        poly = build_exact(spins(1, 6), couplings, 1.0)
        (first, first_count), (second, second_count) = poly.factors
        assert (first_count, second_count) == (2, 1)
        for p, lc in enumerate((first, second)):
            (expected, _), = build_exact(spins(1, 2), uniform_couplings(2, pair_J[p]), 1.0).factors
            np.testing.assert_array_equal(lc, expected)


class TestBuildLongRange:
    def test_binomial_at_infinite_temperature(self):
        poly = build_long_range(4, HalfInt(1), 1.0, 0.0)
        np.testing.assert_allclose(np.exp(poly.log_coeffs), [1, 4, 6, 4, 1], rtol=1e-12)

    def test_matches_exact_two_spins(self):
        for beta in (0.3, 1.0, 2.5):
            lr = build_long_range(2, HalfInt(1), 1.0, beta)
            ex = build_exact(spins(1, 2), uniform_couplings(2, 0.5), beta)
            assert rel_coeff_diff(lr, ex) < 1e-12

    def test_matches_integral_oracle(self):
        poly = build_long_range(4, HalfInt(1), 1.0, 0.8)
        for n in range(poly.two_ns + 1):
            oracle = long_range_integral_oracle(4, HalfInt(1), 1.0, 0.8, n)
            assert math.exp(poly.log_coeffs[n]) == pytest.approx(oracle, rel=1e-8)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build_long_range(0, HalfInt(1), 1.0, 1.0)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            build_long_range(3, HalfInt(1), -1.0, 1.0)


class TestIntegralOracle:
    def test_single_spin_sector(self):
        assert long_range_integral_oracle(1, HalfInt(1), 1.0, 0.0, 0) == pytest.approx(1.0)

    def test_binomial_sector(self):
        assert long_range_integral_oracle(4, HalfInt(1), 1.0, 0.0, 2) == pytest.approx(6.0)

    def test_spin_one_cross_validation(self):
        built = math.exp(build_long_range(3, HalfInt(2), 1.0, 1.0).log_coeffs[3])
        oracle = long_range_integral_oracle(3, HalfInt(2), 1.0, 1.0, 3)
        assert built == pytest.approx(oracle, rel=1e-8)

    def test_out_of_range_sector(self):
        with pytest.raises(ValueError):
            long_range_integral_oracle(2, HalfInt(1), 1.0, 1.0, 3)

    @pytest.mark.parametrize("J, beta, name", [
        (1.0, math.nan, "beta"), (1.0, math.inf, "beta"), (1.0, -1.0, "beta"),
        (math.nan, 1.0, "J"), (math.inf, 1.0, "J"),
    ])
    def test_non_finite_arguments_rejected(self, J, beta, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            long_range_integral_oracle(2, HalfInt(1), J, beta, 1)


class TestBuildRing:
    def test_three_site_multiplicities(self):
        poly = build_ring(3, HalfInt(1), 1.0, 0.0)
        np.testing.assert_allclose(np.exp(poly.log_coeffs), [1, 3, 3, 1], rtol=1e-12)

    def test_three_site_beta_one(self):
        poly = build_ring(3, HalfInt(1), 1.0, 1.0)
        c = np.exp(poly.log_coeffs - poly.log_coeffs[0])
        np.testing.assert_allclose(c, [1, 3 / math.e, 3 / math.e, 1], rtol=1e-13)

    @pytest.mark.parametrize("two_s", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_exact_enumeration(self, n, two_s):
        ring = build_ring(n, HalfInt(two_s), 1.0, 0.9)
        ex = build_exact(spins(two_s, n), ring_couplings(n), 0.9)
        assert rel_coeff_diff(ring, ex) < 1e-12

    def test_ten_spin_one_degree(self):
        assert build_ring(10, HalfInt(2), 1.0, 1.0).two_ns == 20

    @pytest.mark.parametrize("beta_j", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [9, 10, 14])
    def test_spin_half_zeros_match_closed_form(self, n, beta_j):
        # Lee & Yang 1952: sin^2(theta_k / 2) = sin^2 phi_k + e^{-beta J} cos^2 phi_k,
        # phi_k = (2k + 1) pi / (2N); k and N - 1 - k give the same angle.
        # Written as an arctangent, which stays well conditioned near pi.
        phi = (2 * np.arange((n + 1) // 2) + 1) * np.pi / (2 * n)
        a = math.exp(-beta_j)
        half = np.arctan2(
            np.sqrt(np.sin(phi) ** 2 + a * np.cos(phi) ** 2),
            np.abs(np.cos(phi)) * math.sqrt(-math.expm1(-beta_j)),
        )
        expected = np.sort(np.concatenate([2 * half, -2 * half[: n // 2]]))
        got = find_zeros(build_ring(n, HalfInt(1), 1.0, beta_j)).angles
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)

    def test_open_chain_rejected(self):
        with pytest.raises(ValueError):
            build_ring(2, HalfInt(1), 1.0, 1.0)


class TestInvariants:
    def all_builders(self, beta):
        yield build_exact(spins(5, 2), uniform_couplings(2, 1.0), beta)
        yield build_long_range(4, HalfInt(1), 1.0, beta)
        yield build_ring(10, HalfInt(2), 1.0, beta)

    @pytest.mark.parametrize("beta", [0.0, 1 / 32, 1 / 8, 0.5, 1.0, 4.0])
    def test_coefficient_symmetry(self, beta):
        for poly in self.all_builders(beta):
            np.testing.assert_allclose(
                poly.log_coeffs, poly.log_coeffs[::-1], rtol=0, atol=1e-12
            )

    def test_infinite_temperature_is_integer_multiplicities(self):
        cases = [
            (build_exact(spins(3, 3), uniform_couplings(3, 1.0), 0.0), spins(3, 3)),
            (build_long_range(5, HalfInt(2), 1.0, 0.0), spins(2, 5)),
            (build_ring(6, HalfInt(1), 1.0, 0.0), spins(1, 6)),
        ]
        for poly, ss in cases:
            counts = multiplicities(ss)
            np.testing.assert_allclose(np.exp(poly.log_coeffs), counts, rtol=1e-11)

    def test_low_temperature_stability(self):
        # beta*J = 50 at N = 10, s = 1 must neither overflow nor underflow
        poly = build_ring(10, HalfInt(2), 1.0, 50.0)
        assert np.all(np.isfinite(poly.log_coeffs))
        np.testing.assert_allclose(
            poly.log_coeffs, poly.log_coeffs[::-1], rtol=0, atol=1e-9 * abs(poly.log_coeffs).max()
        )
        lr = build_long_range(10, HalfInt(2), 1.0, 50.0)
        assert np.all(np.isfinite(lr.log_coeffs))

    @pytest.mark.parametrize("n, beta", [(10, 400.0), (500, 0.5)])
    def test_ring_total_matches_transfer_eigenvalues(self, n, beta):
        # Z(beta, 0) = Tr T^N for T = exp(beta J m m'); beta*J = 400 spans
        # e^4000 across the matrix entries, and N = 500 gives degree 1000.
        lc = build_ring(n, HalfInt(2), 1.0, beta).log_coeffs
        assert np.all(np.isfinite(lc))
        np.testing.assert_allclose(lc, lc[::-1], rtol=0, atol=1e-12 * abs(lc).max())
        ms = np.array([-1.0, 0.0, 1.0])
        eig = np.linalg.eigvalsh(np.exp(beta * np.outer(ms, ms)))
        top = eig[np.argmax(np.abs(eig))]
        log_z = n * math.log(abs(top)) + math.log(np.sum((eig / top) ** n))
        assert np.logaddexp.reduce(lc) == pytest.approx(log_z, rel=1e-12)

    def test_long_range_beyond_double_range(self):
        # C(1100, 550) > 1.8e308: the coefficients exist only as logs.
        # s = 1/2: p_n = C(N, n) exp(a (N/2 - n)^2 - N a / 4), a = beta J / 2N
        n, beta = 1100, 0.5
        a = beta / (2 * n)
        k = np.arange(n + 1)
        ref = np.array([
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in k
        ]) + a * (n / 2 - k) ** 2 - n * a / 4
        lc = build_long_range(n, HalfInt(1), 1.0, beta).log_coeffs
        assert np.all(np.abs(lc - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    # Products by path (linear while the operands span <= _LINEAR_RANGE):
    # ring beta = 1/8 and 4 all linear; ring N=30 beta = 100 one linear then
    # six log-sum-exp; beta = 200 all seven log-sum-exp; long_range N=10
    # beta = 2000 two linear then two log-sum-exp.
    @pytest.mark.parametrize(
        "build, N, beta",
        [
            (build_ring, 10, 1 / 8),
            (build_ring, 10, 4.0),
            (build_ring, 30, 100.0),
            (build_ring, 30, 200.0),
            (build_long_range, 10, 2000.0),
        ],
        ids=["ring-10-1/8", "ring-10-4", "ring-30-100", "ring-30-200", "long_range-10-2000"],
    )
    def test_matches_60_digit_coefficients(self, build, N, beta):
        poly = build(N, HalfInt(2), 1.0, beta)
        ref = log_coeffs_60_digits(poly.model_tag["kind"], N, 2, 1.0, beta)
        assert np.all(np.abs(poly.log_coeffs - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def random_log_polymat(rng, degree, D, scale=1e3):
    """Log entries up to ``scale`` in magnitude, about 30% of them -inf."""
    A = rng.uniform(-scale, scale, (degree + 1, D, D))
    A[rng.random(A.shape) < 0.3] = -np.inf
    return A


def assert_matches_reference(A, B, tol):
    """_log_polymat_mul equals the per-degree reference to ``tol`` times max(1, |ref|)."""
    got, ref = _log_polymat_mul(A, B), log_polymat_mul_reference(A, B)
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.isfinite(got) == finite)
    err = np.abs(got[finite] - ref[finite])
    assert np.all(err <= tol * np.maximum(1.0, np.abs(ref[finite])))


def operand_bound(A, B):
    """16 eps max(1, max|A| + max|B|): the rounding of the reference's own A + B."""
    size = sum(np.abs(X[np.isfinite(X)]).max(initial=0.0) for X in (A, B))
    return 16 * np.finfo(float).eps * max(1.0, size)


class TestLogPolymatMul:
    # (da, db): shorter first, longer first, equal, degree 0, and products
    # long enough to span several blocks of output degrees
    DEGREES = [(3, 11), (11, 3), (7, 7), (0, 5), (5, 0), (0, 0), (40, 300), (300, 40), (200, 200)]

    # a chunk of 64 terms makes blocks of a few degrees even at low degree
    @pytest.mark.parametrize("chunk", [None, 64], ids=["default-chunk", "chunk-64"])
    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("da, db", DEGREES)
    def test_matches_per_degree_reference(self, monkeypatch, da, db, D, chunk):
        if chunk is not None:
            monkeypatch.setattr(leeyang.partition, "_ENUMERATION_CHUNK", chunk)
        # entries of +-1e3 span more than _LINEAR_RANGE: the log-sum-exp path
        rng = np.random.default_rng(1000 * da + 10 * db + D)
        A, B = random_log_polymat(rng, da, D), random_log_polymat(rng, db, D)
        assert_matches_reference(A, B, 1e-15)

    # entries of +-170 span at most 680 over both operands: the linear path
    @pytest.mark.parametrize("scale", [1.0, 170.0])
    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("da, db", DEGREES)
    def test_linear_path_matches_per_degree_reference(self, da, db, D, scale):
        rng = np.random.default_rng(1000 * da + 10 * db + D + int(scale))
        A, B = random_log_polymat(rng, da, D, scale), random_log_polymat(rng, db, D, scale)
        assert_matches_reference(A, B, operand_bound(A, B))

    @pytest.mark.parametrize("empty_first", [True, False], ids=["empty-A", "empty-B"])
    def test_operand_with_no_term(self, empty_first):
        A = np.full((4, 2, 2), -np.inf)
        B = random_log_polymat(np.random.default_rng(11), 6, 2, 1.0)
        if not empty_first:
            A, B = B, A
        got = _log_polymat_mul(A, B)
        assert got.shape == (10, 2, 2) and np.all(got == -np.inf)
        assert np.all(log_polymat_mul_reference(A, B) == -np.inf)

    # the square of 1 + e^(-r/2) z has the single term e^-r at z^2: a normal
    # double just inside the linear range, subnormal at 745 and wrong there
    # in any linear product
    @pytest.mark.parametrize("excess", [-0.5, 0.5, 45.0])
    def test_range_at_the_linear_limit(self, excess):
        r = _LINEAR_RANGE + excess
        A = np.array([0.0, -r / 2]).reshape(2, 1, 1)
        assert_matches_reference(A, A, operand_bound(A, A))

    @pytest.mark.parametrize(
        "build, two_s", [(build_ring, 2), (build_long_range, 2)], ids=["ring", "long_range"]
    )
    def test_degree_2000_bounded_memory(self, build, two_s):
        # a block holds at most _ENUMERATION_CHUNK terms; log-sum-exp keeps
        # three arrays of that size, and the product its own output
        tracemalloc.start()
        try:
            build(1000, HalfInt(two_s), 1.0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * _ENUMERATION_CHUNK

    def test_long_times_short_bounded_memory(self):
        # a block's p range grows with its row count when da > db
        rng = np.random.default_rng(5)
        A, B = random_log_polymat(rng, 2000, 1), random_log_polymat(rng, 1, 1)
        tracemalloc.start()
        try:
            _log_polymat_mul(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * _ENUMERATION_CHUNK


class TestEvalRatio:
    @pytest.fixture
    def simple(self):
        return PartitionPolynomial(0.0, [(np.log([1.0, 2.0, 1.0]), 1)], {"kind": "test"})

    def test_unity(self, simple):
        assert eval_ratio(simple, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_root(self, simple):
        assert abs(eval_ratio(simple, -1.0)) < 1e-15

    def test_imaginary_point(self, simple):
        assert eval_ratio(simple, 1j) == pytest.approx(0.5j, abs=1e-15)

    def test_bounded_on_unit_circle(self):
        poly = build_ring(10, HalfInt(2), 1.0, 2.0)
        z = np.exp(1j * np.linspace(0, 2 * np.pi, 257))
        ratios = np.array([eval_ratio(poly, zk) for zk in z])
        assert np.max(np.abs(ratios)) <= 1 + 1e-14


class TestPartitionPolynomial:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PartitionPolynomial(0.0, [(np.array([0.0, -np.inf]), 1)], {})

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            PartitionPolynomial(-1.0, [(np.array([0.0, 0.0]), 1)], {})

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite and non-negative"):
            PartitionPolynomial(beta, [(np.array([0.0, 0.0]), 1)], {})

    @pytest.mark.parametrize("J, beta", [
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (1.0, -1.0), (1e200, 1e200),
        # W = N beta J s^2 (ring) or half that (long_range), with N = 10, s = 1:
        # beyond the float range, and finite but above the bound
        (1.0, 1e308), (1.0, 5e306),
    ])
    @pytest.mark.parametrize("build", [build_ring, build_long_range])
    def test_builders_refuse_beta(self, build, J, beta):
        with pytest.raises(ValueError, match="beta"):
            build(10, HalfInt(2), J, beta)

    @pytest.mark.filterwarnings("error")
    def test_log_weight_below_bound_builds(self):
        # W = 3 * 1e307 / 4, a third of the bound
        poly = build_ring(3, HalfInt(1), 1.0, 1e307)
        np.testing.assert_array_equal(poly.log_coeffs, [7.5e306, -2.5e306, -2.5e306, 7.5e306])

    @pytest.mark.parametrize("J", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("build", [build_ring, build_long_range])
    def test_builders_refuse_coupling(self, build, J):
        with pytest.raises(ValueError, match="J must be finite and non-negative"):
            build(4, HalfInt(1), J, 0.5)

    def test_coeffs_max_normalized(self):
        poly = PartitionPolynomial(0.0, [(np.array([0.0, 5.0, 0.0]), 1)], {})
        assert poly.coeffs().max() == 1.0

    @pytest.mark.parametrize(
        "factors, message",
        [
            ([(np.zeros(3), 0)], "count must be an integer >= 1, got 0"),
            ([(np.zeros(2), 2.0)], "count must be an integer >= 1, got 2.0"),
            ([(np.zeros(2), 1.5)], "count must be an integer >= 1, got 1.5"),
            ([(np.array([0.0, np.nan, 0.0]), 1)], "finite, non-empty 1-D array"),
            ([(np.zeros((1, 3)), 1)], "finite, non-empty 1-D array"),
            ([(np.zeros(1), 1)], "degree sum, 0"),
            ([], "degree sum, 0"),
        ],
        ids=["count-0", "float-count", "fractional-count", "nan", "2-D", "degree-0", "no-factors"],
    )
    def test_rejects_invalid_factors(self, factors, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PartitionPolynomial(0.0, factors, {})

    def test_counts_factors_by_degree(self):
        poly = PartitionPolynomial(0.0, [(np.zeros(2), 3), (np.zeros(3), 2)], {})
        np.testing.assert_allclose(
            np.exp(poly.log_coeffs), np.convolve([1, 3, 3, 1], [1, 2, 3, 2, 1]), rtol=1e-14
        )


class TestDeferredProduct:
    """Builders return factors; their product is formed when log_coeffs is read."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []

        def counted(A, B):
            calls.append(1)
            return _log_polymat_mul(A, B)

        monkeypatch.setattr(leeyang.partition, "_log_polymat_mul", counted)
        return calls

    def test_split_bath_builds_without_a_product(self, products):
        # two triangles of spin-1/2
        poly = build_exact(spins(1, 6), np.kron(np.eye(2), uniform_couplings(3, 1.0)), 0.7)
        assert not products
        assert [count for _, count in poly.factors] == [2]
        first = poly.log_coeffs
        made = len(products)
        assert made > 0
        assert poly.log_coeffs is first and len(products) == made

    @pytest.mark.parametrize("build", [build_ring, build_long_range])
    def test_free_spins_build_without_a_product(self, products, build):
        poly = build(50, HalfInt(2), 1.0, 0.0)
        assert not products
        (lc, count), = poly.factors
        assert count == 50 and np.array_equal(lc, np.zeros(3))
        exact = [1]  # (1 + z + z^2)^50 in integers
        for _ in range(50):
            exact = [sum(exact[max(0, k - 2):k + 1]) for k in range(len(exact) + 2)]
        ref = np.log(np.array(exact, dtype=float))
        assert np.all(np.abs(poly.log_coeffs - ref) <= 1e-13 * np.maximum(1.0, ref))
        assert products
