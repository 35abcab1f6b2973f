import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    brute_force_log_sectors,
    closed_form_angles,
    coupling_blocks_oracle,
    enumerate_unweighted,
    eval_ratio,
    log_coeffs_60_digits,
    log_polymat_mul_reference,
    multiplicities,
    ring_couplings,
    spins,
    twin_classes_oracle,
    uniform_couplings,
)
import leeyang.partition
from leeyang.config import RunConfig
from leeyang.partition import (
    _ENUMERATION_CHUNK,
    _LINEAR_RANGE,
    ENUMERATION_CAP,
    PartitionPolynomial,
    _MAX_CLASS_STATES,
    _coupling_blocks,
    _log_polymat_mul,
    _power,
    _twin_classes,
    build_exact,
    build_long_range,
    build_ring,
    logsumexp,
    long_range_integral_oracle,
)
from leeyang.spins import HalfInt
from leeyang.zeros import find_zeros


# The start of a builder's refusal of a log weight past the bound, and
# PartitionPolynomial's refusal of a factor that is not a finite 1-D array
WEIGHT = "beta * J must be finite and keep the largest log weight at most 2.24712e+307; it is "
ARRAY = "each factor must be a finite, non-empty 1-D array"

# Refused by build_ring and build_long_range alike: (N, 2s, J, beta, message)
BOTH_BUILDERS = {
    "beta-nan": (10, 2, 1.0, math.nan, WEIGHT + "nan at beta = nan"),
    "beta-inf": (10, 2, 1.0, math.inf, WEIGHT + "inf at beta = inf"),
    "beta--inf": (10, 2, 1.0, -math.inf, "beta must be finite and non-negative, got -inf"),
    "beta-negative": (10, 2, 1.0, -1.0, "beta must be finite and non-negative, got -1.0"),
    "beta-J-overflows": (10, 2, 1e200, 1e200, WEIGHT + "inf at beta = 1e+200"),
    # W = N beta J s^2 (ring) or half that (long_range), with N = 10, s = 1:
    # beyond the float range
    "W-overflows": (10, 2, 1.0, 1e308, WEIGHT + "inf at beta = 1e+308"),
    **{f"J-{J}": (4, 1, J, 0.5, f"J must be finite and non-negative (ferromagnetic), got {J}")
       for J in (math.nan, math.inf, -1.0)},
}


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

    def test_near_symmetric_couplings_build_as_their_symmetric_part(self, monkeypatch):
        # within 1e-12 of J.T, J builds bit for bit as 0.5*J + 0.5*J.T, on
        # which twin classes are found; 1e-11 away it is refused
        rng = np.random.default_rng(11)
        upper = np.triu(rng.uniform(0.5, 1.5, (5, 5)), 1)
        J = upper + upper.T
        J[0, 1] += 1e-13
        block = spins(1, 5)
        lc = build_exact(block, J, 0.7).log_coeffs
        np.testing.assert_array_equal(lc, build_exact(block, 0.5 * J + 0.5 * J.T, 0.7).log_coeffs)
        ref = brute_force_log_sectors(block, J, 0.7)
        assert np.all(np.abs(lc - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        J[0, 1] = J[1, 0] + 1e-11
        with pytest.raises(ValueError, match="symmetric"):
            build_exact(block, J, 0.7)

        seen, twin_classes = [], leeyang.partition._twin_classes

        def recording(*args):
            rep = twin_classes(*args)
            seen.append(list(rep))
            return rep

        monkeypatch.setattr(leeyang.partition, "_twin_classes", recording)
        J = uniform_couplings(6, 1.0)
        J[0, 1] += 1e-13
        build_exact(spins(1, 6), J, 0.7)
        assert seen == [[0, 0, 2, 2, 2, 2]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spin_list, coupling, beta, error, message", [
        ([], np.zeros((0, 0)), 1.0, ValueError, "need at least one bath spin"),
        (spins(1, 2), np.zeros((2, 3)), 1.0, ValueError, "couplings must be 2x2, got (2, 3)"),
        ([HalfInt(1), 0.5], 1.0, 1.0, TypeError, "spin magnitude must be a HalfInt"),
        ([HalfInt(1), HalfInt(0)], 1.0, 1.0, ValueError,
         "invalid spin magnitude 0: must be >= 1/2"),
        (spins(1, 2), [[0.0, 1.0], [0.5, 0.0]], 1.0, ValueError,
         "couplings matrix must be symmetric"),
        (spins(1, 2), [[1.0, 1.0], [1.0, 0.0]], 1.0, ValueError,
         "couplings matrix must have zero diagonal"),
        (spins(1, 2), -1.0, 1.0, ValueError, "couplings must be non-negative (ferromagnetic)"),
        (spins(1, 2), math.nan, 1.0, ValueError, "couplings must be finite"),
        (spins(1, 2), math.inf, 0.0, ValueError, "couplings must be finite"),
        (spins(1, 2), 1e308, 10.0, ValueError, WEIGHT + "inf at beta = 10.0"),
        (spins(1, 2), 1.0, math.nan, ValueError, WEIGHT + "nan at beta = nan"),
        (spins(1, 2), 1.0, math.inf, ValueError, WEIGHT + "nan at beta = inf"),
        (spins(1, 2), 1.0, 1e308, ValueError, WEIGHT + "2.5e+307 at beta = 1e+308"),
    ], ids=["no-spins", "wrong-shape", "not-a-half-int", "spin-zero", "asymmetric",
            "nonzero-diagonal", "antiferromagnetic", "nan-coupling", "inf-coupling-at-beta-0",
            "overflow", "nan-beta", "inf-beta", "log-weight-beyond-bound"])
    def test_malformed_bath_refused(self, spin_list, coupling, beta, error, message):
        # a number is the coupling of the pair
        couplings = [[0.0, coupling], [coupling, 0.0]] if np.ndim(coupling) == 0 else coupling
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build_exact(spin_list, couplings, beta)

    def test_twin_free_block_of_18_spins(self):
        # no twins, so all 2^18 configurations are enumerated: the one exact
        # block here that the twin classes do not shrink
        n, beta = 18, 0.5
        rng = np.random.default_rng(18)
        upper = np.triu(rng.uniform(0.5, 1.5, (n, n)) / n, 1)
        J = upper + upper.T
        assert list(_twin_classes([1] * n, beta * J)) == list(range(n))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            lc = build_exact(spins(1, n), J, beta).log_coeffs
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1
        order = rng.permutation(n)
        permuted = build_exact(spins(1, n), J[np.ix_(order, order)], beta).log_coeffs
        assert np.all(np.abs(lc - permuted) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

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
            got = enumerate_unweighted(spins(1, n), beta * uniform_couplings(n, 1.0 / n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        lc = build_long_range(n, HalfInt(1), 1.0, beta).log_coeffs
        assert np.all(np.abs(got - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    def test_partial_last_chunk_matches_long_range(self):
        # 3^11 = 177147 configurations, not a multiple of the chunk size
        n, beta = 11, 0.7
        got = enumerate_unweighted(spins(2, n), beta * uniform_couplings(n, 1.0 / n))
        lc = build_long_range(n, HalfInt(2), 1.0, beta).log_coeffs
        assert np.all(np.abs(got - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    def test_twenty_spins_bounded_memory(self):
        # 2^20 configurations, enumerated as two 2^10-row half-tables
        n, beta = 20, 0.5
        tracemalloc.start()
        try:
            got = enumerate_unweighted(spins(1, n), beta * uniform_couplings(n, 1.0 / n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        lc = build_long_range(n, HalfInt(1), 1.0, beta).log_coeffs
        assert np.all(np.abs(got - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

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

    def test_enumeration_cap(self):
        n = 21  # 2^21 > cap; a chain has no twins
        chain = np.diag(np.ones(n - 1), 1)
        with pytest.raises(ValueError, match=str(ENUMERATION_CAP)):
            build_exact(spins(1, n), chain + chain.T, 1.0)

    @pytest.mark.parametrize("n", [21, 512])
    def test_uniform_bath_past_the_cap_is_one_class(self, n):
        # 2^n configurations, but n + 1 states of one collective spin
        beta = 0.5
        got = build_exact(spins(1, n), uniform_couplings(n, 1.0), beta).log_coeffs
        lc = build_long_range(n, HalfInt(1), 1.0 * n, beta).log_coeffs
        assert np.all(np.abs(got - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

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
        # one class of 1024 spins 1001/2: 1025025 states, whose power would sum
        # about 1e12 terms
        uniform = uniform_couplings(n, 1.0)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"enumeration cap {ENUMERATION_CAP}") as err:
            build_exact(spins(1001, n), uniform, 1.0)
        assert time.perf_counter() - start < 0.25
        assert f"1025025 states, more than the {_MAX_CLASS_STATES}" in str(err.value)

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_widest_class_within_the_bound_builds(self, two_s):
        # 1024 * 3 + 1 = 3073 states at s = 3/2, within the bound
        n, beta = 1024, 0.5
        got = build_exact(spins(two_s, n), uniform_couplings(n, 1.0), beta).log_coeffs
        lc = build_long_range(n, HalfInt(two_s), 1.0 * n, beta).log_coeffs
        assert np.all(np.abs(got - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    def test_identical_blocks_enumerated_once(self, monkeypatch):
        calls = 0
        enumerate_block = leeyang.partition._enumerate

        def counting(*args):
            nonlocal calls
            calls += 1
            return enumerate_block(*args)

        monkeypatch.setattr(leeyang.partition, "_enumerate", counting)
        upper = np.triu(np.random.default_rng(3).uniform(0.2, 1.5, (3, 3)), 1)
        block = upper + upper.T
        poly = build_exact(spins(1, 12), np.kron(np.eye(4), block), 0.3)
        assert calls == 1
        (lc, count), = poly.factors
        assert count == 4
        np.testing.assert_array_equal(lc, enumerate_unweighted(spins(1, 3), 0.3 * block))
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
        got = enumerate_unweighted(spins(1, n), beta * uniform_couplings(n, 1.0 / n))
        for lc in (
            build_long_range(n, HalfInt(1), 1.0, beta).log_coeffs,
            log_coeffs_60_digits("long_range", n, 1, 1.0, beta),
        ):
            assert np.all(np.abs(got - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    def test_cap_counts_one_block(self):
        # four blocks of 64 configurations: 2^24 in all, but each block is
        # enumerated on its own; random couplings leave no twins
        upper = np.triu(np.random.default_rng(6).uniform(0.5, 1.5, (6, 6)), 1)
        block = upper + upper.T
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
        # every pair coupled, by random couplings that leave no twins
        n = 512
        upper = np.triu(np.random.default_rng(n).uniform(0.5, 1.5, (n, n)), 1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceed the enumeration cap {ENUMERATION_CAP}"):
            build_exact(spins(1, n), upper + upper.T, 1.0)
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


def star_couplings(leaves):
    """A centre spin 0 coupled by 1 to each leaf, and no leaf to another."""
    mat = np.zeros((len(leaves) + 1, len(leaves) + 1))
    mat[0, 1:] = mat[1:, 0] = leaves
    return mat


def bipartite_couplings(a, b):
    """K_{a,b}: each of the first a spins coupled by 1 to each of the other b."""
    mat = np.zeros((a + b, a + b))
    mat[:a, a:] = mat[a:, :a] = 1.0
    return mat


class TestTwinClasses:
    """Twin spins enumerated as one collective spin of n*2s + 1 states."""

    ULP = math.nextafter(1.0, 2.0)
    # name: (doubled spins, couplings, each spin's class as its lowest spin)
    BLOCKS = {
        "spin-1 triangle": ([2] * 3, uniform_couplings(3, 1.0), [0, 0, 0]),
        # leaves share no coupling: J_C = 0
        "star of 5 leaves": ([1] * 6, star_couplings([1.0] * 5), [0, 1, 1, 1, 1, 1]),
        "K_2,3": ([1] * 5, bipartite_couplings(2, 3), [0, 0, 2, 2, 2]),
        "4-ring": ([1] * 4, ring_couplings(4), [0, 1, 0, 1]),
        # equal couplings, but spin 1/2 never joins spin 1
        "spins 1/2 and 1": ([1, 2, 1, 2, 2], uniform_couplings(5, 1.0), [0, 1, 0, 1, 1]),
        # the third leaf's coupling is 1 ulp above the others'
        "1 ulp apart": ([1] * 5, star_couplings([1.0, 1.0, ULP, 1.0]), [0, 1, 1, 3, 1]),
    }

    @pytest.mark.parametrize("beta", [0.5, 50.0, 400.0])
    @pytest.mark.parametrize("name", BLOCKS)
    def test_matches_brute_force_oracle(self, name, beta):
        two_spins, couplings, classes = self.BLOCKS[name]
        assert list(_twin_classes(two_spins, beta * couplings)) == classes
        block = [HalfInt(d) for d in two_spins]
        lc = brute_force_log_sectors(block, couplings, beta)
        got = build_exact(block, couplings, beta).log_coeffs
        assert np.all(np.abs(got - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)))

    @pytest.mark.parametrize("both", [True, False], ids=["both entries", "upper entry"])
    def test_negative_zero_couplings_build_the_same_bits(self, both):
        # -0.0 equals 0.0 but differs in its bits, which the twin classes
        # compare; a -0.0 above the diagonal alone also passes as exactly
        # symmetric.  K_32,32 with within-side pairs (i + j) % 3 == 0 set to
        # -0.0 must build the bits of the plain matrix, as two twin classes.
        couplings = bipartite_couplings(32, 32)
        i, j = np.nonzero((couplings == 0) & (np.add.outer(range(64), range(64)) % 3 == 0))
        pick = (i != j) & (both | (i < j))
        signed = couplings.copy()
        signed[i[pick], j[pick]] = -0.0
        assert np.signbit(signed).sum() == pick.sum() > 0
        got = build_exact(spins(1, 64), signed, 0.5).log_coeffs
        want = build_exact(spins(1, 64), couplings, 0.5).log_coeffs
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seed", range(8))
    def test_blocks_without_twins_keep_their_bits(self, seed):
        # random couplings leave every spin a class of its own, which
        # enumerates exactly as the block did spin by spin
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        block = [HalfInt(int(d)) for d in rng.integers(1, 4, n)]
        upper = np.triu(rng.uniform(0.5, 1.5, (n, n)), 1)
        couplings, beta = upper + upper.T, float(rng.choice([0.05, 0.5, 5.0, 400.0]))
        assert list(_twin_classes([s.doubled for s in block], beta * couplings)) == list(range(n))
        (lc, _), = build_exact(block, couplings, beta).factors
        np.testing.assert_array_equal(lc, enumerate_unweighted(block, beta * couplings))

    @pytest.mark.parametrize("seed, scale", [
        pytest.param(seed, scale, id=str(seed) if scale == 1 else f"{seed}-scale {scale}")
        for scale in (1, 2, 1 / 8) for seed in range(20)
    ])
    def test_classes_match_pairwise_oracle(self, seed, scale):
        # a random weighted graph with each vertex blown up into 1 to 4 spins,
        # coupled by 0 or 1 among themselves; weights from a set of three, so
        # spins of different vertices turn out twins too.  Every coupling is
        # then scaled: at scale 2 the weights 1 and 2 are powers of two, whose
        # doubles have a zero mantissa
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        upper = np.triu(rng.choice([0.0, 0.5, 1.0], (m, m)), 1)
        base = upper + upper.T
        vertex = np.repeat(np.arange(m), rng.integers(1, 5, m))
        couplings = base[np.ix_(vertex, vertex)]
        same = vertex[:, None] == vertex
        couplings[same] = rng.choice([0.0, 1.0], m)[vertex[np.nonzero(same)[0]]]
        np.fill_diagonal(couplings, 0.0)
        couplings *= scale
        two_spins = list(rng.integers(1, 3, m)[vertex])
        expected = twin_classes_oracle(two_spins, couplings.tolist())
        assert list(_twin_classes(two_spins, couplings)) == expected

    @pytest.mark.parametrize("name, seed", [
        pytest.param(name, seed, id=name if seed is None else f"{name}-weights 0-2 seed {seed}")
        for name in BLOCKS for seed in (None, 0, 1, 2)
    ])
    def test_hash_collisions_merge_no_others(self, monkeypatch, name, seed):
        # with every row hash equal (zero weights), each spin's first candidate
        # is the first spin of its spin value; seeded weights in {0, 1, 2}
        # collide some rows and not others.  The bitwise comparison must turn
        # away every candidate that is not a twin, and each representative
        # must be the lowest spin of its class, which no later pass enforces
        def weights(n):
            if seed is None:
                return np.zeros(n, np.uint64)
            return np.random.default_rng(seed).integers(0, 3, n).astype(np.uint64)

        monkeypatch.setattr(leeyang.partition, "_hash_weights", weights)
        two_spins, couplings, classes = self.BLOCKS[name]
        rep = _twin_classes(two_spins, couplings)
        assert all(rep[rep] == rep)
        assert all(classes[i] == classes[r] for i, r in enumerate(rep))

    @pytest.mark.parametrize("beta", [1 / 16, 1 / 8, 1 / 2, 1.0, 2.0])
    @pytest.mark.parametrize("a", [16, 32, 128, 512])
    def test_complete_bipartite_at_power_of_two_beta(self, a, beta):
        # beta*J a power of two has a zero mantissa: its bits are a multiple
        # of 2^52, and must still reach the hash's low bits.  The pairwise
        # oracle is O(n^3), so the known answer: one class per side
        two_spins = [1] * (2 * a)
        got = _twin_classes(two_spins, beta * bipartite_couplings(a, a))
        assert list(got) == [0] * a + [a] * a

    def test_complete_bipartite_256_spins_at_half_beta(self):
        # K_128,128 at beta*J = 1/2: two classes of 129 states, so 16,641
        # configurations for 2^256 spin configurations.  With u and v spins
        # down on each side, M_A M_B = (u - 64)(v - 64) and the sector is u + v
        a, beta = 128, 0.5
        poly = build_exact(spins(1, 2 * a), bipartite_couplings(a, a), beta)
        (lc, count), = poly.factors
        assert count == 1 and lc.shape == (2 * a + 1,)
        log_comb = np.array([math.log(math.comb(a, u)) for u in range(a + 1)])
        u = np.arange(a + 1)
        terms = np.full((2 * a + 1, a + 1), -np.inf)  # by sector u + v, then u
        for v in range(a + 1):
            terms[u + v, u] = log_comb + log_comb[v] + beta * (u - a / 2) * (v - a / 2)
        expected = logsumexp(terms, axis=1)
        assert np.all(np.abs(lc - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    def test_exact_bath_does_not_load_numpy_random(self):
        # the twin hash's weights are a pure function of the index
        src = str(Path(leeyang.partition.__file__).resolve().parent.parent)
        code = (
            "import sys, numpy; print('numpy.random' in sys.modules); "
            "import leeyang; from leeyang.spins import HalfInt; "
            "couplings = numpy.ones((6, 6)) - numpy.eye(6); "
            "leeyang.build_exact([HalfInt(1)] * 6, couplings, 0.5).log_coeffs; "
            "print('numpy.random' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        with_numpy, after_build = out.stdout.split()
        if with_numpy == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert after_build == "False"

    def test_default_exact_bath_of_1024_spins(self):
        # the config's default couplings, J to every pair; best of three, so a
        # cold first call does not count
        config = {
            "model": {"kind": "exact", "n_spins": 1024, "two_s": 1},
            "temperature": {"T_over_J": 1},
            "probe": {"two_s0": 1},
        }
        run = RunConfig(config)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            lc = run.build_polynomial().log_coeffs
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1
        ref = build_long_range(1024, HalfInt(1), 1024.0, 1.0).log_coeffs
        assert np.all(np.abs(lc - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


class TestBuildLongRange:
    def test_binomial_at_infinite_temperature(self):
        poly = build_long_range(4, HalfInt(1), 1.0, 0.0)
        np.testing.assert_allclose(np.exp(poly.log_coeffs), [1, 4, 6, 4, 1], rtol=1e-12)

    def test_matches_exact_two_spins(self):
        for beta in (0.3, 1.0, 2.5):
            lr = build_long_range(2, HalfInt(1), 1.0, beta)
            ex = build_exact(spins(1, 2), uniform_couplings(2, 0.5), beta)
            assert rel_coeff_diff(lr, ex) < 1e-12

    @pytest.mark.parametrize("beta_j, edge", [(0.5, 1.757421), (1.0, 1.228370), (2.0, 0.570796)])
    def test_spin_half_zeros_lie_above_the_yang_lee_edge(self, beta_j, edge):
        # the mean-field edge theta_c = phi - (beta J / 2) tan(phi / 2), with
        # cos^2(phi / 2) = beta J / 4: every zero angle lies above it, and the
        # first comes closer as N grows
        phi = 2 * math.acos(math.sqrt(beta_j / 4))
        theta_c = phi - beta_j / 2 * math.tan(phi / 2)
        assert theta_c == pytest.approx(edge, abs=1e-6)
        first = [
            np.min(np.abs(find_zeros(build_long_range(n, HalfInt(1), 1.0, beta_j)).angles))
            for n in (4, 10, 20)
        ]
        gaps = np.array(first) - theta_c
        assert 0 < gaps[2] < gaps[1] < gaps[0]

    def test_matches_integral_oracle(self):
        poly = build_long_range(4, HalfInt(1), 1.0, 0.8)
        for n in range(poly.two_ns + 1):
            oracle = long_range_integral_oracle(4, HalfInt(1), 1.0, 0.8, n)
            assert math.exp(poly.log_coeffs[n]) == pytest.approx(oracle, rel=1e-8)

class TestIntegralOracle:
    def test_single_spin_sector(self):
        assert long_range_integral_oracle(1, HalfInt(1), 1.0, 0.0, 0) == pytest.approx(1.0)

    def test_binomial_sector(self):
        assert long_range_integral_oracle(4, HalfInt(1), 1.0, 0.0, 2) == pytest.approx(6.0)

    def test_spin_one_cross_validation(self):
        built = math.exp(build_long_range(3, HalfInt(2), 1.0, 1.0).log_coeffs[3])
        oracle = long_range_integral_oracle(3, HalfInt(2), 1.0, 1.0, 3)
        assert built == pytest.approx(oracle, rel=1e-8)

    def test_imaginary_residue_refused(self):
        # p_0 of 40 spins is about 1e-11 of the sum of all p_n, which sets the
        # quadrature's rounding: its imaginary residue is far above 1e-10 of it
        with pytest.raises(RuntimeError, match=r"quadrature imaginary residue \S+ too large"):
            long_range_integral_oracle(40, HalfInt(1), 1.0, 0.5, 0)

    @pytest.mark.parametrize("N, J, beta, n, message", [
        (2, 1.0, math.nan, 1, "beta must be finite and non-negative, got nan"),
        (2, 1.0, math.inf, 1, "beta must be finite and non-negative, got inf"),
        (2, 1.0, -1.0, 1, "beta must be finite and non-negative, got -1.0"),
        (2, math.nan, 1.0, 1, "J must be finite and non-negative (ferromagnetic), got nan"),
        (2, math.inf, 1.0, 1, "J must be finite and non-negative (ferromagnetic), got inf"),
        (2, 1.0, 1.0, 3, "n=3 out of range [0, 2]"),
        (0, 1.0, 1.0, 0, "N must be a positive integer, got 0"),
    ])
    def test_non_finite_arguments_rejected(self, N, J, beta, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            long_range_integral_oracle(N, HalfInt(1), J, beta, n)


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
        got = find_zeros(build_ring(n, HalfInt(1), 1.0, beta_j)).angles
        np.testing.assert_allclose(got, closed_form_angles(n, beta_j), rtol=0, atol=1e-10)



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

    @pytest.mark.parametrize("n, beta", [(10, 400.0), (500, 0.5), (1000, 0.5)])
    def test_ring_total_matches_transfer_eigenvalues(self, n, beta):
        # Z(beta, 0) = Tr T^N for T = exp(beta J m m'); beta*J = 400 spans
        # e^4000 across the matrix entries, and N = 500 and 1000 give degree
        # 1000 and 2000.
        lc = build_ring(n, HalfInt(2), 1.0, beta).log_coeffs
        assert np.all(np.isfinite(lc))
        np.testing.assert_allclose(lc, lc[::-1], rtol=0, atol=1e-12 * abs(lc).max())
        ms = np.array([-1.0, 0.0, 1.0])
        eig = np.linalg.eigvalsh(np.exp(beta * np.outer(ms, ms)))
        top = eig[np.argmax(np.abs(eig))]
        log_z = n * math.log(abs(top)) + math.log(np.sum((eig / top) ** n))
        assert np.logaddexp.reduce(lc) == pytest.approx(log_z, rel=1e-12)

    @pytest.mark.parametrize("n", [1000, 1100])
    def test_long_range_beyond_double_range(self, n):
        # C(1000, 500) < 1.8e308 < C(1100, 550): at N = 1100 the coefficients
        # exist only as logs.
        # s = 1/2: p_n = C(N, n) exp(a (N/2 - n)^2 - N a / 4), a = beta J / 2N
        beta = 0.5
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


def random_log_polymat(rng, degree, D, scale=1e3, absent=0.3):
    """Log entries up to ``scale`` in magnitude, about a share ``absent`` of them -inf."""
    A = rng.uniform(-scale, scale, (degree + 1, D, D))
    A[rng.random(A.shape) < absent] = -np.inf
    return A


def ring_transfer_matrix(two_s, bJ):
    """build_ring's transfer matrix in logs: row m is bJ*m*m' at degree s - m, all else absent."""
    ms = np.arange(two_s + 1) - two_s / 2
    V = np.full((two_s + 1,) * 3, -np.inf)
    r = np.arange(two_s + 1)
    V[r[::-1], r] = bJ * ms[:, None] * ms
    return V


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


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

    # a squaring passes one array as both operands; it must round as a
    # product with a copy does.  Scale 170 is the linear path, 1e3 the wide one.
    @pytest.mark.parametrize("absent", [0.0, 0.3], ids=["no-absent", "absent"])
    @pytest.mark.parametrize("scale", [1.0, 170.0, 1e3])
    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("degree", [0, 7, 200])
    def test_aliased_operand_matches_a_copy(self, degree, D, scale, absent):
        rng = np.random.default_rng(100 * degree + 10 * D + int(scale))
        A = random_log_polymat(rng, degree, D, scale, absent)
        np.testing.assert_array_equal(
            bits(_log_polymat_mul(A, A)), bits(_log_polymat_mul(A, A.copy()))
        )

    # a ring's transfer matrix has absent terms, a long-range site factor none
    @pytest.mark.parametrize("x", [
        ring_transfer_matrix(2, 0.5),
        -0.5 / (2 * 40) * np.array([1.0, 0.0, 1.0])[:, None, None],
    ], ids=["ring", "long_range"])
    def test_power_matches_a_chain_of_copies(self, x):
        def with_copy(a, b):
            return _log_polymat_mul(a, b.copy())

        for n in range(1, 34):
            np.testing.assert_array_equal(
                bits(_power(x, n, _log_polymat_mul)), bits(_power(x, n, with_copy)), err_msg=f"n={n}"
            )

    # with no absent term every degree has a positive sum, so the log may
    # skip the error-state switch; an absent one must keep it
    @pytest.mark.parametrize("scale", [1.0, 170.0])
    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("da, db", DEGREES)
    def test_linear_product_without_absent_terms_is_finite(self, da, db, D, scale):
        rng = np.random.default_rng(1000 * da + 10 * db + D + int(scale))
        A, B = (random_log_polymat(rng, d, D, scale, absent=0.0) for d in (da, db))
        with np.errstate(divide="raise"):
            assert np.all(np.isfinite(_log_polymat_mul(A, B)))
            assert np.all(np.isfinite(_log_polymat_mul(A, A)))

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_degree_without_terms_stays_absent(self, two_s):
        V = ring_transfer_matrix(two_s, 0.5)
        assert np.any(np.isneginf(log_polymat_mul_reference(V, V)))
        with np.errstate(divide="raise"):
            assert_matches_reference(V, V, operand_bound(V, V))

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
    @pytest.mark.parametrize("build, N, two_s, J, beta, message", [
        *(pytest.param(build, *row, id=f"{build.__name__}-{name}")
          for build in (build_ring, build_long_range) for name, row in BOTH_BUILDERS.items()),
        # finite but above the bound
        pytest.param(build_ring, 10, 2, 1.0, 5e306, WEIGHT + "5e+307 at beta = 5e+306",
                     id="build_ring-W-above-bound"),
        pytest.param(build_long_range, 10, 2, 1.0, 5e306, WEIGHT + "2.5e+307 at beta = 5e+306",
                     id="build_long_range-W-above-bound"),
        pytest.param(build_long_range, 3, 1, -1.0, 1.0,
                     "J must be finite and non-negative (ferromagnetic), got -1.0",
                     id="build_long_range-N-3-negative-J"),
        pytest.param(build_long_range, 0, 1, 1.0, 1.0, "N must be a positive integer, got 0",
                     id="build_long_range-no-spins"),
        pytest.param(build_ring, 2, 1, 1.0, 1.0, "ring needs N >= 3 spins, got 2",
                     id="build_ring-open-chain"),
    ])
    def test_builders_refuse(self, build, N, two_s, J, beta, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(N, HalfInt(two_s), J, beta)

    @pytest.mark.filterwarnings("error")
    def test_log_weight_below_bound_builds(self):
        # W = 3 * 1e307 / 4, a third of the bound
        poly = build_ring(3, HalfInt(1), 1.0, 1e307)
        np.testing.assert_array_equal(poly.log_coeffs, [7.5e306, -2.5e306, -2.5e306, 7.5e306])

    @pytest.mark.parametrize("beta, factors, message", [
        (0.0, [(np.zeros(3), 0)], "a factor's count must be an integer >= 1, got 0"),
        (0.0, [(np.zeros(2), 2.0)], "a factor's count must be an integer >= 1, got 2.0"),
        (0.0, [(np.zeros(2), 1.5)], "a factor's count must be an integer >= 1, got 1.5"),
        (0.0, [(np.array([0.0, np.nan, 0.0]), 1)], ARRAY),
        (0.0, [(np.array([0.0, -np.inf]), 1)], ARRAY),
        (0.0, [(np.zeros((1, 3)), 1)], ARRAY),
        (0.0, [(np.zeros(1), 1)], "the factors' degree sum, 0, must be >= 1"),
        (0.0, [], "the factors' degree sum, 0, must be >= 1"),
        (-1.0, [(np.zeros(2), 1)], "beta must be finite and non-negative, got -1.0"),
        (math.nan, [(np.zeros(2), 1)], "beta must be finite and non-negative, got nan"),
        (math.inf, [(np.zeros(2), 1)], "beta must be finite and non-negative, got inf"),
        (-math.inf, [(np.zeros(2), 1)], "beta must be finite and non-negative, got -inf"),
    ], ids=["count-0", "float-count", "fractional-count", "nan", "-inf", "2-D", "degree-0",
            "no-factors", "negative-beta", "nan-beta", "inf-beta", "-inf-beta"])
    def test_rejects_invalid_factors(self, beta, factors, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PartitionPolynomial(beta, factors, {})

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
        # two triangles of spin-1/2, with three couplings each, so no twins:
        # a twin class's weights are a power, taken when built
        triangle = np.array([[0.0, 1.0, 0.8], [1.0, 0.0, 0.6], [0.8, 0.6, 0.0]])
        poly = build_exact(spins(1, 6), np.kron(np.eye(2), triangle), 0.7)
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
