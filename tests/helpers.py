"""Shared dense-matrix oracles and small builders for the test suite."""

import itertools
import math

import numpy as np

from leeyang.partition import build_exact, build_long_range, build_ring, logsumexp
from leeyang.spins import HalfInt


def splus_matrix(d0):
    """Dense (S+) matrix in the ascending z-basis m = -s0..s0."""
    s = d0 / 2
    mat = np.zeros((d0 + 1, d0 + 1))
    for k in range(d0):
        m = (-d0 + 2 * k) / 2
        mat[k + 1, k] = math.sqrt(s * (s + 1) - m * (m + 1))
    return mat


def sx_matrix(d0):
    sp = splus_matrix(d0)
    return 0.5 * (sp + sp.T)


def ring_couplings(n, J=1.0):
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, (i + 1) % n] += J
        mat[(i + 1) % n, i] += J
    return mat


def uniform_couplings(n, J):
    return J * (np.ones((n, n)) - np.eye(n))


def spins(two_s, n):
    return [HalfInt(two_s)] * n


def assert_roots_match(got, expected, atol=1e-9):
    """Compare two root multisets via optimal pairing.

    Lexicographic complex sorting is unstable when conjugate partners differ
    in their real parts by an ulp, so pair roots by minimum total distance
    instead.
    """
    from scipy.optimize import linear_sum_assignment

    got = np.asarray(got, complex)
    expected = np.asarray(expected, complex)
    assert got.shape == expected.shape
    dist = np.abs(got[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(dist)
    worst = dist[rows, cols].max()
    assert worst < atol, f"root sets differ by {worst:.3e}"


def eval_ratio(poly, z):
    """Z(beta, h_complex) / Z(beta, 0) at z = exp(-beta*h_complex).

    Complex Horner evaluation of the max-normalized coefficients: an oracle
    independent of the package's cosine-series evaluator.  For |z| = 1 the
    modulus is bounded by 1 up to rounding.
    """
    c = poly.coeffs()
    return np.polynomial.polynomial.polyval(z, c) / c.sum()


def brute_force_log_sectors(spin_list, couplings, beta):
    """Log sector weights log p_n, one configuration at a time.

    Each configuration's exponent beta * sum_{i<j} J_ij m_i m_j is a Python
    sum, and sector n = Ns - sum m is summed relative to its largest exponent,
    so large beta stays finite.  An oracle independent of build_exact's tables.
    """
    ms = [[d / 2 for d in range(-s.doubled, s.doubled + 1, 2)] for s in spin_list]
    size = len(spin_list)
    two_ns = sum(s.doubled for s in spin_list)
    exponents = [[] for _ in range(two_ns + 1)]
    for conf in itertools.product(*ms):
        energy = sum(
            couplings[i][j] * conf[i] * conf[j] for i in range(size) for j in range(i + 1, size)
        )
        exponents[round(two_ns / 2 - sum(conf))].append(beta * energy)
    log_w = []
    for sector in exponents:
        peak = max(sector)
        log_w.append(peak + math.log(math.fsum(math.exp(e - peak) for e in sector)))
    return np.array(log_w)


def log_polymat_mul_reference(A, B):
    """Product of log-domain matrix polynomials, one output degree at a time.

    Degree k is one log-sum-exp over (p, inner index) of A[p] + B[k-p]: the
    per-degree loop that the package's blocked product must reproduce.
    """
    da, db = A.shape[0] - 1, B.shape[0] - 1
    D = A.shape[1]
    At = np.ascontiguousarray(A.transpose(1, 0, 2))
    Br = np.ascontiguousarray(B[::-1].transpose(2, 0, 1))
    C = np.empty((da + db + 1, D, D))
    for k in range(da + db + 1):
        lo, hi = max(0, k - db), min(da, k) + 1
        terms = At[:, None, lo:hi] + Br[None, :, db - k + lo:db - k + hi]
        C[k] = logsumexp(terms.reshape(D, D, -1), axis=2)
    return C


def multiplicities(spin_list):
    """Exact integer sector multiplicities via convolution of uniform vectors."""
    acc = np.array([1], dtype=object)
    for s in spin_list:
        acc = np.convolve(acc, np.ones(s.doubled + 1, dtype=object))
    return acc.astype(float)


def figure_panels():
    """The 12 figure-panel configurations: (name, polynomial, probe spin)."""
    panels = []
    for b in (0.0, 1 / 32, 1 / 8, 1.0):
        panels.append(
            (f"fig2 beta={b}", build_exact(spins(5, 2), uniform_couplings(2, 1.0), b), HalfInt(5))
        )
    for b in (0.0, 1 / 8, 2.0, 16.0):
        panels.append((f"fig4 beta={b}", build_long_range(4, HalfInt(1), 1.0, b), HalfInt(1)))
    for b in (0.0, 1 / 8, 1 / 2, 4.0):
        panels.append((f"fig6 beta={b}", build_ring(10, HalfInt(2), 1.0, b), HalfInt(1)))
    return panels
