"""Shared dense-matrix oracles and small builders for the test suite."""

import math

import numpy as np

from leeyang.partition import build_exact, build_long_range, build_ring
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
