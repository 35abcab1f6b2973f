"""Locating the complex zeros of the partition polynomial.

The coefficients are palindromic and, by the Lee-Yang circle theorem, every
zero lies on the unit circle.  On z = exp(i theta) the polynomial is
exp(i Ns theta) times the real cosine series F(theta) = sum_n c_n
cos((n - Ns) theta), so the zeros are the real roots of F on [0, pi] and their
mirror images.  Multiplicities come from the bath's structure: each distinct
factor (``PartitionPolynomial.factors``) is solved once and counted per copy.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# The sign-change grid has _GRID_PER_DEGREE points per unit of degree.  While
# sign changes are missing, up to _MAX_REFINEMENTS times, the grid is halved
# and its dips of |F| are resampled _REFINE_FACTOR times more finely, which
# splits pairs of zeros closer than the grid spacing.
_GRID_PER_DEGREE = 8
_REFINE_FACTOR = 64
_MAX_REFINEMENTS = 3
_MAX_SOLVER_STEPS = 200


class RootConvergenceError(RuntimeError):
    """Raised when not every zero of the polynomial could be located."""


@dataclass(frozen=True)
class ZeroSet:
    """All roots of the partition polynomial, as distinct zeros with multiplicity.

    ``clusters`` lists each distinct zero as (angle, multiplicity) in
    ascending angle on (-pi, pi].  By the circle theorem that is the whole
    answer; ``angles`` and ``roots`` repeat each cluster by its multiplicity,
    in the same order.  The roots are built as exp(i theta), so they lie on
    the unit circle by construction and ``circle_deviation``, the largest
    | hypot(re, im) - 1 |, is rounding-level.  What proves the circle theorem
    for a given polynomial is the count certificate: find_zeros returns only
    when sign changes of F account for all 2Ns roots.
    """

    clusters: list  # (representative angle, multiplicity)

    @cached_property
    def angles(self):
        return np.repeat([a for a, _ in self.clusters], [m for _, m in self.clusters])

    @cached_property
    def roots(self):
        return np.exp(1j * self.angles)

    @cached_property
    def circle_deviation(self):
        z = self.roots
        return float(np.max(np.abs(np.hypot(z.real, z.imag) - 1.0)))

    def times(self, lam: float, delta: int):
        """Zero times t_n = ((-theta_n) mod 2pi) / (lam * delta), in root order."""
        if not 0 < lam < np.inf:
            raise ValueError(f"lam must be finite and positive, got {lam}")
        if not isinstance(delta, int) or delta < 1:
            raise ValueError(f"delta must be a positive integer, got {delta!r}")
        return np.mod(-self.angles, 2 * np.pi) / (lam * delta)


def bracket_root(f, a, b, fa, fb, xtol):
    """A root of f between a and b, given fa = f(a) and fb = f(b) of opposite sign.

    Illinois method: secant steps that keep the root bracketed, halving the
    stored value of an end that survives two steps in a row so that both ends
    converge.  A step that rounds onto an end moves one float inside the
    bracket instead of bisecting it: the secant puts the root within an ulp
    of that end, which bisection would reach only after some forty halvings.
    Returns the bracket's midpoint once it is narrower than xtol or cannot
    shrink further in floating point.
    """
    side = 0
    for _ in range(_MAX_SOLVER_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        if c == a or c == b:
            c = np.nextafter(c, b if c == a else a)
        elif not min(a, b) < c < max(a, b):
            c = (a + b) / 2
        if abs(b - a) <= xtol or c == a or c == b:
            break
        fc = f(c)
        if fc == 0:
            return c
        if (fc > 0) == (fb > 0):
            b, fb = c, fc
            fa = fa / 2 if side == -1 else fa
            side = -1
        else:
            a, fa = c, fc
            fb = fb / 2 if side == 1 else fb
            side = 1
    return (a + b) / 2


def cosine_terms(c):
    """Terms (k, w), in extended precision, of a palindromic polynomial's cosine series.

    On the unit circle, sum_n c_n exp(i n theta) = exp(i d theta / 2) F(theta)
    with F(theta) = sum_k w_k cos(k theta), k = n - d/2 over the upper half of
    the palindrome.  The pairs c_n, c_{d-n} are symmetrized because the
    builders are palindromic only to rounding.
    """
    d = len(c) - 1
    upper = np.arange((d + 1) // 2, d + 1)
    k = (upper - d / 2).astype(np.longdouble)
    w = (c[upper] + c[::-1][upper]).astype(np.longdouble)
    if d % 2 == 0:
        w[0] /= 2
    return k, w


def cosine_series(k, w, theta):
    """F(theta) = sum_k w_k cos(k theta), for a scalar or an array of angles.

    A scalar angle is one dot product over the terms.  With extended-precision
    terms it sums them in the term loop's order, so it equals the matching
    element of an array evaluation.  An array of angles is summed term by
    term, which holds one array of the angles' size at a time.
    """
    if np.ndim(theta) == 0:
        return w @ np.cos(k * theta)
    return sum(wk * np.cos(kk * theta) for kk, wk in zip(k, w))


def _cosine_roots(c):
    """Angles in (0, pi) of the zeros of the palindromic polynomial sum c_n z^n.

    Sign changes of F on a grid are solved in extended precision.  For odd
    degree F(pi) = 0 identically; the caller adds that zero.  Raises
    RootConvergenceError unless floor(degree / 2) sign changes are found.
    """
    d = len(c) - 1
    k, w = cosine_terms(c)
    F = lambda t: cosine_series(k, w, t)
    expected = d // 2
    theta = np.linspace(0.0, np.pi, _GRID_PER_DEGREE * (d + 1) + 1).astype(np.longdouble)
    for _ in range(_MAX_REFINEMENTS + 1):
        vals = F(theta)
        if d % 2:
            # in place of F(pi) = 0, F(pi - h) to first order, which has its sign
            vals[-1] = (theta[-1] - theta[-2]) * (w * k * np.sin(k * np.pi)).sum()
        change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        if len(change) >= expected:
            break
        # Halve the grid spacing, and resample around the deepest local minima
        # of |F| (mirrored about pi; F(0) is its maximum) much more finely.
        mag = np.abs(np.append(vals, vals[-2]))
        dips = np.flatnonzero((mag[1:-1] <= mag[:-2]) & (mag[1:-1] <= mag[2:])) + 1
        dips = dips[np.argsort(mag[dips])[:expected]]
        last = len(theta) - 1
        theta = np.unique(np.concatenate([theta, (theta[:-1] + theta[1:]) / 2] + [
            np.linspace(theta[i - 1], theta[min(i + 1, last)], 2 * _REFINE_FACTOR + 1)
            for i in dips
        ]))
    if len(change) != expected:
        raise RootConvergenceError(
            f"found {len(change)} of {expected} sign changes of the cosine series "
            f"on [0, pi] for degree {d}; the zeros are multiple or off the unit circle"
        )
    return [
        float(bracket_root(F, theta[i], theta[i + 1], vals[i], vals[i + 1], 1e-17))
        for i in change
    ]


def _factor_zeros(log_coeffs):
    """Zeros of one factor in (0, pi]: (exact ones as fractions of a turn, angles)."""
    d = len(log_coeffs) - 1
    if np.all(log_coeffs == log_coeffs[0]):
        # 1 + z + ... + z^d: the (d+1)-th roots of unity other than 1
        return [Fraction(j, d + 1) for j in range(1, (d + 1) // 2 + 1)], []
    angles = _cosine_roots(np.exp(log_coeffs - log_coeffs.max()))
    return [Fraction(1, 2)] * (d % 2), angles


def find_zeros(poly) -> ZeroSet:
    """All 2Ns roots of sum_n p_n z^n, clustered by multiplicity.

    Raises RootConvergenceError when a factor's zeros cannot all be located
    as sign changes, for example a multiple root the bath's structure does
    not account for.
    """
    exact, clusters = Counter(), []
    for log_coeffs, count in poly.factors:
        turns, angles = _factor_zeros(log_coeffs)
        for turn in turns:
            exact[turn] += count
        clusters += [(theta, count) for theta in angles]
    clusters += [(2 * np.pi * float(turn), mult) for turn, mult in exact.items()]
    clusters += [(-theta, mult) for theta, mult in clusters if theta != np.pi]
    clusters.sort()
    return ZeroSet(clusters)
