"""Locating the complex zeros of the partition polynomial.

The coefficients are palindromic and, by the Lee-Yang circle theorem, every
zero lies on the unit circle.  On z = exp(i theta) the polynomial is
exp(i Ns theta) times the real cosine series F(theta) = sum_n c_n
cos((n - Ns) theta), so the zeros are the real roots of F on [0, pi] and their
mirror images.  Multiplicities come from the bath's structure: each distinct
``Factor`` (``PartitionPolynomial.factors``) is solved once and counted per
copy, and a zero that several factors share adds up their counts.  A factor
whose sign changes miscount its zeros is refused, saying which way it failed.
"""

import math
from collections import Counter, namedtuple
from dataclasses import dataclass
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
    ascending angle on (-pi, pi]; find_zeros keys them by angle, so no angle
    repeats.  By the circle theorem that is the whole answer; ``angles`` and
    ``roots`` repeat each cluster by its multiplicity, in the same order.
    The roots are built as exp(i theta), so they lie on the unit circle by
    construction: ``abs_minus_1``, C's hypot(re, im) - 1 of each root, and its
    largest magnitude ``circle_deviation`` are rounding-level.  What proves the
    circle theorem for a given polynomial is the count certificate: find_zeros
    returns only when sign changes of F account for all 2Ns roots.
    """

    clusters: list  # (representative angle, multiplicity)

    @cached_property
    def angles(self):
        return np.repeat([a for a, _ in self.clusters], [m for _, m in self.clusters])

    @cached_property
    def roots(self):
        return np.exp(1j * self.angles)

    @cached_property
    def abs_minus_1(self):
        return np.hypot(self.roots.real, self.roots.imag) - 1.0  # np.abs may differ by an ulp

    @cached_property
    def circle_deviation(self):
        return float(np.max(np.abs(self.abs_minus_1)))

    def times(self, lam: float, delta: int):
        """Zero times t_n = ((-theta_n) mod 2pi) / (lam * delta), in root order."""
        return np.repeat(self.cluster_times(lam, delta), [m for _, m in self.clusters])

    def cluster_times(self, lam: float, delta: int):
        """One zero time per cluster, in cluster order: ``times`` without repeats."""
        if not 0 < lam < np.inf:
            raise ValueError(f"lam must be finite and positive, got {lam}")
        if not isinstance(delta, int) or delta < 1:
            raise ValueError(f"delta must be a positive integer, got {delta!r}")
        fundamental_period(lam, delta)  # refuses a period that is not finite and positive
        return np.mod(-np.array([a for a, _ in self.clusters]), 2 * np.pi) / (lam * delta)


def fundamental_period(lam, delta):
    """The signal's fundamental period 2pi/(lam*delta), refused where it is not finite
    and positive: a tiny lam makes it inf, and a lam*delta past the float range 0."""
    period = 2 * np.pi / (float(lam) * delta)  # a Python float: inf or 0, with no warning
    if not 0 < period < math.inf:
        raise ValueError(
            f"the period 2pi/(lam*delta) must be finite and positive, "
            f"got lam = {lam}, delta = {delta}"
        )
    return period


def bracket_root(f, a, b, fa, fb, xtol):
    """A root of f between a and b, given fa = f(a) and fb = f(b) of opposite sign bit.

    An end where f is 0.0 reads as positive, as its sign bit does.  Illinois
    method: secant steps that keep the root bracketed, halving the stored value
    of an end that survives two steps in a row so that both ends converge.  A
    step that rounds onto an end moves one float inside the bracket instead of
    bisecting it: the secant puts the root within an ulp of that end, which
    bisection would reach only after some forty halvings.  Returns the
    bracket's midpoint once it is narrower than xtol or cannot shrink further
    in floating point.  A midpoint is a/2 + b/2: for normal ends it has the
    bits of (a + b)/2, and it stays finite for ends beyond half the float range.
    """
    side = 0
    for _ in range(_MAX_SOLVER_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        if c == a or c == b:
            c = np.nextafter(c, b if c == a else a)
        elif not min(a, b) < c < max(a, b):
            c = a / 2 + b / 2
        if abs(b - a) <= xtol or c == a or c == b:
            break
        fc = f(c)
        if fc == 0:
            return c
        if math.copysign(1, fc) == math.copysign(1, fb):
            b, fb = c, fc
            fa = fa / 2 if side == -1 else fa
            side = -1
        else:
            a, fa = c, fc
            fb = fb / 2 if side == 1 else fb
            side = 1
    return a / 2 + b / 2


class Factor(namedtuple("Factor", "log_coeffs count")):
    """A checked factor (log_coeffs, count) of a polynomial, with its cosine series.

    On the unit circle sum_n c_n exp(i n theta) = exp(i d theta / 2) F(theta),
    with F(theta) = sum_k w_k cos(k theta) and k = n - d/2 over the upper half
    of the palindrome; the pairs c_n, c_{d-n} are symmetrized because the
    builders are palindromic only to rounding.  Each form of F is formed once,
    on first read, for every zero set and series of the polynomial.
    """

    def __new__(cls, log_coeffs, count):
        log_coeffs = np.asarray(log_coeffs, dtype=float)
        if log_coeffs.ndim != 1 or not log_coeffs.size or not np.all(np.isfinite(log_coeffs)):
            raise ValueError("each factor must be a finite, non-empty 1-D array")
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"a factor's count must be an integer >= 1, got {count!r}")
        return super().__new__(cls, log_coeffs, count)

    @cached_property
    def terms(self):
        """(k, w) in extended precision, from c_n = exp(log_coeffs[n] - max) <= 1."""
        c = np.exp(self.log_coeffs - self.log_coeffs.max())
        d = len(c) - 1
        upper = np.arange((d + 1) // 2, d + 1)
        k = (upper - d / 2).astype(np.longdouble)
        w = (c[upper] + c[::-1][upper]).astype(np.longdouble)
        if d % 2 == 0:
            w[0] /= 2
        return k, w

    @cached_property
    def unit_terms(self):
        """(k, w) in float64, normalized to F(0) = sum w = 1."""
        k, w = self.terms
        return k.astype(float), (w / w.sum()).astype(float)

    @cached_property
    def scalar(self):
        """F(x)/F(0) at a scalar angle, summed over Python floats without numpy dispatch."""
        k, w = self.unit_terms
        terms, cos = list(zip(k.tolist(), w.tolist())), math.cos

        def F(x):
            total = 0.0
            for kk, wk in terms:
                total += wk * cos(kk * x)
            return total

        return F


def cosine_series(k, w, theta):
    """F(theta) = sum_k w_k cos(k theta) at an array of angles, summed term by term.

    It holds one array of the angles' size at a time.
    """
    return sum(wk * np.cos(kk * theta) for kk, wk in zip(k, w))


def _factor_zeros(factor):
    """Angles in (0, pi] of one factor's zeros, each simple, with pi for odd degree.

    Equal coefficients, 1 + z + ... + z^d, have the (d+1)-th roots of unity
    other than 1.  Otherwise the sign changes of the cosine series F on a grid
    are solved in extended precision.  Raises RootConvergenceError unless
    there are floor(d / 2) of them, as many as the zeros in (0, pi).
    """
    d = len(factor.log_coeffs) - 1
    if np.all(factor.log_coeffs == factor.log_coeffs[0]):
        return [2 * np.pi * (j / (d + 1)) for j in range(1, (d + 1) // 2 + 1)]
    k, w = factor.terms
    expected = d // 2
    theta = np.linspace(0.0, np.pi, _GRID_PER_DEGREE * (d + 1) + 1).astype(np.longdouble)
    for _ in range(_MAX_REFINEMENTS + 1):
        vals = cosine_series(k, w, theta)
        if d % 2:
            # in place of F(pi) = 0, F(pi - h) to first order, which has its sign
            vals[-1] = (theta[-1] - theta[-2]) * (w * k * np.sin(k * np.pi)).sum()
        change = np.flatnonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))
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
        if len(change) > expected:
            reason = "more than the factor has zeros, so its series is at rounding noise"
        else:
            reason = "the zeros are multiple, too close for the grid, or off the unit circle"
        raise RootConvergenceError(
            f"found {len(change)} of {expected} sign changes of the cosine series "
            f"on [0, pi] for degree {d}; {reason}"
        )
    # In longdouble this dot product sums the terms in cosine_series' order,
    # so F at an angle equals the matching element of a grid evaluation.
    F = lambda t: w @ np.cos(k * t)
    return [
        float(bracket_root(F, theta[i], theta[i + 1], vals[i], vals[i + 1], 1e-17))
        for i in change
    ] + [np.pi] * (d % 2)


def find_zeros(poly) -> ZeroSet:
    """All 2Ns roots of sum_n p_n z^n, clustered by multiplicity.

    One Counter keyed by angle adds up the counts of the factors that share a
    zero.  Shared zeros are equal doubles: pi, and 2*pi*(j/(d+1)), as equal
    fractions j/(d+1) round to one double.

    Raises RootConvergenceError when a factor's sign changes do not count
    its zeros, for example at a multiple root the bath's structure does not
    account for.
    """
    mult = Counter()
    for factor in poly.factors:
        for theta in _factor_zeros(factor):
            mult[theta] += factor.count
    clusters = list(mult.items())
    clusters += [(-theta, m) for theta, m in clusters if theta != np.pi]
    clusters.sort()
    return ZeroSet(clusters)
