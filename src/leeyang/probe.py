"""Probe-spin dynamics: the signal <(S+)^delta>(t) and its zero times.

Up to normalization and phase, the signal is the partition function at a
complex field.  With H = -sum_{i<j} J_ij m_i m_j - (h0 + lam sum_j m_j) S0z,
every field entering as -h S^z as in z = exp(-beta h), it factorizes as

    f(t) = <(S+)^delta>_0 * exp(-i h0 delta t) * F(lam delta t) / F(0),

where <(S+)^delta>_0 is the ladder overlap of the initial probe state and F
is the real cosine series of the partition polynomial, the same series whose
roots are the Lee-Yang zero angles.  F/F(0) is evaluated as the product of
the bath's factors (``PartitionPolynomial.factors``), each its cosine series
normalized to 1 at 0 (``Factor.unit_terms``) raised to its count, so near a
zero its rounding error is relative to its own value, not to F(0).  As each
factor has only simple zeros, every zero of any multiplicity is a sign change
of one factor: a change of sign bit between two consecutive samples, t_max the
last.  The sampling pass keeps those two samples and the factor's values there
as its bracket; detection solves each bracket in x = lam delta t over Python
floats (``Factor.scalar``) and returns x/(lam delta).  The predicted times come
from the zero finder, which solves each factor on its extended-precision
``Factor.terms``.

The series keeps F/F(0) at each sample; the complex signal
``TimeSeries.values`` is formed on first read, so detection and
correlation never hold it.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .partition import _power
from .spins import ProbeState, ladder_overlap
from .zeros import ZeroSet, bracket_root, cosine_series, fundamental_period


_PAIR_BLOCK = 2**16  # most predicted x detected distances that correlate holds at once


@dataclass(frozen=True)
class TimeSeries:
    """Sampled probe signal, its factors' sign-change brackets, and all to re-evaluate it.

    ``amplitude`` holds the real F/F(0) at each sample; the complex signal
    ``values`` is formed from it on first read, so a run that only detects
    and correlates zeros never holds it.  ``poly.factors`` re-evaluate it.
    """

    lam: float
    delta: int
    h0: float
    times: np.ndarray = field(repr=False)
    amplitude: np.ndarray = field(repr=False)  # F/F(0) at each sample
    brackets: tuple = field(repr=False)  # per factor, (a, b, F_f(a), F_f(b)) per sign change
    poly: object = field(repr=False)
    overlap: complex  # <(S+)^delta> of the initial probe state

    @cached_property
    def values(self):
        """The complex signal at each sample, <(S+)^delta>_0 * exp(-i h0 delta t) * F/F(0)."""
        return self.overlap * np.exp(-1j * self.h0 * self.delta * self.times) * self.amplitude

    @property
    def period(self):
        return fundamental_period(self.lam, self.delta)

    def evaluate(self, t):
        """Exact signal value at arbitrary time(s), not an interpolation."""
        t = np.asarray(t, dtype=float)
        phase = np.exp(-1j * self.h0 * self.delta * t)
        return self.overlap * phase * _amplitude(self.poly.factors, self.lam * self.delta * t)


@dataclass(frozen=True)
class CorrelationReport:
    """Pairing of predicted and detected zero times within a matching window."""

    predicted: list  # one time per root cluster, ascending
    detected: list  # (time, |f| residual)
    matches: list  # (predicted, detected, deviation)
    max_deviation: float
    unmatched_predicted: list
    unmatched_detected: list
    window: float

    @property
    def all_matched(self):
        return not self.unmatched_predicted


def _amplitude(factors, x):
    """F(x)/F(0), the product of the factors' cosine series raised to their counts."""
    return math.prod(_power(cosine_series(*f.unit_terms, x), f.count) for f in factors)


def expectation_series(
    poly, state: ProbeState, lam: float, delta: int, h0: float = 0.0,
    t_max: float = None, steps: int = 4096,
) -> TimeSeries:
    """Sample <(S+)^delta>(t) on a uniform grid.

    Defaults to one fundamental period [0, 2pi/(lam*delta)) with the endpoint
    excluded.  The factors are also evaluated at t_max, and each sign change of
    a factor is bracketed by the two samples that hold it, the interval after
    the last sample included.  ``ladder_overlap`` checks delta against the probe.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    overlap = ladder_overlap(state, delta)
    if not isinstance(steps, int) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if t_max is None:
        t_max = fundamental_period(lam, delta)
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    # The largest phases sampled, as Python floats, which overflow to inf without
    # a warning, multiplied in the samples' order (lam * delta first); NaN fails too.
    for name, phase in [
        ("(2Ns/2)*lam*delta*t_max", float(lam) * delta * float(t_max) * (poly.two_ns / 2)),
        ("|h0|*delta*t_max", abs(float(h0)) * delta * float(t_max)),
    ]:
        if not phase < math.inf:
            raise ValueError(f"the sample phase {name} must be finite, got {phase}")
    grid = np.linspace(0.0, t_max, steps + 1)  # the samples, then t_max
    x = lam * delta * grid
    amplitude, brackets = 1, []
    for factor in poly.factors:
        g = cosine_series(*factor.unit_terms, x)
        amplitude = amplitude * _power(g[:-1], factor.count)
        i = np.flatnonzero(np.signbit(g[:-1]) != np.signbit(g[1:]))
        brackets.append((x[i], x[i + 1], g[i], g[i + 1]))
    return TimeSeries(lam, delta, h0, grid[:-1], amplitude, tuple(brackets), poly, overlap)


def detect_zero_times(series: TimeSeries, magnitude_tol: float = 1e-6):
    """Zero times of the sampled signal, each refined once by exact re-evaluation.

    Every zero of F, touching or of any multiplicity, is a simple zero of one
    factor, so it is read off that factor's brackets from the sampling pass
    (``TimeSeries.brackets``), with the factor's values at their ends, factor by
    factor.  Each bracket is solved to 1e-14 in the angle x = lam*delta*t unless
    it holds a zero x of an earlier factor with |F_f(x)| <= 64*len(k)*eps
    (F_f(0) = 1): that is the same zero, shared by both factors, as pi is by
    every odd-degree factor.  Each factor F_f of ``series.poly.factors`` is
    evaluated by ``Factor.scalar`` over its float64 ``unit_terms`` (k, w).
    Zeros whose |F(x)|/F(0), from ``_amplitude`` on all solved angles at once,
    exceeds magnitude_tol are discarded.  Returns (x/(lam*delta), |f| residual)
    pairs in ascending time.
    """
    if not 0 < magnitude_tol < math.inf:
        raise ValueError(f"magnitude_tol must be finite and positive, got {magnitude_tol}")
    if series.overlap == 0:
        raise ValueError(
            "probe state has no coherence: <(S+)^delta> = 0 at t = 0, so the "
            "signal vanishes identically and has no zero times"
        )
    rate = series.lam * series.delta
    solved = []  # ascending zeros of the factors walked so far
    for factor, ends in zip(series.poly.factors, series.brackets):
        F, shared_tol = factor.scalar, 64 * len(factor.unit_terms[0]) * np.finfo(float).eps
        roots = []
        for a, b, fa, fb in zip(*(e.tolist() for e in ends)):
            earlier = solved[bisect_left(solved, a):bisect_right(solved, b)]
            if all(abs(F(x)) > shared_tol for x in earlier):
                roots.append(bracket_root(F, a, b, fa, fb, 1e-14))
        # after the loop: every zero of F_f would pass the test against F_f itself
        solved = sorted(solved + roots)

    solved = np.array(solved)
    residuals = np.abs(_amplitude(series.poly.factors, solved))
    keep = residuals <= magnitude_tol
    return list(zip(
        (solved[keep] / rate).tolist(), (residuals[keep] * abs(series.overlap)).tolist()
    ))


def correlate(
    zeros: ZeroSet, series: TimeSeries, window: float = 1e-6,
    magnitude_tol: float = 1e-6, lam: float = None, delta: int = None,
) -> CorrelationReport:
    """Match detected zero times against the times predicted from the roots.

    The window is the same at every multiplicity.  Each cluster of roots
    predicts one time.  Only pairs whose distance, wrapped around the
    fundamental period, is within the window are kept, and they are paired
    greedily, nearest first.  The distances are formed one block of
    predicted times at a time, as a broadcast matrix of at most
    ``_PAIR_BLOCK`` entries (one row if a row alone is longer), so memory
    stays bounded however many zeros there are.
    """
    if not 0 < window < math.inf:
        raise ValueError(f"window must be finite and positive, got {window}")
    if lam is not None and lam != series.lam:
        raise ValueError(
            f"lambda metadata mismatch: series has {series.lam}, expected {lam}"
        )
    if delta is not None and delta != series.delta:
        raise ValueError(
            f"delta metadata mismatch: series has {series.delta}, expected {delta}"
        )

    period = series.period
    predicted = sorted(zeros.cluster_times(series.lam, series.delta).tolist())

    detected = detect_zero_times(series, magnitude_tol)
    detected_times = np.array([t for t, _ in detected])
    predicted_column = np.array(predicted)[:, None]
    pairs = []  # (distance, predicted index, detected index) within the window
    rows = max(1, _PAIR_BLOCK // max(1, len(detected)))
    for lo in range(0, len(predicted), rows):
        d = np.abs(predicted_column[lo:lo + rows] - detected_times) % period
        d = np.minimum(d, period - d)
        i, j = np.nonzero(d <= window)
        pairs += zip(d[i, j].tolist(), (i + lo).tolist(), j.tolist())
    used_p, used_d, matches = set(), set(), []
    for dev, i, j in sorted(pairs):
        if i in used_p or j in used_d:
            continue
        used_p.add(i)
        used_d.add(j)
        matches.append((predicted[i], detected[j][0], dev))
    matches.sort()
    return CorrelationReport(
        predicted=predicted,
        detected=detected,
        matches=matches,
        max_deviation=max((m[2] for m in matches), default=0.0),
        unmatched_predicted=[p for i, p in enumerate(predicted) if i not in used_p],
        unmatched_detected=[d for j, d in enumerate(detected) if j not in used_d],
        window=window,
    )
