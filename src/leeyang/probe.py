"""Probe-spin dynamics: the signal <(S+)^delta>(t) and its zero times.

Up to normalization and phase, the signal is the partition function at a
complex field.  With H = -sum_{i<j} J_ij m_i m_j - (h0 + lam sum_j m_j) S0z,
every field entering as -h S^z as in z = exp(-beta h), it factorizes as

    f(t) = <(S+)^delta>_0 * exp(-i h0 delta t) * F(lam delta t) / F(0),

where <(S+)^delta>_0 is the ladder overlap of the initial probe state and F
is the real cosine series of the partition polynomial, the same series whose
roots are the Lee-Yang zero angles.  F/F(0) is evaluated as the product of
the bath's factors (``PartitionPolynomial.factors``), each a cosine series
normalized to 1 at 0 and raised to its count, so near a zero its rounding
error is relative to its own value, not to F(0).  As each factor has only
simple zeros, every zero of any multiplicity is a sign change of one factor:
the same pass records each factor's sign changes on the grid, which
detection solves in the angle x = lam delta t and returns as x/(lam delta).
That solve evaluates the factor over Python floats, in double precision;
the predicted times come from the zero finder, which solves each factor in
extended precision (``zeros._cosine_roots``).  Detected zero times are
matched against those of the zero angles.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .partition import _power
from .spins import ProbeState, ladder_overlap
from .zeros import ZeroSet, bracket_root, cosine_series, cosine_terms


@dataclass(frozen=True)
class TimeSeries:
    """Sampled probe signal, its factors' sign changes, and everything to re-evaluate it."""

    lam: float
    delta: int
    h0: float
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    sign_changes: tuple = field(repr=False)  # per factor, each i with a sign change to i+1
    poly: object = field(repr=False)
    overlap: complex  # <(S+)^delta> of the initial probe state
    terms: tuple = field(repr=False)  # (k, w, count) per factor of F, each 1 at 0

    @property
    def period(self):
        return 2 * np.pi / (self.lam * self.delta)

    def evaluate(self, t):
        """Exact signal value at arbitrary time(s), not an interpolation."""
        t = np.asarray(t, dtype=float)
        phase = np.exp(-1j * self.h0 * self.delta * t)
        return self.overlap * phase * _amplitude(self.terms, self.lam * self.delta * t)


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


def _amplitude(terms, x):
    """F(x)/F(0), the product of the factors' cosine series raised to their counts."""
    return math.prod(_power(cosine_series(k, w, x), count) for k, w, count in terms)


def _float_cosine_series(k, w):
    """F(x) = sum_k w_k cos(k x) at a scalar angle, summed over Python floats.

    The terms are read into Python once, so each call is a loop of
    ``math.cos`` without numpy's per-call dispatch, about three times faster
    than ``cosine_series`` on a dozen terms.  It sums the terms in order in
    double precision, so on float64 terms it agrees with ``cosine_series``
    to rounding.
    """
    terms = list(zip(k.tolist(), w.tolist()))
    cos = math.cos

    def F(x):
        total = 0.0
        for kk, wk in terms:
            total += wk * cos(kk * x)
        return total

    return F


def expectation_series(
    poly, state: ProbeState, lam: float, delta: int, h0: float = 0.0,
    t_max: float = None, steps: int = 4096,
) -> TimeSeries:
    """Sample <(S+)^delta>(t) on a uniform grid.

    Defaults to one fundamental period [0, 2pi/(lam*delta)) with the endpoint
    excluded.  ``ladder_overlap`` checks delta against the probe's spin.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    overlap = ladder_overlap(state, delta)
    if not isinstance(steps, int) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if t_max is None:
        t_max = 2 * np.pi / (lam * delta)
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
    times = np.linspace(0.0, t_max, steps, endpoint=False)
    terms, amplitude, sign_changes = [], 1, []
    for log_coeffs, count in poly.factors:
        k, w = cosine_terms(np.exp(log_coeffs - log_coeffs.max()))
        k, w = k.astype(float), (w / w.sum()).astype(float)
        terms.append((k, w, count))
        g = cosine_series(k, w, lam * delta * times)
        amplitude = amplitude * _power(g, count)
        sign_changes.append(np.flatnonzero(np.signbit(g[:-1]) != np.signbit(g[1:])))
    values = overlap * np.exp(-1j * h0 * delta * times) * amplitude
    return TimeSeries(
        lam, delta, h0, times, values, tuple(sign_changes), poly, overlap, tuple(terms)
    )


def detect_zero_times(series: TimeSeries, magnitude_tol: float = 1e-6):
    """Zero times of the sampled signal, each refined once by exact re-evaluation.

    Every zero of F, touching or of any multiplicity, is a simple zero of one
    factor, so it is read off that factor's sign changes on the grid
    (``TimeSeries.sign_changes``), factor by factor.  A change between grid
    points i and i+1 is solved to 1e-14 in the angle x = lam*delta*t on
    [m-1, m+1], where m is the end with the smaller |F_f|; a change whose m
    is an end of the grid, or whose bracket ends share a sign, is skipped, and
    so is one whose bracket holds a zero x of an earlier factor with
    |F_f(x)| <= 64*len(k)*eps (F_f(0) = 1): that is the same zero, shared by
    both factors, as pi is by every odd-degree factor.  Each factor is
    evaluated with ``_float_cosine_series`` over the series' float64 terms.
    Zeros whose |F(x)|/F(0), from ``_amplitude`` on all solved angles at once,
    exceeds magnitude_tol are discarded.  Returns (x/(lam*delta), |f|
    residual) pairs in ascending time.
    """
    if not 0 < magnitude_tol < math.inf:
        raise ValueError(f"magnitude_tol must be finite and positive, got {magnitude_tol}")
    if len(series.times) < 3:
        raise ValueError("series too short for zero detection")
    if series.overlap == 0:
        raise ValueError(
            "probe state has no coherence: <(S+)^delta> = 0 at t = 0, so the "
            "signal vanishes identically and has no zero times"
        )
    rate, times, last = series.lam * series.delta, series.times, len(series.times) - 1

    def angle(i):  # as expectation_series sampled it
        return rate * times.item(i)

    solved = []  # ascending zeros of the factors walked so far
    for (k, w, _), changes in zip(series.terms, series.sign_changes):
        F, shared_tol = _float_cosine_series(k, w), 64 * len(k) * np.finfo(float).eps
        roots = []
        for i in changes.tolist():
            m = i if abs(F(angle(i))) <= abs(F(angle(i + 1))) else i + 1
            if not 0 < m < last:
                continue
            a, b = angle(m - 1), angle(m + 1)
            fa, fb = F(a), F(b)
            earlier = solved[bisect_left(solved, a):bisect_right(solved, b)]
            if fa * fb < 0 and all(abs(F(x)) > shared_tol for x in earlier):
                roots.append(bracket_root(F, a, b, fa, fb, 1e-14))
        # after the loop: every zero of F_f would pass the test against F_f itself
        solved = sorted(solved + roots)

    solved = np.array(solved)
    residuals = np.abs(_amplitude(series.terms, solved))
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
    fundamental period, is within the window are kept, one array operation
    per predicted time, and they are paired greedily, nearest first.
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
    # one time per cluster: a cluster's angle repeats by its multiplicity
    predicted = sorted(set(zeros.times(series.lam, series.delta).tolist()))

    detected = detect_zero_times(series, magnitude_tol)
    detected_times = np.array([t for t, _ in detected])
    pairs = []  # (distance, predicted index, detected index) within the window
    for i, p in enumerate(predicted):
        d = np.abs(p - detected_times) % period
        d = np.minimum(d, period - d)
        near = np.flatnonzero(d <= window)
        pairs += zip(d[near].tolist(), [i] * len(near), near.tolist())
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
