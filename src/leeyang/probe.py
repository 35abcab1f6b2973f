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
error is relative to its own value, not to F(0).  Each factor has only
simple zeros, so every zero of the signal, of any multiplicity, is a sign
change of one factor.  Detected zero times are matched against the times
predicted from the zero angles.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .spins import ProbeState, ladder_overlap
from .zeros import ZeroSet, bracket_root, cosine_series, cosine_terms


@dataclass(frozen=True)
class TimeSeries:
    """Sampled probe signal plus everything needed to re-evaluate it exactly."""

    lam: float
    delta: int
    h0: float
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    poly: object = field(repr=False)
    overlap: complex  # <(S+)^delta> of the initial probe state
    terms: tuple = field(repr=False)  # (k, w, count) per factor of F, each 1 at 0

    @property
    def period(self):
        return 2 * np.pi / (self.lam * self.delta)

    def evaluate(self, t):
        """Exact signal value at arbitrary time(s), not an interpolation."""
        return _signal(self.overlap, self.terms, self.lam, self.delta, self.h0, t)


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
    return math.prod(cosine_series(k, w, x) ** count for k, w, count in terms)


def _signal(overlap, terms, lam, delta, h0, t):
    t = np.asarray(t, dtype=float)
    return overlap * np.exp(-1j * h0 * delta * t) * _amplitude(terms, lam * delta * t)


def expectation_series(
    poly, state: ProbeState, lam: float, delta: int, h0: float = 0.0,
    t_max: float = None, steps: int = 4096,
) -> TimeSeries:
    """Sample <(S+)^delta>(t) on a uniform grid.

    Defaults to one fundamental period [0, 2pi/(lam*delta)) with the endpoint
    excluded.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if not isinstance(delta, int) or delta < 1:
        raise ValueError(f"delta must be a positive integer, got {delta!r}")
    if delta > state.s0.doubled:
        raise ValueError(
            f"delta={delta} exceeds 2*s0={state.s0.doubled}: the operator power "
            "annihilates every state"
        )
    if not isinstance(steps, int) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if t_max is None:
        t_max = 2 * np.pi / (lam * delta)
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    terms = []
    for log_coeffs, count in poly.factors:
        k, w = cosine_terms(np.exp(log_coeffs - log_coeffs.max()))
        terms.append((k.astype(float), (w / w.sum()).astype(float), count))
    terms = tuple(terms)
    overlap = ladder_overlap(state, delta)
    times = np.linspace(0.0, t_max, steps, endpoint=False)
    values = _signal(overlap, terms, lam, delta, h0, times)
    return TimeSeries(lam, delta, h0, times, values, poly, overlap, terms)


def detect_zero_times(series: TimeSeries, magnitude_tol: float = 1e-6):
    """Zero times of the sampled signal, each refined once by exact re-evaluation.

    The real amplitude F(lam*delta*t)/F(0) is recovered from the samples by
    dividing out the overlap and the h0 phase.  At each grid minimum of |F|
    the first factor whose sign differs at the two neighbouring grid points
    is solved there as a bracketed root; that zero of F may be touching or of
    any multiplicity.  Minima where no factor changes sign are not zeros.
    Zeros whose refined |F|/F(0) exceeds magnitude_tol are discarded.
    Returns (time, |f| residual) pairs in ascending time.
    """
    if magnitude_tol <= 0:
        raise ValueError(f"magnitude_tol must be positive, got {magnitude_tol}")
    if len(series.times) < 3:
        raise ValueError("series too short for zero detection")
    if series.overlap == 0:
        raise ValueError(
            "probe state has no coherence: <(S+)^delta> = 0 at t = 0, so the "
            "signal vanishes identically and has no zero times"
        )
    times = series.times
    phase = np.exp(-1j * series.h0 * series.delta * times)
    mags = np.abs((series.values / (series.overlap * phase)).real)
    rate = series.lam * series.delta

    found = []
    for i in np.flatnonzero((mags[1:-1] < mags[:-2]) & (mags[1:-1] <= mags[2:])) + 1:
        a, b = times[i - 1], times[i + 1]
        for k, w, _ in series.terms:
            F = lambda t: cosine_series(k, w, rate * t)
            fa, fb = F(a), F(b)
            if fa * fb < 0:
                t = bracket_root(F, a, b, fa, fb, 1e-14)
                break
        else:
            continue
        residual = abs(_amplitude(series.terms, rate * t))
        if residual <= magnitude_tol:
            found.append((float(t), float(residual * abs(series.overlap))))
    return found


def _circular_distance(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


def correlate(
    zeros: ZeroSet, series: TimeSeries, window: float = 1e-6,
    magnitude_tol: float = 1e-6, lam: float = None, delta: int = None,
) -> CorrelationReport:
    """Match detected zero times against the times predicted from the roots.

    The window is the same at every multiplicity.  Each cluster of roots
    predicts one time, and the pairing is greedy nearest-neighbor; distances
    wrap around the fundamental period.
    """
    if lam is not None and not math.isclose(lam, series.lam, rel_tol=0, abs_tol=0):
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

    pairs = sorted(
        (( _circular_distance(p, t, period), i, j)
         for i, p in enumerate(predicted)
         for j, (t, _) in enumerate(detected)),
    )
    used_p, used_d, matches = set(), set(), []
    for dev, i, j in pairs:
        if dev > window or i in used_p or j in used_d:
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
