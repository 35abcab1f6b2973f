"""Probe-spin dynamics: the signal <(S+)^delta>(t) and its zero times.

Up to normalization and phase, the signal is the partition function at a
complex field.  With H = -sum_{i<j} J_ij m_i m_j - (h0 + lam sum_j m_j) S0z,
every field entering as -h S^z as in z = exp(-beta h), it factorizes as

    f(t) = <(S+)^delta>_0 * exp(-i h0 delta t) * F(lam delta t) / F(0),

where <(S+)^delta>_0 is the ladder overlap of the initial probe state and F
is the real cosine series of the partition polynomial, the same series whose
roots are the Lee-Yang zero angles.  Detected zero times of the signal are
matched against the times predicted from those angles.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .spins import ProbeState, ladder_overlap
from .zeros import ZeroSet, bracket_root, cosine_series, cosine_terms

_EPS = np.finfo(float).eps
# |F|/F(0) at or below this is rounding noise: grid minima of |F| with only
# such values between them belong to one zero.
_NOISE_FLOOR = 1e4 * _EPS


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
    terms: tuple = field(repr=False)  # (k, w) of F in double precision, F(0) = 1

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


def _signal(overlap, terms, lam, delta, h0, t):
    t = np.asarray(t, dtype=float)
    return overlap * np.exp(-1j * h0 * delta * t) * cosine_series(*terms, lam * delta * t)


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
    k, w = cosine_terms(poly.coeffs())
    terms = (k.astype(float), (w / w.sum()).astype(float))
    overlap = ladder_overlap(state, delta)
    times = np.linspace(0.0, t_max, steps, endpoint=False)
    values = _signal(overlap, terms, lam, delta, h0, times)
    return TimeSeries(lam, delta, h0, times, values, poly, overlap, terms)


def _balance(F, t0, h, step, h_cap):
    """Center of a multiple zero of F near t0.

    Solves |F(tau + h)| = |F(tau - h)| at an offset h where F is well above
    rounding noise, then removes the leading O(h^2) bias by Richardson
    extrapolation over h and h/2.  Within h of the zero the balance function
    is monotone and nearly linear, so three secant steps from t0 -+ step/2
    solve it; t0 must lie within step of the zero.
    """
    while h < h_cap and abs(F(t0 + h)) + abs(F(t0 - h)) < 2e-8:
        h *= 2

    def balance_point(center, h):
        diff = lambda tau: abs(F(tau + h)) - abs(F(tau - h))
        a, b = center - step / 2, center + step / 2
        da, db = diff(a), diff(b)
        for _ in range(3):
            if da == db:
                break
            a, da, b = b, db, b - db * (b - a) / (db - da)
            db = diff(b)
        return b

    t1 = balance_point(t0, h)
    return (4 * balance_point(t1, h / 2) - t1) / 3


def detect_zero_times(series: TimeSeries, magnitude_tol: float = 1e-6):
    """Zero times of the sampled signal, each refined once by exact re-evaluation.

    The real amplitude F(lam*delta*t)/F(0) is recovered from the samples by
    dividing out the overlap and the h0 phase.  Grid minima of |F| with only
    rounding noise between them form one zero.  A simple sign change is solved
    as a bracketed root; every multiple zero, touching or a sign change of odd
    multiplicity >= 3, is centered with the balance method.  Zeros whose
    refined |F|/F(0) exceeds magnitude_tol are discarded.  Returns
    (time, |f| residual) pairs in ascending time.
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
    amp = (series.values / (series.overlap * phase)).real
    mags = np.abs(amp)
    k, w = series.terms
    rate = series.lam * series.delta
    F = lambda t: cosine_series(k, w, rate * t)

    groups = []  # [first, last] grid minima of one zero
    for i in np.flatnonzero((mags[1:-1] < mags[:-2]) & (mags[1:-1] <= mags[2:])) + 1:
        if groups and mags[groups[-1][1]:i + 1].max() <= _NOISE_FLOOR:
            groups[-1][1] = i
        else:
            groups.append([i, i])

    found = []
    for first, last in groups:
        a, b = times[first - 1], times[last + 1]
        fa, fb = amp[first - 1], amp[last + 1]
        t, h = (times[first] + times[last]) / 2, (b - a) / 2
        if fa * fb >= 0:
            t = _balance(F, t, h, h, series.period / 16)
        elif all(abs(F(t + 4 * d)) > 4 * abs(F(t + 2 * d)) for d in (h, -h)):
            # |F| grows like |tau - t|^m: from 2h to 4h away by 2^m, 2 for a
            # simple zero, 8 for a triple one, on both sides unlike a neighbour's
            t = _balance(F, t, 4 * h, h, series.period / 16)
        else:
            t = bracket_root(F, a, b, fa, fb, 1e-14)
        residual = abs(F(t))
        if residual <= magnitude_tol:
            found.append((float(t), float(residual * abs(series.overlap))))
    return found


def matching_window(max_multiplicity, base=1e-6):
    """Widen the match window for degenerate zeros.

    A touching zero of multiplicity m flattens the signal to |t - t_n|^m, so
    its time cannot be localized from signal values better than roughly
    eps^(1/m); simple and double zeros still resolve to well below 1e-6.
    """
    if max_multiplicity <= 2:
        return base
    return max(base, 20 * _EPS ** (1.0 / max_multiplicity))


def _circular_distance(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


def correlate(
    zeros: ZeroSet, series: TimeSeries, window: float = 1e-6,
    magnitude_tol: float = 1e-6, lam: float = None, delta: int = None,
) -> CorrelationReport:
    """Match detected zero times against the times predicted from the roots.

    The window is widened by the zeros' largest multiplicity
    (matching_window).  Each cluster of roots predicts one time, and the
    pairing is greedy nearest-neighbor; distances wrap around the fundamental
    period.
    """
    if lam is not None and not math.isclose(lam, series.lam, rel_tol=0, abs_tol=0):
        raise ValueError(
            f"lambda metadata mismatch: series has {series.lam}, expected {lam}"
        )
    if delta is not None and delta != series.delta:
        raise ValueError(
            f"delta metadata mismatch: series has {series.delta}, expected {delta}"
        )

    window = matching_window(max(m for _, m in zeros.clusters), window)
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
