"""Probe-spin dynamics: the signal <(S+)^delta>(t) and its zero times.

The signal factorizes into the complex-field partition ratio evaluated at
z = exp(-i*lam*delta*t) (times the sector phase exp(i*Ns*lam*delta*t)), a
probe-field phase, and a time-independent ladder overlap of the initial
state.  Detected zero times of the signal are matched against the times
predicted from the Lee-Yang zero angles.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .partition import eval_ratio
from .spins import ProbeState, ladder_overlap
from .zeros import ZeroSet, bracket_root, predicted_zero_times

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TimeSeries:
    """Sampled probe signal plus everything needed to re-evaluate it exactly."""

    lam: float
    delta: int
    h0: float
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    poly: object = field(repr=False, default=None)
    state: object = field(repr=False, default=None)

    @property
    def period(self):
        return 2 * np.pi / (self.lam * self.delta)

    def evaluate(self, t):
        """Exact signal value at arbitrary time(s), not an interpolation."""
        return _signal(self.poly, self.state, self.lam, self.delta, self.h0, t)


@dataclass(frozen=True)
class CorrelationReport:
    """Pairing of predicted and detected zero times within a matching window."""

    predicted: list  # merged predicted times
    detected: list  # (time, |f| residual)
    matches: list  # (predicted, detected, deviation)
    max_deviation: float
    unmatched_predicted: list
    unmatched_detected: list
    window: float

    @property
    def all_matched(self):
        return not self.unmatched_predicted


def _signal(poly, state, lam, delta, h0, t):
    t = np.asarray(t, dtype=float)
    ratio = eval_ratio(poly, np.exp(-1j * lam * delta * t))
    ns = poly.two_ns / 2
    phase = np.exp(1j * (ns * lam - h0) * delta * t)
    return phase * ratio * ladder_overlap(state, delta)


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
    times = np.linspace(0.0, t_max, steps, endpoint=False)
    values = _signal(poly, state, lam, delta, h0, times)
    return TimeSeries(lam, delta, h0, times, values, poly, state)


def _golden_min(f, a, b, tol=1e-13):
    invphi = (math.sqrt(5) - 1) / 2
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def _balance_refine(g, t_c, halfwidth, period, scale):
    """Center a touching (even-multiplicity) zero by balancing |f(t +/- h)|.

    Solves |f(tau+h)| = |f(tau-h)| at a sampling offset h where the signal is
    well above rounding noise, then removes the leading O(h^2) bias by
    Richardson extrapolation over h and h/2.
    """
    h = max(1e-6, halfwidth)
    h_cap = period / 16
    while h < h_cap and 0.5 * (g(t_c + h) + g(t_c - h)) < 1e-8 * scale:
        h *= 2

    def balance_point(h):
        diff = lambda tau: g(tau + h) - g(tau - h)
        lo, hi = t_c - h / 2, t_c + h / 2
        dlo, dhi = diff(lo), diff(hi)
        if dlo == 0:
            return lo
        if dhi == 0 or dlo * dhi > 0:
            return None
        return bracket_root(diff, lo, hi, dlo, dhi, 1e-14)

    t1 = balance_point(h)
    t2 = balance_point(h / 2)
    if t1 is None or t2 is None:
        return t2 if t2 is not None else (t1 if t1 is not None else t_c)
    return (4 * t2 - t1) / 3


def detect_zero_times(series: TimeSeries, magnitude_tol: float = 1e-6):
    """Zero times of the sampled signal, refined by exact re-evaluation.

    Each grid local minimum of |f| is a candidate.  Where a real signal
    changes sign across it, the zero is solved as a bracketed root; otherwise
    it is a touching zero, located by golden-section search on |f| and
    centered with the balance method.  Candidates whose refined residual
    |f|/|f(0)| exceeds magnitude_tol are discarded.
    """
    if magnitude_tol <= 0:
        raise ValueError(f"magnitude_tol must be positive, got {magnitude_tol}")
    if len(series.times) < 3:
        raise ValueError("series too short for zero detection")
    f = series.evaluate
    g = lambda t: abs(complex(f(t)))
    mags = np.abs(series.values)
    scale = abs(complex(f(0.0)))
    if scale == 0:
        scale = float(mags.max()) or 1.0
    real_signal = float(np.max(np.abs(series.values.imag))) < 1e-9 * max(
        scale, float(mags.max())
    )

    found = []
    for i in range(1, len(mags) - 1):
        if not (mags[i] <= mags[i - 1] and mags[i] <= mags[i + 1]):
            continue
        a, b = float(series.times[i - 1]), float(series.times[i + 1])
        ra, rb = series.values[i - 1].real, series.values[i + 1].real
        if real_signal and ra * rb < 0:
            refined = bracket_root(lambda t: float(f(t).real), a, b, ra, rb, 1e-14)
        else:
            t_c = _golden_min(g, a, b)
            refined = _balance_refine(g, t_c, (b - a) / 2, series.period, scale)
        residual = g(refined)
        if residual <= magnitude_tol * scale:
            found.append((float(refined), float(residual)))

    found.sort()

    noise_floor = 1e4 * _EPS * scale

    def same_valley(t1, t2):
        # one flat (high-multiplicity) zero can seed several candidates; they
        # belong together iff the signal stays at rounding noise in between
        if abs(t2 - t1) < 1e-7 * series.period:
            return True
        probes = np.linspace(t1, t2, 9)[1:-1]
        return all(g(t) <= noise_floor for t in probes)

    groups = []
    for t, r in found:
        if groups and same_valley(groups[-1][-1][0], t):
            groups[-1].append((t, r))
        else:
            groups.append([(t, r)])

    merged = []
    for group in groups:
        if len(group) == 1:
            merged.append(group[0])
            continue
        lo, hi = group[0][0], group[-1][0]
        center = _balance_refine(g, 0.5 * (lo + hi), hi - lo, series.period, scale)
        merged.append((float(center), float(g(center))))
    return merged


def _circular_distance(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


def correlate(
    zeros: ZeroSet, series: TimeSeries, window: float = 1e-6,
    magnitude_tol: float = 1e-6, lam: float = None, delta: int = None,
) -> CorrelationReport:
    """Match detected zero times against the times predicted from the roots.

    Coincident predictions (degenerate roots) are merged before the greedy
    nearest-neighbor pairing; distances wrap around the fundamental period.
    """
    if lam is not None and not math.isclose(lam, series.lam, rel_tol=0, abs_tol=0):
        raise ValueError(
            f"lambda metadata mismatch: series has {series.lam}, expected {lam}"
        )
    if delta is not None and delta != series.delta:
        raise ValueError(
            f"delta metadata mismatch: series has {series.delta}, expected {delta}"
        )
    if series.h0 != 0:
        raise ValueError("correlate requires a series computed with h0 = 0")

    period = series.period
    raw = predicted_zero_times(zeros, series.lam, series.delta)
    predicted = []
    group = [raw[0]]
    for t in raw[1:]:
        if t - group[-1] < 1e-6:
            group.append(t)
        else:
            predicted.append(float(np.mean(group)))
            group = [t]
    predicted.append(float(np.mean(group)))

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
