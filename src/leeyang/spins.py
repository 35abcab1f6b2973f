"""Exact half-integer spin bookkeeping and ladder-operator coefficients.

Spin magnitudes and projections are stored as doubled integers so that all
quantum-number arithmetic stays exact; floats only appear inside square roots.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class HalfInt:
    """A half-integer value ``doubled / 2`` stored as a doubled integer."""

    doubled: int

    def __float__(self):
        return self.doubled / 2

    def __str__(self):
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


def _check_magnitude(s: HalfInt):
    if not isinstance(s, HalfInt):
        raise TypeError("spin magnitude must be a HalfInt")
    if s.doubled < 1:
        raise ValueError(f"invalid spin magnitude {s}: must be >= 1/2")


def projections(s: HalfInt):
    """Projections m = -s, -s+1, ..., s of a spin of magnitude s."""
    _check_magnitude(s)
    return [HalfInt(d) for d in range(-s.doubled, s.doubled + 1, 2)]


def ladder_product_coeff(s0: HalfInt, l: HalfInt, delta: int) -> float:
    """Matrix element <l+delta| (S+)^delta |l> for a spin of magnitude s0.

    Equals the product over q = 1..delta of
    sqrt(s0(s0+1) - (l+q-1)(l+q)), computed with exact integer arithmetic
    in units of quarters.
    """
    _check_magnitude(s0)
    if not isinstance(delta, int) or delta < 1:
        raise ValueError(f"delta must be a positive integer, got {delta!r}")
    if delta > s0.doubled:
        raise ValueError(f"delta={delta} exceeds 2*s0={s0.doubled}")
    if l.doubled < -s0.doubled or l.doubled > s0.doubled - 2 * delta:
        raise ValueError(
            f"projection l={l} out of range [-{s0}, {s0}-{delta}] for delta={delta}"
        )
    d0, dl = s0.doubled, l.doubled
    prod = 1
    for q in range(1, delta + 1):
        # 4*[s0(s0+1) - (l+q-1)(l+q)], an exact integer the range check keeps >= 4*d0
        prod *= d0 * (d0 + 2) - (dl + 2 * q - 2) * (dl + 2 * q)
    return math.sqrt(float(prod)) / 2.0**delta


@dataclass(frozen=True)
class ProbeState:
    """Probe spin state with amplitudes a_m over the z-basis m = -s0..s0."""

    s0: HalfInt
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_magnitude(self.s0)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.s0.doubled + 1,):
            raise ValueError(
                f"expected {self.s0.doubled + 1} amplitudes, got {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: sum|a_m|^2 = {norm}")
        object.__setattr__(self, "amplitudes", amps)


def sx_top_eigenstate(s0: HalfInt) -> ProbeState:
    """Top eigenstate of the probe Sx operator (eigenvalue +s0).

    Closed binomial form: a_m = 2^{-s0} sqrt(C(2s0, s0+m)), all real and
    non-negative.
    """
    _check_magnitude(s0)
    d0 = s0.doubled
    amps = np.array(
        [math.sqrt(math.comb(d0, k)) * 2.0 ** (-d0 / 2) for k in range(d0 + 1)],
        dtype=complex,
    )
    return ProbeState(s0, amps)


def ladder_overlap(state: ProbeState, delta: int) -> complex:
    """Sum over l of a_l a*_{l+delta} <l+delta|(S+)^delta|l> for the state."""
    d0 = state.s0.doubled
    if not isinstance(delta, int) or delta < 1:
        raise ValueError(f"delta must be a positive integer, got {delta!r}")
    if delta > d0:
        raise ValueError(f"delta={delta} exceeds 2*s0={d0}: operator annihilates")
    amps = state.amplitudes
    total = 0.0 + 0.0j
    for k in range(d0 + 1 - delta):
        l = HalfInt(-d0 + 2 * k)
        total += amps[k] * np.conj(amps[k + delta]) * ladder_product_coeff(
            state.s0, l, delta
        )
    return complex(total)
