"""Exact half-integer spin bookkeeping and ladder-operator coefficients.

Spin magnitudes and projections are stored as doubled integers so that all
quantum-number arithmetic stays exact; each matrix element is the root of an exact
ratio, <l+delta|(S+)^delta|l> = sqrt((2s0-k)! (k+delta)! / ((2s0-k-delta)! k!)) with
k = s0 + l, held as (r, j) for r * 2**j so that it never leaves the float range.
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


def _ladder(d0, k, delta):
    """<l+delta|(S+)^delta|l> = r * 2**j of the spin s0 = d0/2 at k = s0 + l, as (r, j).

    p = perm(2s0 - k, delta) perm(k + delta, delta) is an exact integer; past
    the float range it is divided by 4**j, so r = sqrt(p / 4**j) is below 2**501.
    """
    p = math.perm(d0 - k, delta) * math.perm(k + delta, delta)
    j = max(0, p.bit_length() - 1000) // 2
    return math.sqrt(p / 4**j), j


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
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state not normalized: sum|a_m|^2 = {norm}")
        object.__setattr__(self, "amplitudes", amps)


def sx_top_eigenstate(s0: HalfInt) -> ProbeState:
    """Top eigenstate of the probe Sx operator (eigenvalue +s0).

    Closed binomial form: a_m = 2^{-s0} sqrt(C(2s0, s0+m)), all real and
    non-negative: the root of that C over 2^(2s0 - 2s0 mod 2), times 2^{-1/2} for odd 2s0.
    """
    _check_magnitude(s0)
    d0, odd = s0.doubled, s0.doubled % 2
    amps = [math.sqrt(math.comb(d0, k) / 2 ** (d0 - odd)) * 0.5 ** (odd / 2) for k in range(d0 + 1)]
    return ProbeState(s0, np.array(amps, dtype=complex))


def ladder_overlap(state: ProbeState, delta: int) -> complex:
    """Sum over l of a_l a*_{l+delta} <l+delta|(S+)^delta|l>; ValueError past the float range.

    Each term is summed scaled by 2**-top, top the largest j of the matrix
    elements r * 2**j, and the sum is scaled back once.
    """
    d0 = state.s0.doubled
    if not isinstance(delta, int) or delta < 1:
        raise ValueError(f"delta must be a positive integer, got {delta!r}")
    if delta > d0:
        raise ValueError(f"delta={delta} exceeds 2*s0={d0}: operator annihilates")
    amps = state.amplitudes.tolist()
    elements = [_ladder(d0, k, delta) for k in range(d0 + 1 - delta)]
    top = max(j for _, j in elements)
    total = 0.0 + 0.0j
    for k, (r, j) in enumerate(elements):
        total += amps[k] * amps[k + delta].conjugate() * math.ldexp(r, j - top)
    try:
        return complex(math.ldexp(total.real, top), math.ldexp(total.imag, top))
    except OverflowError:
        raise ValueError(f"<(S+)^{delta}> of a spin 2s0 = {d0} exceeds the float range") from None
