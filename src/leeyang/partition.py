"""Log-domain construction of the zero-field partition polynomial.

Each builder returns the coefficients p_n of Z(beta, h) / e^{beta*N*s*h} as a
polynomial in z = exp(-beta*h), with p_n the zero-field partition function of
the sector where the total projection equals N*s - n.  Coefficients are kept
as natural logs because the Boltzmann weights span hundreds of orders of
magnitude at low temperature.

All three builders are one operation: a power of a small matrix polynomial,
taken in the log domain by repeated squaring (O(log N) products).  The
long-range model is the N-th power of the 1x1 single-site factor, the ring is
the trace of the N-th power of its transfer matrix, and a split exact bath is
the product of its block factors, each raised to its count.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .spins import HalfInt, projections

ENUMERATION_CAP = 2_000_000
# Configurations decoded at a time by build_exact.
_ENUMERATION_CHUNK = 2**16


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` without overflow; all -inf gives -inf."""
    peak = np.max(a, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        out = peak + np.log(np.exp(a - peak).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


@dataclass(frozen=True)
class PartitionPolynomial:
    """Degree-2Ns polynomial in z with positive coefficients, stored in logs.

    ``factors`` is the polynomial's factorization by the bath's structure, as
    (log_coeffs, count) pairs: the product of each factor raised to its count.
    Builders fill it in when the bath splits into independent parts (coupling
    components, or isolated spins at beta*J = 0); it is empty when the
    polynomial is a single factor.
    """

    two_ns: int
    beta: float
    log_coeffs: np.ndarray = field(repr=False)
    model_tag: dict = field(default_factory=dict)
    factors: tuple = ()

    def __post_init__(self):
        lc = np.asarray(self.log_coeffs, dtype=float)
        if lc.shape != (self.two_ns + 1,):
            raise ValueError(f"expected {self.two_ns + 1} coefficients, got {lc.shape}")
        if not np.all(np.isfinite(lc)):
            raise ValueError("non-finite log coefficient encountered")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        object.__setattr__(self, "log_coeffs", lc)

    @property
    def degree(self):
        return self.two_ns

    def coeffs(self) -> np.ndarray:
        """Max-normalized linear coefficients c_n = exp(log p_n - max log p)."""
        return np.exp(self.log_coeffs - self.log_coeffs.max())


def _validate_ferromagnetic(J, name="J"):
    if J < 0:
        raise ValueError(f"{name} must be non-negative (ferromagnetic), got {J}")


def _validate_beta(beta):
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")


def build_exact(spins, couplings, beta) -> PartitionPolynomial:
    """Exact enumeration over all projection configurations.

    ``couplings[i][j]`` is the pair coupling J_ij (units J, zero diagonal);
    the configuration weight is exp(beta * sum_{i<j} J_ij m_i m_j).  Each
    connected component of the beta*J > 0 coupling graph is enumerated on its
    own; components with equal polynomials (for example mirror images) form
    one factor, and the polynomial is the product of the factors.
    """
    _validate_beta(beta)
    spins = list(spins)
    if not spins:
        raise ValueError("need at least one bath spin")
    n = len(spins)
    J = np.asarray(couplings, dtype=float)
    if J.shape != (n, n):
        raise ValueError(f"couplings must be {n}x{n}, got {J.shape}")
    if not np.allclose(J, J.T, rtol=0, atol=1e-12):
        raise ValueError("couplings matrix must be symmetric")
    if np.any(np.abs(np.diag(J)) > 0):
        raise ValueError("couplings matrix must have zero diagonal")
    if np.any(J < 0):
        raise ValueError("couplings must be non-negative (ferromagnetic)")

    count = 1
    for s in spins:
        count *= s.doubled + 1
    if count > ENUMERATION_CAP:
        raise ValueError(
            f"{count} configurations exceed the enumeration cap {ENUMERATION_CAP}"
        )

    groups = []  # [log_coeffs, count] per distinct block polynomial
    for idx in _coupling_blocks(beta * J > 0):
        lc = _enumerate([spins[i] for i in idx], J[np.ix_(idx, idx)], beta)
        for group in groups:
            if group[0].shape == lc.shape and np.all(
                np.abs(group[0] - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc))
            ):
                group[1] += 1
                break
        else:
            groups.append([lc, 1])
    factors = tuple((lc, count) for lc, count in groups)
    log_c = np.zeros((1, 1, 1))  # log of the constant polynomial 1
    for lc, count in factors:
        log_c = _log_polymat_mul(log_c, _log_polymat_power(lc[:, None, None], count))
    two_ns = sum(s.doubled for s in spins)
    tag = {
        "kind": "exact",
        "n_spins": n,
        "two_spins": [s.doubled for s in spins],
        "beta": beta,
    }
    single = len(factors) == 1 and factors[0][1] == 1
    return PartitionPolynomial(two_ns, beta, log_c[:, 0, 0], tag, () if single else factors)


def _coupling_blocks(linked):
    """Connected components of a boolean adjacency matrix, as index tuples."""
    reach = linked | np.eye(len(linked), dtype=bool)
    for _ in range(len(linked).bit_length()):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    return sorted({tuple(np.flatnonzero(row)) for row in reach})


def _enumerate(spins, J, beta):
    """Log sector weights of one block of spins, over all its configurations.

    Configurations are decoded from their mixed-radix index _ENUMERATION_CHUNK
    at a time, so memory stays bounded; the chunks' sector sums are merged in
    the log domain.
    """
    projs = [np.array([float(m) for m in projections(s)]) for s in spins]
    count = math.prod(len(p) for p in projs)
    two_ns = sum(s.doubled for s in spins)
    log_w = np.full(two_ns + 1, -np.inf)
    for lo in range(0, count, _ENUMERATION_CHUNK):
        rest = np.arange(lo, min(lo + _ENUMERATION_CHUNK, count))
        M = np.empty((len(rest), len(projs)))  # the first spin varies slowest
        for i in reversed(range(len(projs))):
            rest, digit = np.divmod(rest, len(projs[i]))
            M[:, i] = projs[i][digit]
        # zero diagonal makes the full quadratic form twice the i<j pair sum
        expo = 0.5 * beta * np.einsum("ci,ij,cj->c", M, J, M)
        n_idx = np.rint(two_ns / 2 - M.sum(axis=1)).astype(int)
        peak = np.full(two_ns + 1, -np.inf)
        np.maximum.at(peak, n_idx, expo)
        total = np.bincount(n_idx, np.exp(expo - peak[n_idx]), two_ns + 1)
        with np.errstate(divide="ignore"):  # sectors absent from this chunk
            log_total = np.log(total)
        log_w = np.logaddexp(log_w, peak + log_total)
    return log_w


def _log_polymat_mul(A, B):
    """Product of matrix polynomials of shape (deg+1, D, D) stored as logs.

    Absent terms are -inf.  Output degree k sums A[p] @ B[k-p] over p, as one
    log-sum-exp over (p, inner index) per degree.
    """
    da, db = A.shape[0] - 1, B.shape[0] - 1
    D = A.shape[1]
    # A as (i, p, l) and B degree-reversed as (j, db - q, l): the terms of each
    # output degree are then contiguous slices, summed over one trailing axis.
    At = np.ascontiguousarray(A.transpose(1, 0, 2))
    Br = np.ascontiguousarray(B[::-1].transpose(2, 0, 1))
    C = np.empty((da + db + 1, D, D))
    for k in range(da + db + 1):
        lo, hi = max(0, k - db), min(da, k) + 1
        terms = At[:, None, lo:hi] + Br[None, :, db - k + lo:db - k + hi]
        C[k] = logsumexp(terms.reshape(D, D, -1), axis=2)
    return C


def _log_polymat_power(V, n):
    """n-th power (n >= 1) of a log-domain matrix polynomial, by repeated squaring."""
    power = None
    while True:
        if n & 1:
            power = V if power is None else _log_polymat_mul(power, V)
        n >>= 1
        if not n:
            return power
        V = _log_polymat_mul(V, V)


def _isolated(N, s, beta_j):
    """Factors of N uncoupled spins when beta*J = 0, else none."""
    if beta_j > 0 or N == 1:
        return ()
    return ((np.zeros(s.doubled + 1), N),)


def build_long_range(N: int, s: HalfInt, J: float, beta: float) -> PartitionPolynomial:
    """All-pairs coupling J/N: energy -(J/2N)[(sum m_i)^2 - sum m_i^2].

    The sector weights are the N-th power of the single-site factor
    sum_m exp(-(beta*J/2N) m^2) z^{s-m}, multiplied by the prefactor
    exp((beta*J/2N)(Ns - n)^2).
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    _validate_ferromagnetic(J)
    _validate_beta(beta)
    a = beta * J / (2 * N)
    site = np.array([-a * float(m) ** 2 for m in projections(s)])
    log_w = _log_polymat_power(site[:, None, None], N)[:, 0, 0]
    two_ns = N * s.doubled
    ns = two_ns / 2
    pref = a * (ns - np.arange(two_ns + 1)) ** 2
    tag = {"kind": "long_range", "n_spins": N, "two_s": s.doubled, "J": J, "beta": beta}
    return PartitionPolynomial(two_ns, beta, pref + log_w, tag, _isolated(N, s, beta * J))


def long_range_integral_oracle(N: int, s: HalfInt, J: float, beta: float, n: int) -> float:
    """Independent quadrature route to a single long-range coefficient p_n.

    Projects the N-th power of the single-site characteristic sum onto the
    sector Ns - n with uniform trapezoid quadrature over one period, doubling
    the node count until two successive values agree to 1e-12 relative.
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    _validate_ferromagnetic(J)
    _validate_beta(beta)
    two_ns = N * s.doubled
    if not 0 <= n <= two_ns:
        raise ValueError(f"n={n} out of range [0, {two_ns}]")
    a = beta * J / (2 * N)
    ms = np.array([float(m) for m in projections(s)])
    target = two_ns / 2 - n
    weights = np.exp(-a * ms**2)
    nodes = 8 * (two_ns + 1)
    prev = None
    while True:
        phi = 2 * np.pi * np.arange(nodes) / nodes
        char = (weights[:, None] * np.cos(np.outer(ms, phi))).sum(axis=0)
        integral = np.mean(np.exp(-1j * phi * target) * char**N)
        if abs(integral.imag) > 1e-10 * max(abs(integral.real), 1e-300):
            raise RuntimeError(
                f"quadrature imaginary residue {integral.imag} too large"
            )
        val = integral.real
        if prev is not None and abs(val - prev) <= 1e-12 * abs(val):
            break
        if nodes > 2**22:
            break
        prev = val
        nodes *= 2
    return math.exp(a * target**2) * val


def build_ring(N: int, s: HalfInt, J: float, beta: float) -> PartitionPolynomial:
    """Nearest-neighbor ring via a transfer matrix with polynomial entries.

    V[m, m'] = exp(beta*J*m*m') z^{s-m}; the coefficients of Tr[V^N] are the
    p_n.  V^N is taken in the log domain, so arbitrary beta*J stays
    representable.
    """
    if not isinstance(N, int) or N < 3:
        raise ValueError(f"ring needs N >= 3 spins, got {N!r}")
    _validate_ferromagnetic(J)
    _validate_beta(beta)
    ms = np.array([float(m) for m in projections(s)])
    D = s.doubled + 1
    V = np.full((D, D, D), -np.inf)
    for row, m in enumerate(projections(s)):
        k = (s.doubled - m.doubled) // 2  # z-power carried by this row
        V[k, row, :] = beta * J * float(m) * ms
    power = _log_polymat_power(V, N)
    log_c = logsumexp(np.diagonal(power, axis1=1, axis2=2), axis=1)
    two_ns = N * s.doubled
    tag = {"kind": "ring", "n_spins": N, "two_s": s.doubled, "J": J, "beta": beta}
    return PartitionPolynomial(two_ns, beta, log_c, tag, _isolated(N, s, beta * J))

