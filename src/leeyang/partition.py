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
the product of its block factors, each raised to its count.  Each product
sums its output degrees a block at a time (_log_polymat_mul).  While its
operands' log coefficients span at most _LINEAR_RANGE, as in every product
of the bundled figure panels, a block is one BLAS matrix product of the
operands exponentiated once.  Wider operands take one exponential per term,
and their time is set by the exponentials.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .spins import HalfInt, _check_magnitude, projections

ENUMERATION_CAP = 2_000_000
# Terms summed at a time: configurations by build_exact's enumeration, and
# products of coefficients by _log_polymat_mul.
_ENUMERATION_CHUNK = 2**16
# Widest span of finite log entries, over both operands together, that
# _log_polymat_mul multiplies in the linear domain: every term stays above
# e^-700, a normal double (the smallest is about e^-708.4).
_LINEAR_RANGE = 700.0


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
    components, or isolated spins at beta*J = 0); otherwise it is the
    polynomial itself, once.
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
        if not self.factors:
            object.__setattr__(self, "factors", ((lc, 1),))

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
    own and may have at most ENUMERATION_CAP configurations.  Components with
    equal polynomials form one factor; the polynomial is the factors' product.
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
    with np.errstate(over="ignore", invalid="ignore"):
        bJ = beta * J
    if not np.all(np.isfinite(bJ)):
        raise ValueError("beta * J must be finite for every coupling")

    for s in spins:
        _check_magnitude(s)

    groups = []  # [log_coeffs, count] per distinct block polynomial
    for idx in _coupling_blocks(bJ > 0):
        lc = _enumerate([spins[i] for i in idx], bJ[np.ix_(idx, idx)])
        for group in groups:
            if group[0].shape == lc.shape and np.all(
                np.abs(group[0] - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc))
            ):
                group[1] += 1
                break
        else:
            groups.append([lc, 1])
    factors = tuple((lc, count) for lc, count in groups)
    log_c = functools.reduce(
        _log_polymat_mul, (_log_polymat_power(lc[:, None, None], count) for lc, count in factors)
    )
    two_ns = sum(s.doubled for s in spins)
    tag = {
        "kind": "exact",
        "n_spins": n,
        "two_spins": [s.doubled for s in spins],
        "beta": beta,
    }
    return PartitionPolynomial(two_ns, beta, log_c[:, 0, 0], tag, factors)


def _coupling_blocks(linked):
    """Connected components of a boolean adjacency matrix, as index tuples."""
    # the reachability closure is squared in float, where BLAS takes the products
    reach = (linked | np.eye(len(linked), dtype=bool)).astype(float)
    while True:
        grown = (reach @ reach > 0).astype(float)
        if np.array_equal(grown, reach):
            return sorted({tuple(np.flatnonzero(row)) for row in reach})
        reach = grown


def _enumerate(spins, bJ):
    """Log sector weights of one block of spins, over all its configurations.

    ``bJ`` is the block's couplings times beta.

    The energy is a quadratic form, so with the spins split into leading spins
    H and trailing spins L it reads E(h, l) = E_H(h) + E_L(l) + m_h J_HL m_l.
    Trailing spins join L while |L|^2 < count, so each part's configuration
    table has about sqrt(count) rows and is built once.  The cross term of a
    chunk of H rows against all of L is one matrix product, with the chunk
    sized to hold about _ENUMERATION_CHUNK configurations.  Each chunk sums
    every sector relative to its own peak exponent, which keeps low
    temperatures finite, and the chunks' sector sums are merged in the log
    domain.
    """
    dims = [s.doubled + 1 for s in spins]
    count = math.prod(dims)
    if count > ENUMERATION_CAP:
        raise ValueError(
            f"{count} configurations exceed the enumeration cap {ENUMERATION_CAP}"
        )
    split, size_l = len(dims), 1
    while size_l**2 < count:
        split -= 1
        size_l *= dims[split]
    H, up_H = _configurations(spins[:split])
    L, up_L = _configurations(spins[split:])
    HJ = H @ bJ[:split]
    cross = HJ[:, split:]
    # zero diagonal makes each full quadratic form twice its i<j pair sum
    e_H = 0.5 * (HJ[:, :split] * H).sum(axis=1)
    e_L = 0.5 * ((L @ bJ[split:, split:]) * L).sum(axis=1)
    sectors = sum(s.doubled for s in spins) + 1
    rows = max(1, _ENUMERATION_CHUNK // size_l)
    chunks = (
        _log_sector_sums(
            (e_H[lo:lo + rows, None] + e_L + cross[lo:lo + rows] @ L.T).ravel(),
            (up_H[lo:lo + rows, None] + up_L).ravel(),
            sectors,
        )
        for lo in range(0, len(H), rows)
    )
    # indexed by raising steps from all-down, which is 2Ns - n
    return functools.reduce(np.logaddexp, chunks)[::-1]


def _log_sector_sums(expo, sector, sectors):
    """log of the sums of exp(expo) by sector, each relative to its own peak.

    Sectors absent from ``sector`` are -inf.
    """
    peak = np.full(sectors, -np.inf)
    np.maximum.at(peak, sector, expo)
    total = np.bincount(sector, np.exp(expo - peak[sector]), sectors)
    # a present sector's peak term adds exactly 1; an absent one's peak is -inf
    return peak + np.log(np.maximum(total, 1.0))


def _configurations(spins):
    """Every projection configuration of ``spins``, the first varying slowest.

    Returns the table of projections m, one configuration per row, and each
    row's count of raising steps sum(m + s) from the all-down configuration.
    """
    dims = [s.doubled + 1 for s in spins]
    up = np.indices(dims).reshape(len(dims), math.prod(dims)).T
    return up - [s.doubled / 2 for s in spins], up.sum(axis=1)


def _log_polymat_mul(A, B):
    """Product of matrix polynomials of shape (deg+1, D, D) stored as logs.

    Absent terms are -inf.  Output degree k sums A[p] @ B[k-p] over p.  The
    output degrees are taken a block at a time: a block runs over the union
    of its degrees' p ranges, where a term outside a degree's own range is
    zero (-inf) and adds nothing.

    When the finite log entries of A and B together span at most
    _LINEAR_RANGE, the product is taken in the linear domain: each operand is
    shifted by its maximum and exponentiated once, and each block is one
    matrix product.  Every term is then a positive normal double, so each sum
    is accurate to n*eps relative to itself, as a log-sum-exp is, and costs
    no exponential per term.  Wider operands are summed as one log-sum-exp over
    (p, inner index) per block, with one broadcast sum per block.  A block
    holds at most _ENUMERATION_CHUNK terms, or the terms of a single degree.
    """
    da, db = A.shape[0] - 1, B.shape[0] - 1
    D = A.shape[1]
    peak_a, peak_b = A.max(), B.max()
    if peak_a == -np.inf or peak_b == -np.inf:
        return np.full((da + db + 1, D, D), -np.inf)
    low = A[A > -np.inf].min() + B[B > -np.inf].min()
    linear = peak_a + peak_b - low <= _LINEAR_RANGE
    if linear:
        A, B = np.exp(A - peak_a), np.exp(B - peak_b)
    # A as (i, p, l); B degree-reversed and padded with da absent degrees on
    # each side, as (j, r, l) with r = db + da - q.  The factor B[k - p] of
    # output degree k then sits at r = db + da - k + p: for each degree one
    # contiguous run over (p, l), lined up with A's, read in place.
    At = np.ascontiguousarray(A.transpose(1, 0, 2))
    R = db + 1 + 2 * da
    Br = np.full((D, R, D), 0.0 if linear else -np.inf)
    Br[:, da:da + db + 1] = B[::-1].transpose(2, 0, 1)
    # windows[r], a view into Br, is the run of da + 1 degrees from r on, over
    # (p, l), for each j
    step = Br.itemsize
    windows = np.ndarray(
        (R - da, D, (da + 1) * D), Br.dtype, Br, strides=(D * step, R * D * step, step)
    )
    # A block of `rows` degrees sums over at most min(da, db) + rows values
    # of p, so it holds at most _ENUMERATION_CHUNK terms when each part of
    # rows * (min(da, db) + rows) * D**3 is at most half of that.  The linear
    # path copies only B's window, (k, j, (p, l)), with no i axis.
    half = _ENUMERATION_CHUNK // (2 * D ** (2 if linear else 3))
    rows = max(1, min(half // (min(da, db) + 1), math.isqrt(half)))
    C = np.empty((da + db + 1, D, D))
    for k0 in range(0, da + db + 1, rows):
        k1 = min(k0 + rows, da + db + 1)
        lo, hi = max(0, k0 - db), min(da, k1 - 1) + 1
        first = db + da - (k1 - 1) + lo  # r of degree k1 - 1 at p = lo
        Bk = windows[first:first + k1 - k0, :, :(hi - lo) * D][::-1]  # (k, j, (p, l))
        if linear:
            Ck = At[:, lo:hi].reshape(D, -1) @ Bk.reshape((k1 - k0) * D, -1).T
            C[k0:k1] = Ck.reshape(D, k1 - k0, D).transpose(1, 0, 2)
        else:
            terms = At[None, :, None, lo:hi].reshape(1, D, 1, -1) + Bk[:, None]
            C[k0:k1] = logsumexp(terms, axis=3)
    if linear:
        with np.errstate(divide="ignore"):  # a degree with no terms is log(0) = -inf
            return np.log(C) + (peak_a + peak_b)
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

