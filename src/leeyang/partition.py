"""Log-domain construction of the zero-field partition polynomial.

Each builder returns the coefficients p_n of Z(beta, h) / e^{beta*N*s*h} as a
polynomial in z = exp(-beta*h), with p_n the zero-field partition function of
the sector where the total projection equals N*s - n.  Coefficients are kept
as natural logs because the Boltzmann weights span hundreds of orders of
magnitude at low temperature.

Every polynomial is a power of a small matrix polynomial, or a product of
such powers, taken in the log domain by repeated squaring (O(log N) products).
The long-range model is the N-th power of the 1x1 single-site factor, the ring
is the trace of the N-th power of its transfer matrix, and a split exact bath
is the product of its block factors, each raised to its count.  A builder
returns the factors; PartitionPolynomial.log_coeffs forms their product when
read.  Each product sums its output degrees a block at a time
(_log_polymat_mul).  While its operands' log coefficients span at most
_LINEAR_RANGE, as in every product of the bundled figure panels, a block is
one BLAS matrix product of the operands exponentiated once.  Wider operands
take one exponential per term, and their time is set by the exponentials.
On small operands a product's time is mostly its fixed cost, so a squaring
prepares its one operand once, and a product of operands with no absent term
(every long-range and all-to-all power) takes its log in place: every term is
a positive normal double, so no output degree is zero and the log needs no
error-state switch.  A ring's transfer matrix has absent terms and keeps it.

Each block factor of an exact bath comes from enumerating its configurations
(_enumerate) by twin class (_twin_classes).  Twin spins have the same spin
and the same beta*J to every other spin, so a class of n of them couples
all-to-all within itself and enters the energy only through its total
projection M.  It is enumerated as one collective spin of n*2s + 1 states,
weighed by the long-range model's polynomial (_all_to_all), and a block of
classes has prod_C (n_C*2s_C + 1) configurations in place of
prod_i (2s_i + 1).  Two half-tables of about sqrt(count) rows, the trailing
one sorted by raising-step count, are joined by one matrix product per chunk
of about _ENUMERATION_CHUNK configurations, and every (leading row, trailing
sector) group is summed relative to its own peak.
"""

import functools
import math
import operator
from dataclasses import dataclass, field
from decimal import Decimal  # rounds counts beyond the float range

import numpy as np

from .spins import HalfInt, _check_magnitude, projections
from .zeros import Factor

ENUMERATION_CAP = 2_000_000
# Most states of one twin class.  Its weights are a power that sums about
# states**2 terms, here at most 8 * ENUMERATION_CAP: that admits 1024 spins up
# to s = 3/2 (3073 states, about 40 ms), and at 4000 states a power takes at
# most about 90 ms on a 2-core host.
_MAX_CLASS_STATES = math.isqrt(8 * ENUMERATION_CAP)
# Terms summed at a time: configurations by build_exact's enumeration, and
# products of coefficients by _log_polymat_mul.
_ENUMERATION_CHUNK = 2**16
# Widest span of finite log entries, over both operands together, that
# _log_polymat_mul multiplies in the linear domain: every term stays above
# e^-700, a normal double (the smallest is about e^-708.4).
_LINEAR_RANGE = 700.0
# Largest log weight W, the largest |log| of a configuration's Boltzmann
# weight, that a builder accepts: _log_polymat_mul adds up to four such
# magnitudes in peak_a + peak_b - low.
_MAX_LOG_WEIGHT = np.finfo(float).max / 8


def logsumexp(a, axis):
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
    ``zeros.Factor`` (log_coeffs, count) pairs: each factor raised to its count.
    A bath that splits into independent parts (coupling components, or free
    spins at beta*J = 0) has a factor per distinct part, any other bath one
    factor, once.  The degree ``two_ns`` is derived from them, the sum of
    count * degree.  The product, ``log_coeffs``, is formed on first read.
    """

    two_ns: int = field(init=False)
    beta: float
    factors: tuple = field(repr=False)
    model_tag: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and non-negative, got {self.beta}")
        factors = tuple(Factor(lc, count) for lc, count in self.factors)
        two_ns = sum(count * (len(lc) - 1) for lc, count in factors)
        if two_ns < 1:
            raise ValueError(f"the factors' degree sum, {two_ns}, must be >= 1")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "two_ns", two_ns)

    @functools.cached_property
    def log_coeffs(self) -> np.ndarray:
        """Log coefficients of the product of the factors, each to its count."""
        powers = (_power(lc[:, None, None], n, _log_polymat_mul) for lc, n in self.factors)
        return functools.reduce(_log_polymat_mul, powers)[:, 0, 0]


def _validate_ferromagnetic(J):
    if not 0 <= J < math.inf:
        raise ValueError(f"J must be finite and non-negative (ferromagnetic), got {J}")


def _check_log_weight(W, beta):
    """Refuse a bath whose largest log weight W is above _MAX_LOG_WEIGHT or NaN.

    It runs before a builder's arithmetic, which would overflow with a warning.
    """
    if not W <= _MAX_LOG_WEIGHT:
        raise ValueError(
            f"beta * J must be finite and keep the largest log weight at most "
            f"{_MAX_LOG_WEIGHT:.6g}; it is {W:.6g} at beta = {beta}"
        )


def build_exact(spins, couplings, beta) -> PartitionPolynomial:
    """Exact enumeration over all projection configurations.

    ``couplings[i][j]`` is the pair coupling J_ij (units J, zero diagonal);
    the configuration weight is exp(beta * sum_{i<j} J_ij m_i m_j).  Each
    connected component of the beta*J > 0 coupling graph is enumerated on its
    own, by twin class (_block_polynomial): it may have at most
    ENUMERATION_CAP configurations of its classes, where a class of n twin
    spins s counts n*2s + 1, and a class at most _MAX_CLASS_STATES of them.
    So an all-to-all, star or complete-bipartite block of up to 1024 spins
    builds, and a chain of more than 20 spin-1/2 is refused.  Components with
    the same spins and byte-identical beta*J are enumerated and grouped once.
    A new block polynomial joins the first factor of its length that it equals
    within 1e-12*max(1, |log p|), all of them compared in one array operation,
    or starts a factor; the polynomial is the factors' product.
    """
    spins = list(spins)
    if not spins:
        raise ValueError("need at least one bath spin")
    n = len(spins)
    J = np.asarray(couplings, dtype=float) + 0.0  # -0.0 becomes 0.0, as _twin_classes needs
    if J.shape != (n, n):
        raise ValueError(f"couplings must be {n}x{n}, got {J.shape}")
    if not (np.isfinite(J.min()) and np.isfinite(J.max())):  # a NaN is both
        raise ValueError("couplings must be finite")
    if not np.array_equal(J, J.T):
        if not np.allclose(J, J.T, rtol=0, atol=1e-12):
            raise ValueError("couplings matrix must be symmetric")
        # the quadratic form reads only the symmetric part; twin classes need it
        J = 0.5 * J + 0.5 * J.T
    if np.any(np.abs(np.diag(J)) > 0):
        raise ValueError("couplings matrix must have zero diagonal")
    if np.any(J < 0):
        raise ValueError("couplings must be non-negative (ferromagnetic)")
    for s in spins:
        _check_magnitude(s)
    top = np.array([s.doubled / 2 for s in spins])
    with np.errstate(over="ignore", invalid="ignore"):
        bJ = beta * J
        # every spin at its top projection: 1/2 sum_ij beta J_ij s_i s_j
        _check_log_weight(0.5 * (top @ bJ @ top), beta)

    group_of = {}  # index into groups by the block's spins and its beta*J bytes
    groups = []  # [log_coeffs, count] per distinct block polynomial
    by_length = {}  # length -> (indices into groups, their log_coeffs as rows)
    for idx in _coupling_blocks(bJ > 0):
        block = [spins[i] for i in idx]
        block_bJ = bJ if len(idx) == n else bJ[np.ix_(idx, idx)]
        key = (tuple(s.doubled for s in block), block_bJ.tobytes())
        if key not in group_of:
            lc = _block_polynomial(block, block_bJ)
            # the first group, in insertion order, equal to lc within 1e-12*max(1, |lc|)
            indices, rows = by_length.setdefault(len(lc), ([], np.empty((0, len(lc)))))
            close = np.all(np.abs(rows - lc) <= 1e-12 * np.maximum(1.0, np.abs(lc)), axis=1)
            if close.any():
                group_of[key] = indices[close.argmax()]
            else:
                group_of[key] = len(groups)
                indices.append(len(groups))
                by_length[len(lc)] = indices, np.vstack([rows, lc])
                groups.append([lc, 0])
        groups[group_of[key]][1] += 1
    tag = {
        "kind": "exact",
        "n_spins": n,
        "two_spins": [s.doubled for s in spins],
        "beta": beta,
    }
    return PartitionPolynomial(beta, groups, tag)


def _coupling_blocks(linked):
    """Connected components of a boolean adjacency matrix, as sorted index tuples.

    Breadth-first search: each block starts at the lowest unseen index, so the
    blocks come in order of their lowest index, and each level of the search
    adds the unseen neighbours of the whole level before it, one reduction
    over its rows of ``linked``.
    """
    seen = np.zeros(len(linked), dtype=bool)
    blocks = []
    for start in range(len(linked)):
        if seen[start]:
            continue
        seen[start] = True
        block, level = [start], [start]
        while len(level):
            level = np.flatnonzero(linked[level].any(axis=0) & ~seen)
            seen[level] = True
            block.extend(level.tolist())
        blocks.append(tuple(sorted(block)))
    return blocks


def _block_polynomial(spins, bJ):
    """Log sector weights of one coupled block, enumerated by twin class.

    ``bJ`` is the block's couplings times beta.  A class of n twin spins s
    with pair coupling beta*J_C is one collective spin of n*2s + 1 states,
    weighed by _all_to_all with a = beta*J_C / 2; a class of one spin weighs
    zero.  Classes couple by total projection, sum_{i in C, j in D} J m_i m_j
    = J_CD M_C M_D, so _enumerate runs over the matrix of one spin per class.
    The caps are checked on the classes before any table is built.
    """
    rep = _twin_classes([s.doubled for s in spins], bJ)
    own = np.arange(len(spins))
    first = np.flatnonzero(rep == own)  # each class's lowest spin
    sizes = np.bincount(rep)[first]
    units = [HalfInt(int(n) * spins[i].doubled) for i, n in zip(first, sizes)]
    count = math.prod(u.doubled + 1 for u in units)
    if count > ENUMERATION_CAP:
        classes = f" in {len(units)} twin classes" if len(units) < len(spins) else ""
        raise ValueError(
            f"a block of {len(spins)} spins{classes} has {Decimal(count):.3g} "
            f"configurations, which exceed the enumeration cap {ENUMERATION_CAP}"
        )
    intra = np.zeros(len(spins))  # beta*J_C, at each class's lowest spin
    others = np.flatnonzero(rep != own)
    intra[rep[others]] = bJ[others, rep[others]]
    log_weights = []
    for i, n, unit in zip(first, sizes, units):
        if n == 1:
            log_weights.append(np.zeros(unit.doubled + 1))
            continue
        if unit.doubled + 1 > _MAX_CLASS_STATES:
            raise ValueError(
                f"a class of {n} twin spins has {unit.doubled + 1} states, more than the "
                f"{_MAX_CLASS_STATES} that the enumeration cap {ENUMERATION_CAP} allows"
            )
        log_weights.append(_all_to_all(spins[i], int(n), intra[i] / 2))
    if len(units) == 1:  # the one class's weights, by sector n = 2Ns - up
        return log_weights[0][::-1]
    # a block without twins keeps its matrix, and so its bits
    return _enumerate(units, bJ[np.ix_(first, first)], log_weights)


def _twin_classes(two_spins, S):
    """Each spin's twin class, as the index of the class's lowest spin.

    ``S`` is the block's beta*J, exactly symmetric.  Spins i and j are twins
    when they have the same doubled spin and bit-equal S[i, k] and S[j, k]
    for every other spin k.  This is an equivalence, and all pairs of a class
    share one coupling.

    Twins i and j have equal rows once each row's diagonal entry is set to
    S[i, j], so they are found by a hash of the rows, in O(n^2): with
    h_i = sum_{k != i} x(S[i, k]) r_k (mod 2^64, r_k splitmix64 of k + 1),
    row i with diagonal S[i, j] hashes to G[i, j] = h_i + x(S[i, j]) r_i, and
    twins have G[i, j] = G[j, i].  x(b) = b ^ (b >> 32) spreads an entry's bits
    b downward: a double with a zero mantissa is a multiple of 2^52.  Each spin's
    first hash partner is compared bit for bit; a failure, which only a hash
    collision can cause, leaves the spin a class of its own.  Twins hash equal,
    so every representative is its class's lowest spin, with no normalization pass.
    """
    n = len(S)
    spin = np.asarray(two_spins)
    bits = S.view(np.uint64)
    bits = bits ^ (bits >> np.uint64(32))  # a new array: S may be the caller's bJ
    r = _hash_weights(n)
    h = bits @ r - bits.diagonal() * r  # wraps modulo 2^64
    # G[i, j] - G[j, i], with x(S[i, j]) = x(S[j, i]), in one array
    differ = np.subtract.outer(r, r)
    differ *= bits
    differ += h[:, None]
    differ -= h
    rep = ((differ == 0) & (spin[:, None] == spin)).argmax(axis=1)  # <= i, the diagonal
    i = np.flatnonzero(rep != np.arange(n))
    j = rep[i]
    rows_i, rows_j = S[i], S[j]
    rows_i[np.arange(len(i)), i] = rows_j[np.arange(len(i)), j] = S[i, j]
    mismatch = np.any(rows_i.view(np.uint64) != rows_j.view(np.uint64), axis=1)
    rep[i[mismatch]] = i[mismatch]
    return rep


def _hash_weights(n):
    """splitmix64's finalizer of 1..n, the weights of _twin_classes' row hash."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _all_to_all(s, n, a):
    """Log weights of n spins s coupled all-to-all by 2a each, by total projection.

    Entry k, the sector M = k - ns, is a M^2 + log sum_{sum m = M} exp(-a sum m^2):
    the energy -2a sum_{i<j} m_i m_j = -a (M^2 - sum m^2).  The sum is the
    n-th power of the single-site polynomial sum_m exp(-a m^2) z^(m + s).
    """
    site = np.array([-a * float(m) ** 2 for m in projections(s)])
    log_w = _power(site[:, None, None], n, _log_polymat_mul)[:, 0, 0]
    two_ns = n * s.doubled
    return a * (two_ns / 2 - np.arange(two_ns + 1)) ** 2 + log_w


def _enumerate(spins, bJ, log_weights):
    """Log sector weights of one block of spins, over all its configurations.

    ``bJ`` is the block's couplings times beta, and ``log_weights[i]`` spin
    i's log weight by raising steps from -s_i; each configuration adds its
    spins' weights to its exponent.

    The energy is a quadratic form, so with the spins split into leading spins
    H and trailing spins L it reads E(h, l) = E_H(h) + E_L(l) + m_h J_HL m_l.
    Trailing spins join L while |L|^2 < count, so each part's configuration
    table has about sqrt(count) rows and is built once.  L is sorted by its
    raising-step count, so each L sector is one contiguous run of columns.
    The exponents of a chunk of H rows against all of L are one matrix
    product of augmented tables, [m_H J_HL, E_H, 1] @ [m_L, 1, E_L]^T, with
    the chunk sized to hold about _ENUMERATION_CHUNK configurations; E_H and
    E_L include the weights.  Each row's run of an L sector is summed
    relative to its own peak, which keeps low temperatures finite; these
    (row, L sector) sums are merged by their sector up_H + up_L, and the
    chunks' sector sums in the log domain.
    """
    dims = [s.doubled + 1 for s in spins]
    count = math.prod(dims)
    split, size_l = len(dims), 1
    while size_l**2 < count:
        split -= 1
        size_l *= dims[split]
    H, up_H, w_H = _configurations(spins[:split], log_weights[:split])
    L, up_L, w_L = _configurations(spins[split:], log_weights[split:])
    order = np.argsort(up_L, kind="stable")
    L, up_L, w_L = L[order], up_L[order], w_L[order]
    starts = np.flatnonzero(np.diff(up_L, prepend=-1))
    runs = list(enumerate(zip(starts, [*starts[1:], len(L)])))
    HJ = H @ bJ[:split]
    # zero diagonal makes each full quadratic form twice its i<j pair sum
    e_H = 0.5 * (HJ[:, :split] * H).sum(axis=1) + w_H
    e_L = 0.5 * ((L @ bJ[split:, split:]) * L).sum(axis=1) + w_L
    A = np.column_stack([HJ[:, split:], e_H, np.ones(len(H))])
    # row-major: numpy's product with a transposed view is several times slower
    B_T = np.ascontiguousarray(np.column_stack([L, np.ones(len(L)), e_L]).T)
    sectors = sum(s.doubled for s in spins) + 1
    rows = max(1, _ENUMERATION_CHUNK // size_l)

    def chunk_sums(lo):
        expo = A[lo:lo + rows] @ B_T
        peak = np.maximum.reduceat(expo, starts, axis=1)
        for j, (a, b) in runs:
            expo[:, a:b] -= peak[:, j, None]
        np.exp(expo, out=expo)
        # each run's peak term adds exactly 1, so every sum is at least 1
        group = peak + np.log(np.add.reduceat(expo, starts, axis=1))
        return _log_sector_sums(
            group.ravel(), (up_H[lo:lo + rows, None] + up_L[starts]).ravel(), sectors
        )

    chunks = (chunk_sums(lo) for lo in range(0, len(H), rows))
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


def _configurations(spins, log_weights):
    """Every projection configuration of ``spins``, the first varying slowest.

    Returns the table of projections m, one configuration per row, each
    row's count of raising steps sum(m + s) from the all-down configuration,
    and each row's sum of its spins' log weights by raising steps.
    """
    dims = [s.doubled + 1 for s in spins]
    up = np.indices(dims).reshape(len(dims), math.prod(dims)).T
    weight = sum((w[u] for w, u in zip(log_weights, up.T)), np.zeros(len(up)))
    return up - [s.doubled / 2 for s in spins], up.sum(axis=1), weight


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
    no exponential per term.  When neither operand has an absent term, every
    output degree sums at least one such term and is positive, so its log is
    taken in place with no error-state switch; an absent term can leave a
    degree at zero, whose log is -inf.  Wider operands are summed as one
    log-sum-exp over (p, inner index) per block, with one broadcast sum per
    block.  A block holds at most _ENUMERATION_CHUNK terms, or the terms of a
    single degree.

    When B is A, as in every squaring _power makes, the operand's peak, floor
    of finite entries and exponential are taken once and serve both sides:
    the arithmetic, and so every bit, is that of the product with a copy.
    """
    da, db = A.shape[0] - 1, B.shape[0] - 1
    D = A.shape[1]
    same = B is A  # every squaring of _power: prepare the one operand once
    peak_a = A.max()
    peak_b = peak_a if same else B.max()
    if peak_a == -np.inf or peak_b == -np.inf:
        return np.full((da + db + 1, D, D), -np.inf)
    low_a = A.min()
    low_b = low_a if same else B.min()
    dense = low_a > -np.inf and low_b > -np.inf  # no absent term
    if low_a == -np.inf:
        low_a = A[A > -np.inf].min()
    if low_b == -np.inf:
        low_b = low_a if same else B[B > -np.inf].min()
    linear = peak_a + peak_b - (low_a + low_b) <= _LINEAR_RANGE
    if linear:
        A = np.exp(A - peak_a)
        B = A if same else np.exp(B - peak_b)
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
    if not linear:
        return C
    if dense:  # every degree sums positive normal terms, so none is log(0)
        np.log(C, out=C)
    else:
        with np.errstate(divide="ignore"):  # a degree with no terms is log(0) = -inf
            np.log(C, out=C)
    C += peak_a + peak_b
    return C


def _power(x, n, mul=operator.mul):
    """x**n for an integer n >= 1 by repeated squaring, with ``mul`` as the product.

    Every count of a factor is applied here: elementwise to samples (``probe``)
    and, with _log_polymat_mul, to log-domain matrix polynomials.  On an array,
    ``**`` calls libm pow per element for every n >= 3, about 18 times slower
    on 4096 samples; each product here rounds once, so the relative error
    stays within about n*eps.
    """
    power = None
    while True:
        if n & 1:
            power = x if power is None else mul(power, x)
        n >>= 1
        if not n:
            return power
        x = mul(x, x)


def build_long_range(N: int, s: HalfInt, J: float, beta: float) -> PartitionPolynomial:
    """All-pairs coupling J/N: energy -(J/2N)[(sum m_i)^2 - sum m_i^2].

    The sector weights are the N-th power of the single-site factor
    sum_m exp(-(beta*J/2N) m^2) z^{s-m}, multiplied by the prefactor
    exp((beta*J/2N)(Ns - n)^2).
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    _validate_ferromagnetic(J)
    # Python floats, which overflow to inf without a warning
    _check_log_weight(float(beta) * float(J) * (N * float(s) ** 2 / 2), beta)
    a = beta * J / (2 * N)
    tag = {"kind": "long_range", "n_spins": N, "two_s": s.doubled, "J": J, "beta": beta}
    if a > 0:
        factor = (_all_to_all(s, N, a), 1)
    else:  # N free spins
        factor = (np.zeros(s.doubled + 1), N)
    return PartitionPolynomial(beta, [factor], tag)


def long_range_integral_oracle(N: int, s: HalfInt, J: float, beta: float, n: int) -> float:
    """Independent quadrature route to a single long-range coefficient p_n.

    Projects the N-th power of the single-site characteristic sum onto the
    sector Ns - n with uniform trapezoid quadrature over one period, doubling
    the node count until two successive values agree to 1e-12 relative.
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    _validate_ferromagnetic(J)
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
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
    # Python floats, which overflow to inf without a warning
    _check_log_weight(float(beta) * float(J) * (N * float(s) ** 2), beta)
    ms = np.array([float(m) for m in projections(s)])
    tag = {"kind": "ring", "n_spins": N, "two_s": s.doubled, "J": J, "beta": beta}
    if beta * J > 0:
        r = np.arange(len(ms))
        V = np.full((len(ms),) * 3, -np.inf)
        V[r[::-1], r] = beta * J * ms[:, None] * ms  # row m carries z^(s - m)
        power = _power(V, N, _log_polymat_mul)
        factor = (logsumexp(np.diagonal(power, axis1=1, axis2=2), axis=1), 1)
    else:  # N free spins
        factor = (np.zeros(s.doubled + 1), N)
    return PartitionPolynomial(beta, [factor], tag)
