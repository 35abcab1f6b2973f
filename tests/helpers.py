"""Shared dense-matrix oracles and small builders for the test suite."""

import collections
import itertools
import math

import mpmath
import numpy as np

from leeyang.partition import _enumerate, build_exact, build_long_range, build_ring, logsumexp
from leeyang.spins import HalfInt


def splus_matrix(d0):
    """Dense (S+) matrix in the ascending z-basis m = -s0..s0."""
    s = d0 / 2
    mat = np.zeros((d0 + 1, d0 + 1))
    for k in range(d0):
        m = (-d0 + 2 * k) / 2
        mat[k + 1, k] = math.sqrt(s * (s + 1) - m * (m + 1))
    return mat


def sx_matrix(d0):
    sp = splus_matrix(d0)
    return 0.5 * (sp + sp.T)


def ring_couplings(n, J=1.0):
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, (i + 1) % n] += J
        mat[(i + 1) % n, i] += J
    return mat


def uniform_couplings(n, J):
    return J * (np.ones((n, n)) - np.eye(n))


def spins(two_s, n):
    return [HalfInt(two_s)] * n


# a 3-spin path with J01 = 1 and J12 = 2
THREE_SPIN_PATH = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])


def block_diagonal(*blocks):
    """The couplings of independent blocks: each square block on the diagonal, in order."""
    n = sum(len(b) for b in blocks)
    mat, start = np.zeros((n, n)), 0
    for b in blocks:
        mat[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    return mat


def closed_form_angles(n, beta_j):
    """Zero angles of the spin-1/2 ring of n spins, ascending.

    Lee & Yang 1952: sin^2(theta_k / 2) = sin^2 phi_k + e^{-beta J} cos^2 phi_k,
    phi_k = (2k + 1) pi / (2N); k and N - 1 - k give the same angle.  Written
    as an arctangent, which stays well conditioned near pi.
    """
    phi = (2 * np.arange((n + 1) // 2) + 1) * np.pi / (2 * n)
    a = math.exp(-beta_j)
    half = np.arctan2(
        np.sqrt(np.sin(phi) ** 2 + a * np.cos(phi) ** 2),
        np.abs(np.cos(phi)) * math.sqrt(-math.expm1(-beta_j)),
    )
    return np.sort(np.concatenate([2 * half, -2 * half[: n // 2]]))


def assert_roots_match(got, expected, atol=1e-9):
    """Compare two root multisets, paired in order of angle in [0, 2*pi).

    Lexicographic complex sorting is unstable when conjugate partners differ
    in their real parts by an ulp, so pair roots by angle instead.  z = 1 is
    never a zero of a polynomial with positive coefficients, so no pair
    straddles the cut at angle 0, and any pairing within ``atol`` proves that
    the multisets match.
    """

    def by_angle(z):
        z = np.asarray(z, complex)
        return z[np.argsort(np.mod(np.angle(z), 2 * np.pi), kind="stable")]

    got, expected = by_angle(got), by_angle(expected)
    assert got.shape == expected.shape
    worst = np.abs(got - expected).max()
    assert worst < atol, f"root sets differ by {worst:.3e}"


def coeffs(poly):
    """Max-normalized linear coefficients c_n = exp(log p_n - max log p)."""
    return np.exp(poly.log_coeffs - poly.log_coeffs.max())


def enumerate_unweighted(block, bJ):
    """``partition._enumerate`` with every spin's log weight zero."""
    return _enumerate(block, bJ, [np.zeros(s.doubled + 1) for s in block])


def eval_ratio(poly, z):
    """Z(beta, h_complex) / Z(beta, 0) at z = exp(-beta*h_complex).

    Complex Horner evaluation of the max-normalized coefficients: an oracle
    independent of the package's cosine-series evaluator.  For |z| = 1 the
    modulus is bounded by 1 up to rounding.
    """
    c = coeffs(poly)
    return np.polynomial.polynomial.polyval(z, c) / c.sum()


def probe_coherence_oracle(spin_list, couplings, beta, state, lam, h0, delta, times):
    """<(S0+)^delta>(t) by explicit evolution of the probe density matrix.

    The Hamiltonian is

        H = -sum_{i<j} J_ij m_i m_j - (h0 + lam * sum_j m_j) S0z,

    with m_j the z projections of the bath spins.  Sign convention: a field h
    enters as -h S^z, as in the bath's Lee-Yang variable z = exp(-beta h)
    (Boltzmann weight exp(+beta h sum m)).  The bath starts in its thermal
    state, weights exp(beta sum_{i<j} J_ij m_i m_j) over every configuration,
    and the probe in |psi><psi|.  In each configuration the probe evolves as
    rho(t) = U rho U^dagger with U = exp(-iHt) = exp(i (h0 + lam M) S0z t);
    everything is diagonal in z, so this is exact.  With the opposite sign,
    H = +(h0 + lam M) S0z, the result is that for -h0 (the thermal weights
    are even in M at zero bath field), so its h0 phase is exp(+i h0 delta t).
    """
    ms = [[d / 2 for d in range(-s.doubled, s.doubled + 1, 2)] for s in spin_list]
    confs = np.array(list(itertools.product(*ms)))
    energy = np.einsum("ci,ij,cj->c", confs, np.triu(couplings, 1), confs)
    weights = np.exp(beta * (energy - energy.max()))
    weights /= weights.sum()
    field = h0 + lam * confs.sum(axis=1)
    d0 = state.s0.doubled
    m0 = np.arange(-d0, d0 + 1, 2) / 2
    rho0 = np.outer(state.amplitudes, np.conj(state.amplitudes))
    op = np.linalg.matrix_power(splus_matrix(d0), delta)
    out = []
    for t in times:
        u = np.exp(1j * np.outer(field * t, m0))  # diagonal of U, per configuration
        rho = np.tensordot(weights, u[:, :, None] * rho0 * np.conj(u)[:, None, :], axes=1)
        out.append(np.trace(rho @ op))
    return np.array(out)


def brute_force_log_sectors(spin_list, couplings, beta):
    """Log sector weights log p_n, one configuration at a time.

    Each configuration's exponent beta * sum_{i<j} J_ij m_i m_j is a Python
    sum, and sector n = Ns - sum m is summed relative to its largest exponent,
    so large beta stays finite.  An oracle independent of build_exact's tables.
    """
    ms = [[d / 2 for d in range(-s.doubled, s.doubled + 1, 2)] for s in spin_list]
    size = len(spin_list)
    two_ns = sum(s.doubled for s in spin_list)
    exponents = [[] for _ in range(two_ns + 1)]
    for conf in itertools.product(*ms):
        energy = sum(
            couplings[i][j] * conf[i] * conf[j] for i in range(size) for j in range(i + 1, size)
        )
        exponents[round(two_ns / 2 - sum(conf))].append(beta * energy)
    log_w = []
    for sector in exponents:
        peak = max(sector)
        log_w.append(peak + math.log(math.fsum(math.exp(e - peak) for e in sector)))
    return np.array(log_w)


def log_polymat_mul_reference(A, B):
    """Product of log-domain matrix polynomials, one output degree at a time.

    Degree k is one log-sum-exp over (p, inner index) of A[p] + B[k-p]: the
    per-degree loop that the package's blocked product must reproduce.
    """
    da, db = A.shape[0] - 1, B.shape[0] - 1
    D = A.shape[1]
    At = np.ascontiguousarray(A.transpose(1, 0, 2))
    Br = np.ascontiguousarray(B[::-1].transpose(2, 0, 1))
    C = np.empty((da + db + 1, D, D))
    for k in range(da + db + 1):
        lo, hi = max(0, k - db), min(da, k) + 1
        terms = At[:, None, lo:hi] + Br[None, :, db - k + lo:db - k + hi]
        C[k] = logsumexp(terms.reshape(D, D, -1), axis=2)
    return C


def _mp_polymat_mul(A, B):
    """Product of matrix polynomials given as lists over degree of mpf matrices."""
    D = len(A[0])
    C = [[[mpmath.mpf(0)] * D for _ in range(D)] for _ in range(len(A) + len(B) - 1)]
    for p, a in enumerate(A):
        for q, b in enumerate(B):
            c = C[p + q]
            for i in range(D):
                for j in range(D):
                    c[i][j] += mpmath.fsum(a[i][l] * b[l][j] for l in range(D))
    return C


def _mp_polymat_power(V, n):
    """n-th power (n >= 1) of an mpf matrix polynomial, by repeated squaring."""
    power = None
    while True:
        if n & 1:
            power = V if power is None else _mp_polymat_mul(power, V)
        n >>= 1
        if not n:
            return power
        V = _mp_polymat_mul(V, V)


def log_coeffs_60_digits(kind, N, two_s, J, beta):
    """log p_n of the ring or long_range model from 60-digit coefficients.

    The ring's p_n are the coefficients of Tr V^N, with the transfer matrix
    V[m, m'] = exp(beta J m m') z^(s - m).  The long_range p_n are those of
    the N-th power of sum_m exp(-a m^2) z^(s - m), a = beta J / 2N, times
    exp(a (Ns - n)^2).  The powers are taken by repeated squaring in 60-digit
    linear arithmetic, where no weight under- or overflows, and only the final
    logs are rounded to double: an oracle for the package's double-precision
    products.
    """
    s = two_s / 2
    ms = [mpmath.mpf(d) / 2 for d in range(two_s, -two_s - 1, -2)]  # z^k carries m = s - k
    with mpmath.workdps(60):
        if kind == "ring":
            bj = mpmath.mpf(beta) * J
            V = [[[mpmath.mpf(0)] * (two_s + 1) for _ in range(two_s + 1)] for _ in ms]
            for k, m in enumerate(ms):
                V[k][k] = [mpmath.exp(bj * m * m2) for m2 in ms]
            power = _mp_polymat_power(V, N)
            logs = [mpmath.log(mpmath.fsum(c[i][i] for i in range(two_s + 1))) for c in power]
        elif kind == "long_range":
            a = mpmath.mpf(beta) * J / (2 * N)
            power = _mp_polymat_power([[[mpmath.exp(-a * m * m)]] for m in ms], N)
            logs = [mpmath.log(c[0][0]) + a * (N * s - n) ** 2 for n, c in enumerate(power)]
        else:
            raise ValueError(f"no 60-digit oracle for {kind!r}")
        return np.array([float(x) for x in logs])


def assert_same_text(got, expected):
    """Fail, naming the first differing line by number with both texts.

    The message is built here, so a failure between two large files reports
    one line rather than a diff of the whole texts.
    """
    if got == expected:
        return
    got_lines, expected_lines = got.splitlines(keepends=True), expected.splitlines(keepends=True)
    for number, (a, b) in enumerate(zip(got_lines, expected_lines), 1):
        if a != b:
            break
    else:
        number = min(len(got_lines), len(expected_lines)) + 1
        a = got_lines[number - 1] if len(got_lines) >= number else "<end of text>"
        b = expected_lines[number - 1] if len(expected_lines) >= number else "<end of text>"
    raise AssertionError(f"texts differ at line {number}: got {a!r}, expected {b!r}")


def coupling_blocks_oracle(linked):
    """Connected components of an adjacency matrix by breadth-first search.

    Returns sorted index tuples, as build_exact's block finder does.
    """
    n = len(linked)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue, block = collections.deque([start]), []
        while queue:
            i = queue.popleft()
            block.append(i)
            for j in range(n):
                if linked[i][j] and not seen[j]:
                    seen[j] = True
                    queue.append(j)
        blocks.append(tuple(sorted(block)))
    return sorted(blocks)


def twin_classes_oracle(two_spins, couplings):
    """Each spin's lowest twin, comparing every pair of rows entry by entry.

    Spins i and j are twins when they have the same spin and equal couplings
    to every other spin.
    """
    n = len(couplings)
    rep = list(range(n))
    for i in range(n):
        for j in range(i):
            if two_spins[i] == two_spins[j] and all(
                couplings[i][k] == couplings[j][k] for k in range(n) if k not in (i, j)
            ):
                rep[i] = rep[j]
                break
    return rep


def multiplicities(spin_list):
    """Exact integer sector multiplicities via convolution of uniform vectors."""
    acc = np.array([1], dtype=object)
    for s in spin_list:
        acc = np.convolve(acc, np.ones(s.doubled + 1, dtype=object))
    return acc.astype(float)


def figure_panels():
    """The 12 figure-panel configurations: (name, polynomial, probe spin)."""
    panels = []
    for b in (0.0, 1 / 32, 1 / 8, 1.0):
        panels.append(
            (f"fig2 beta={b}", build_exact(spins(5, 2), uniform_couplings(2, 1.0), b), HalfInt(5))
        )
    for b in (0.0, 1 / 8, 2.0, 16.0):
        panels.append((f"fig4 beta={b}", build_long_range(4, HalfInt(1), 1.0, b), HalfInt(1)))
    for b in (0.0, 1 / 8, 1 / 2, 4.0):
        panels.append((f"fig6 beta={b}", build_ring(10, HalfInt(2), 1.0, b), HalfInt(1)))
    return panels


def kappa2_from_coefficients(poly):
    """The variance of n - Ns over the weights p_n, from ``poly.log_coeffs``."""
    lc = poly.log_coeffs
    w = np.exp(lc - np.max(lc))
    dev = poly.two_ns / 2 - np.arange(len(lc))
    return float(np.sum(w * dev**2) / np.sum(w))


def kappa2_from_zeros(zeros):
    """The sum over the roots of |1 - z_k|^-2 = 1 / (4 sin^2(theta_k / 2)), with multiplicity.

    -d^2/dtheta^2 log(Z(e^{i theta}) e^{-i Ns theta}) at 0, so it equals
    kappa2_from_coefficients when the zeros are the polynomial's.
    """
    return sum(m / (4 * math.sin(a / 2) ** 2) for a, m in zeros.clusters)


def kappa2_gap(poly, zeros):
    """The relative gap between kappa_2 from the zeros and from the coefficients."""
    exact = kappa2_from_coefficients(poly)
    return abs(kappa2_from_zeros(zeros) - exact) / exact


def pair_all(predicted, detected, period, window):
    """Greedy nearest-first pairing over every predicted x detected pair.

    The all-pairs form of ``probe.correlate``'s pairing: every pair is sorted
    by (wrapped distance, predicted index, detected index), and pairs beyond
    the window are skipped.  Returns (matches, unmatched predicted,
    unmatched detected), as ``CorrelationReport`` holds them.
    """

    def circular_distance(a, b):
        d = abs(a - b) % period
        return min(d, period - d)

    pairs = sorted(
        (circular_distance(p, t), i, j)
        for i, p in enumerate(predicted)
        for j, (t, _) in enumerate(detected)
    )
    used_p, used_d, matches = set(), set(), []
    for dev, i, j in pairs:
        if dev > window or i in used_p or j in used_d:
            continue
        used_p.add(i)
        used_d.add(j)
        matches.append((predicted[i], detected[j][0], dev))
    return (
        sorted(matches),
        [p for i, p in enumerate(predicted) if i not in used_p],
        [d for j, d in enumerate(detected) if j not in used_d],
    )


def pair_per_predicted(predicted, detected, period, window):
    """``probe.correlate``'s pairing with one array operation per predicted time.

    The reference for the blocked pairing: for each predicted time, the
    distance to every detected time, wrapped around the period, is kept when
    within the window; the kept pairs are then paired greedily in order of
    (distance, predicted index, detected index).  Returns (matches, unmatched
    predicted, unmatched detected, max deviation), as ``CorrelationReport``
    holds them.
    """
    detected_times = np.array([t for t, _ in detected])
    pairs = []
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
    return (
        matches,
        [p for i, p in enumerate(predicted) if i not in used_p],
        [d for j, d in enumerate(detected) if j not in used_d],
        max((m[2] for m in matches), default=0.0),
    )
