"""The probe's moments and the Lee-Yang zeros.

The second cumulant of the bath's total projection, kappa_2 = Var(n - Ns)
over the coefficients p_n, is -d^2/dtheta^2 of log(Z(e^{i theta}) e^{-i Ns theta})
at 0, so it is also the power sum over the zeros of 1 / (4 sin^2(theta_k / 2)).
At h0 = 0 the signal's F/F(0) is 1 - x^2 kappa_2 / 2 + O(x^4) in x = lam delta t,
so the curvature of the sampled signal at t = 0 reads the same kappa_2.

Every even cumulant has such a sum.  log(Z(e^{i theta}) e^{-i Ns theta}) is a sum
of log(1 - e^{i theta} / z_k) up to a constant and a linear term, and each zero
at angle theta_k contributes its images theta_k + 2 pi m to d^n/dtheta^n, so

    kappa_n = -(n-1)! (-1)^(n/2) (2 pi)^(-n) sum_k [zeta(n, t_k) + zeta(n, 1 - t_k)]

with t_k = (theta_k mod 2 pi) / 2 pi and zeta the Hurwitz zeta function.  This
checks the found zeros against the coefficients through no evaluator the
finder uses.
"""

import math

import mpmath
import pytest

from helpers import figure_panels, kappa2_from_coefficients, kappa2_from_zeros
from leeyang.probe import expectation_series
from leeyang.spins import sx_top_eigenstate
from leeyang.zeros import find_zeros

PANELS = figure_panels()


def cumulants_from_coefficients(poly, orders):
    """kappa_n of n - Ns over the weights p_n, in 60-digit arithmetic, for each n in orders."""
    with mpmath.workdps(60):
        top = max(poly.log_coeffs)
        w = [mpmath.exp(mpmath.mpf(lc) - top) for lc in poly.log_coeffs]
        ns = mpmath.mpf(poly.two_ns) / 2
        x = [i - ns for i in range(len(w))]
        total = mpmath.fsum(w)
        moments = [mpmath.fsum(wn * xn**j for wn, xn in zip(w, x)) / total
                   for j in range(max(orders) + 1)]
        kappa = [mpmath.mpf(0)]
        for n in range(1, max(orders) + 1):
            kappa.append(moments[n] - mpmath.fsum(
                math.comb(n - 1, k - 1) * kappa[k] * moments[n - k] for k in range(1, n)
            ))
        return {n: kappa[n] for n in orders}


def cumulant_from_zeros(zeros, n):
    """kappa_n, n even, as the Hurwitz-zeta image sum over the zero clusters."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for angle, mult in zeros.clusters:
            t = mpmath.mpf(angle) / (2 * mpmath.pi)
            t -= mpmath.floor(t)
            total += mult * (mpmath.zeta(n, t) + mpmath.zeta(n, 1 - t))
        return -math.factorial(n - 1) * (-1) ** (n // 2) * (2 * mpmath.pi) ** -n * total


@pytest.mark.parametrize("name, poly, s0", PANELS, ids=[p[0] for p in PANELS])
def test_kappa2_of_the_zeros_is_that_of_the_coefficients(name, poly, s0):
    exact = kappa2_from_coefficients(poly)
    assert kappa2_from_zeros(find_zeros(poly)) == pytest.approx(exact, rel=1e-15, abs=0)


@pytest.mark.parametrize("name, poly, s0", PANELS, ids=[p[0] for p in PANELS])
def test_kappa2_is_the_curvature_of_the_signal(name, poly, s0):
    # c(x) = 2 (1 - F/F(0)) / x^2 = kappa_2 + O(x^2) at the first two samples,
    # x_2 = 2 x_1, so the Richardson value (4 c_1 - c_2) / 3 is kappa_2 + O(x^4)
    ser = expectation_series(poly, sx_top_eigenstate(s0), 1.0, 1)
    x = ser.lam * ser.delta * ser.times[1:3]
    c1, c2 = 2 * (1 - ser.amplitude[1:3]) / x**2
    assert (4 * c1 - c2) / 3 == pytest.approx(kappa2_from_coefficients(poly), rel=1e-9, abs=0)


@pytest.mark.parametrize("name, poly, s0", PANELS, ids=[p[0] for p in PANELS])
def test_kappa4_6_8_of_the_zeros_are_those_of_the_coefficients(name, poly, s0):
    zeros = find_zeros(poly)
    exact = cumulants_from_coefficients(poly, (4, 6, 8))
    for n, rel in ((4, 1e-14), (6, 1e-13), (8, 1e-12)):
        gap = abs(cumulant_from_zeros(zeros, n) / exact[n] - 1)
        assert gap <= rel, (n, float(gap))
