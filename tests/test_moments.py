"""The probe's moments and the Lee-Yang zeros.

The second cumulant of the bath's total projection, kappa_2 = Var(n - Ns)
over the coefficients p_n, is -d^2/dtheta^2 of log(Z(e^{i theta}) e^{-i Ns theta})
at 0, so it is also the power sum over the zeros of 1 / (4 sin^2(theta_k / 2)).
At h0 = 0 the signal's F/F(0) is 1 - x^2 kappa_2 / 2 + O(x^4) in x = lam delta t,
so the curvature of the sampled signal at t = 0 reads the same kappa_2.
"""

import pytest

from helpers import figure_panels, kappa2_from_coefficients, kappa2_from_zeros
from leeyang.probe import expectation_series
from leeyang.spins import sx_top_eigenstate
from leeyang.zeros import find_zeros

PANELS = figure_panels()


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
