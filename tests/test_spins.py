import math
import re
from fractions import Fraction

import numpy as np
import pytest

from helpers import splus_matrix, sx_matrix
from leeyang.spins import (
    HalfInt,
    ProbeState,
    _ladder,
    ladder_overlap,
    projections,
    sx_top_eigenstate,
)


class TestHalfInt:
    def test_make_and_float(self):
        assert float(HalfInt(5)) == 2.5
        assert str(HalfInt(5)) == "5/2"
        assert str(HalfInt(4)) == "2"


class TestProjections:
    def test_spin_half(self):
        assert [float(m) for m in projections(HalfInt(1))] == [-0.5, 0.5]

    def test_spin_one(self):
        assert [float(m) for m in projections(HalfInt(2))] == [-1, 0, 1]

    def test_spin_five_half_count(self):
        assert len(projections(HalfInt(5))) == 6

class TestLadder:
    def test_spin_half_norm(self):
        assert math.ldexp(*_ladder(1, 0, 1)) == 1.0

    def test_spin_one_double_step(self):
        assert math.ldexp(*_ladder(2, 0, 2)) == pytest.approx(2.0, abs=1e-15)

    def test_spin_five_half(self):
        # l = 3/2, so k = s0 + l = 4
        assert math.ldexp(*_ladder(5, 4, 1)) == pytest.approx(math.sqrt(5), rel=1e-15)

    @pytest.mark.parametrize("d0", range(1, 11))
    def test_matches_dense_ladder_power(self, d0):
        sp = splus_matrix(d0)
        for delta in range(1, d0 + 1):
            power = np.linalg.matrix_power(sp, delta)
            for k in range(d0 + 1 - delta):
                got = math.ldexp(*_ladder(d0, k, delta))
                assert got == pytest.approx(power[k + delta, k], rel=1e-12)
                assert got > 0

    @pytest.mark.parametrize("d0, delta", [(200, 150), (200, 200), (300, 120), (1029, 60)])
    def test_every_coefficient_of_a_large_spin(self, d0, delta):
        # r * 2**j is sqrt(p) to an ulp of r, scaled, for p = perm(2s0 - k, delta)
        # perm(k + delta, delta), past the float range of p and of sqrt(p)
        for k in range(d0 + 1 - delta):
            p = math.perm(d0 - k, delta) * math.perm(k + delta, delta)
            r, j = _ladder(d0, k, delta)
            got, ulp = Fraction(r) * 2**j, Fraction(math.ulp(r)) * 2**j
            assert (got - ulp) ** 2 <= p <= (got + ulp) ** 2
            if math.log(p) / 2 < math.log(np.finfo(float).max):
                assert Fraction(math.ldexp(r, j)) == got


class TestSxTopEigenstate:
    def test_spin_half(self):
        amps = sx_top_eigenstate(HalfInt(1)).amplitudes
        np.testing.assert_allclose(amps.real, [1 / math.sqrt(2)] * 2, rtol=1e-15)

    def test_spin_one(self):
        amps = sx_top_eigenstate(HalfInt(2)).amplitudes
        np.testing.assert_allclose(amps.real, [0.5, 1 / math.sqrt(2), 0.5], rtol=1e-15)

    def test_spin_five_half_amplitudes(self):
        amps = sx_top_eigenstate(HalfInt(5)).amplitudes
        assert amps[-1].real == pytest.approx(2 ** -2.5, rel=1e-15)
        assert amps[2].real == pytest.approx(2 ** -2.5 * math.sqrt(10), rel=1e-15)

    @pytest.mark.parametrize("d0", range(1, 11))
    def test_eigenvector_residual(self, d0):
        state = sx_top_eigenstate(HalfInt(d0))
        a = state.amplitudes
        assert abs(np.sum(np.abs(a) ** 2) - 1) < 1e-14
        residual = np.linalg.norm(sx_matrix(d0) @ a - (d0 / 2) * a)
        assert residual < 1e-12

    @pytest.mark.parametrize("d0", range(1, 11))
    def test_matches_dense_diagonalization(self, d0):
        vals, vecs = np.linalg.eigh(sx_matrix(d0))
        top = vecs[:, -1]
        top *= np.sign(top[np.argmax(np.abs(top))])
        np.testing.assert_allclose(
            sx_top_eigenstate(HalfInt(d0)).amplitudes.real, top, atol=1e-12
        )

    def test_mirror_symmetry(self):
        amps = sx_top_eigenstate(HalfInt(7)).amplitudes
        np.testing.assert_allclose(amps, amps[::-1], rtol=1e-15)


class TestProbeState:
    def test_ladder_overlap_is_sx_expectation(self):
        # delta = 1 overlap of the x-polarized state equals <Sx> = s0
        for d0 in (1, 2, 5):
            state = sx_top_eigenstate(HalfInt(d0))
            assert ladder_overlap(state, 1) == pytest.approx(d0 / 2, rel=1e-14)

    @pytest.mark.parametrize("d0", [*range(1, 394, 7), 1500], ids=lambda d0: f"2s0={d0}")
    def test_ladder_overlap_of_sx_state_is_closed_form(self, d0):
        # <(S+)^delta> = perm(2s0, delta) / 2^delta for the Sx top eigenstate
        state = sx_top_eigenstate(HalfInt(d0))
        for delta in range(1, min(d0, 40) + 1):
            exact = math.perm(d0, delta) / 2**delta
            assert ladder_overlap(state, delta) == pytest.approx(exact, rel=4e-15, abs=0)

    @pytest.mark.parametrize("d0, last", [(200, 186), (1024, 114)])
    def test_ladder_overlap_near_the_float_maximum(self, d0, last):
        # every finite <(S+)^delta> = perm(2s0, delta) / 2^delta (about 9.2e307 at
        # (200, 186)), though at 2s0 = 200 a matrix element passes the float range
        # from delta = 159 on
        state = sx_top_eigenstate(HalfInt(d0))
        for delta in range(1, last + 1):
            exact = math.perm(d0, delta) / 2**delta
            assert ladder_overlap(state, delta) == pytest.approx(exact, rel=4e-15, abs=0)

    @pytest.mark.parametrize("d0, delta, message", [
        # perm(200, 187) / 2^187 is about 6.5e308; 200! / 2^200 about 4.9e314
        (200, 187, "<(S+)^187> of a spin 2s0 = 200 exceeds the float range"),
        (200, 200, "<(S+)^200> of a spin 2s0 = 200 exceeds the float range"),
        (1, 2, "delta=2 exceeds 2*s0=1: operator annihilates"),
        (1, 0, "delta must be a positive integer, got 0"),
    ], ids=["past-the-float-range", "all-of-2s0", "delta-too-large", "delta-zero"])
    def test_ladder_overlap_refused(self, d0, delta, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ladder_overlap(sx_top_eigenstate(HalfInt(d0)), delta)


@pytest.mark.parametrize("make, args, message", [
    (projections, (HalfInt(0),), "invalid spin magnitude 0: must be >= 1/2"),
    (projections, (HalfInt(-2),), "invalid spin magnitude -1: must be >= 1/2"),
    (ProbeState, (HalfInt(1), np.array([1.0, 1.0])), "state not normalized: sum|a_m|^2 = 2.0"),
    (ProbeState, (HalfInt(1), np.array([math.nan, math.nan])),
     "state not normalized: sum|a_m|^2 = nan"),
    (ProbeState, (HalfInt(1), np.array([math.nan, 1])), "state not normalized: sum|a_m|^2 = nan"),
    (ProbeState, (HalfInt(2), np.array([1.0, 0.0])), "expected 3 amplitudes, got (2,)"),
], ids=["spin-zero", "negative-spin", "unnormalized", "nan-nan", "nan-1", "wrong-length"])
def test_malformed_spin_or_state_refused(make, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(*args)
