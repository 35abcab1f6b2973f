import math

import numpy as np
import pytest

from helpers import splus_matrix, sx_matrix
from leeyang.spins import (
    HalfInt,
    ProbeState,
    ladder_overlap,
    ladder_product_coeff,
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

    def test_invalid_magnitude(self):
        with pytest.raises(ValueError):
            projections(HalfInt(0))
        with pytest.raises(ValueError):
            projections(HalfInt(-2))


class TestLadderProductCoeff:
    def test_spin_half_norm(self):
        assert ladder_product_coeff(HalfInt(1), HalfInt(-1), 1) == 1.0

    def test_spin_one_double_step(self):
        assert ladder_product_coeff(HalfInt(2), HalfInt(-2), 2) == pytest.approx(2.0, abs=1e-15)

    def test_spin_five_half(self):
        got = ladder_product_coeff(HalfInt(5), HalfInt(3), 1)
        assert got == pytest.approx(math.sqrt(5), rel=1e-15)

    @pytest.mark.parametrize("d0", range(1, 11))
    def test_matches_dense_ladder_power(self, d0):
        s0 = HalfInt(d0)
        sp = splus_matrix(d0)
        for delta in range(1, d0 + 1):
            power = np.linalg.matrix_power(sp, delta)
            for k in range(d0 + 1 - delta):
                l = HalfInt(-d0 + 2 * k)
                got = ladder_product_coeff(s0, l, delta)
                assert got == pytest.approx(power[k + delta, k], rel=1e-12)
                assert got > 0

    def test_out_of_range_projection(self):
        with pytest.raises(ValueError):
            ladder_product_coeff(HalfInt(1), HalfInt(1), 1)
        with pytest.raises(ValueError):
            ladder_product_coeff(HalfInt(2), HalfInt(2), 1)

    def test_delta_too_large(self):
        with pytest.raises(ValueError):
            ladder_product_coeff(HalfInt(1), HalfInt(-1), 2)

    def test_delta_not_positive(self):
        with pytest.raises(ValueError):
            ladder_product_coeff(HalfInt(2), HalfInt(0), 0)


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
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ProbeState(HalfInt(1), np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ProbeState(HalfInt(2), np.array([1.0, 0.0]))

    def test_ladder_overlap_is_sx_expectation(self):
        # delta = 1 overlap of the x-polarized state equals <Sx> = s0
        for d0 in (1, 2, 5):
            state = sx_top_eigenstate(HalfInt(d0))
            assert ladder_overlap(state, 1) == pytest.approx(d0 / 2, rel=1e-14)

    def test_ladder_overlap_delta_too_large(self):
        state = sx_top_eigenstate(HalfInt(1))
        with pytest.raises(ValueError):
            ladder_overlap(state, 2)

    def test_ladder_overlap_delta_zero(self):
        with pytest.raises(ValueError, match="delta must be a positive integer"):
            ladder_overlap(sx_top_eigenstate(HalfInt(1)), 0)
