import math
from functools import partial

import numpy as np
import pytest

from helpers import (
    eval_ratio,
    figure_panels,
    probe_coherence_oracle,
    ring_couplings,
    spins,
    uniform_couplings,
)
from leeyang import probe
from leeyang.partition import build_exact, build_long_range, build_ring
from leeyang.probe import correlate, detect_zero_times, expectation_series
from leeyang.spins import HalfInt, ProbeState, ladder_overlap, sx_top_eigenstate
from leeyang.zeros import cosine_series, find_zeros


@pytest.fixture
def two_half_t_inf():
    return build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0)


@pytest.fixture
def triangle_beta_one():
    return build_exact(spins(5, 2), uniform_couplings(2, 1.0), 1.0)


def oracle_baths():
    """Baths of N <= 6 spins up to 3/2: name -> (spins, couplings, builder of beta)."""
    rng = np.random.default_rng(7)
    baths = {}
    for name, spin_list in (("6 x 1/2", spins(1, 6)),
                            ("1/2,1,3/2,1", [HalfInt(d) for d in (1, 2, 3, 2)])):
        upper = np.triu(rng.uniform(0.2, 1.5, (len(spin_list),) * 2), 1)
        J = upper + upper.T
        baths[f"exact {name}"] = (spin_list, J, partial(build_exact, spin_list, J))
    for n, d in ((5, 2), (6, 3)):
        baths[f"ring {n} x {HalfInt(d)}"] = (
            spins(d, n), ring_couplings(n, 0.8), partial(build_ring, n, HalfInt(d), 0.8)
        )
    for n, d in ((6, 1), (4, 3)):
        # all pairs coupled by J/N
        baths[f"long_range {n} x {HalfInt(d)}"] = (
            spins(d, n), uniform_couplings(n, 1.2 / n),
            partial(build_long_range, n, HalfInt(d), 1.2),
        )
    return baths


ORACLE_BATHS = oracle_baths()


class TestExpectationSeries:
    def test_value_at_time_zero(self, two_half_t_inf):
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        assert ser.values[0] == pytest.approx(0.5, abs=1e-14)

    def test_cosine_squared_closed_form(self, two_half_t_inf):
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        expected = 0.5 * np.cos(ser.times / 2) ** 2
        np.testing.assert_allclose(ser.values.real, expected, atol=1e-13)
        assert np.max(np.abs(ser.values.imag)) < 1e-13

    def test_high_spin_intercept(self, triangle_beta_one):
        ser = expectation_series(triangle_beta_one, sx_top_eigenstate(HalfInt(5)), 1.0, 1)
        assert ser.values[0] == pytest.approx(2.5, abs=1e-13)

    def test_delta_exceeding_two_s0(self, two_half_t_inf):
        with pytest.raises(ValueError, match="annihilates"):
            expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 2)

    def test_invalid_grid(self, two_half_t_inf):
        state = sx_top_eigenstate(HalfInt(1))
        with pytest.raises(ValueError):
            expectation_series(two_half_t_inf, state, 1.0, 1, steps=1)
        with pytest.raises(ValueError):
            expectation_series(two_half_t_inf, state, 0.0, 1)

    def test_default_grid_spans_one_period(self, two_half_t_inf):
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 2.0, 1)
        assert len(ser.times) == 4096
        assert ser.times[0] == 0.0
        assert ser.times[-1] < ser.period


class TestSignalInvariants:
    def panels(self):
        yield build_exact(spins(5, 2), uniform_couplings(2, 1.0), 1.0), HalfInt(5)
        yield build_long_range(4, HalfInt(1), 1.0, 2.0), HalfInt(1)
        yield build_ring(10, HalfInt(2), 1.0, 0.125), HalfInt(1)

    def test_reality_with_x_polarized_state(self):
        for poly, s0 in self.panels():
            ser = expectation_series(poly, sx_top_eigenstate(s0), 1.0, 1)
            assert np.max(np.abs(ser.values.imag)) < 1e-12

    def test_boundedness(self):
        for poly, s0 in self.panels():
            ser = expectation_series(poly, sx_top_eigenstate(s0), 1.0, 1)
            assert np.max(np.abs(ser.values)) <= abs(ser.values[0]) + 1e-12

    def test_magnitude_periodicity(self):
        poly = build_ring(6, HalfInt(2), 1.0, 0.7)
        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        t = np.linspace(0.1, 2.0, 17)
        before = np.abs(ser.evaluate(t))
        after = np.abs(ser.evaluate(t + ser.period))
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_delta_compression_of_partition_ratio(self):
        poly = build_exact(spins(5, 2), uniform_couplings(2, 1.0), 0.5)
        state = sx_top_eigenstate(HalfInt(5))
        t = np.linspace(0.0, np.pi, 65)
        s1 = expectation_series(poly, state, 1.0, 1, t_max=2 * np.pi, steps=4)
        s2 = expectation_series(poly, state, 1.0, 2, t_max=np.pi, steps=4)
        from leeyang.spins import ladder_overlap

        r2 = s2.evaluate(t) / ladder_overlap(state, 2)
        r1 = s1.evaluate(2 * t) / ladder_overlap(state, 1)
        np.testing.assert_allclose(r2, r1, atol=1e-12)

    def test_h0_enters_as_pure_phase(self):
        poly = build_exact(spins(1, 2), uniform_couplings(2, 1.0), 1.0)
        state = sx_top_eigenstate(HalfInt(1))
        base = expectation_series(poly, state, 1.0, 1, h0=0.0)
        shifted = expectation_series(poly, state, 1.0, 1, h0=0.7)
        phase = np.exp(-1j * 0.7 * base.times)
        np.testing.assert_allclose(shifted.values, base.values * phase, atol=1e-13)

    @pytest.mark.parametrize("h0", [0.0, 0.7])
    def test_signal_is_partition_ratio_at_complex_field(self, h0):
        # the oracle: complex Horner evaluation of Z(z)/Z(1) at z = exp(-i lam delta t)
        t = np.linspace(0.0, 7.0, 97)
        for name, poly, s0 in figure_panels():
            state = sx_top_eigenstate(s0)
            for delta in range(1, min(2, s0.doubled) + 1):
                ser = expectation_series(poly, state, 1.0, delta, h0=h0, steps=2)
                ns = poly.two_ns / 2
                expected = (
                    ladder_overlap(state, delta)
                    * np.exp(1j * (ns - h0) * delta * t)
                    * eval_ratio(poly, np.exp(-1j * delta * t))
                )
                np.testing.assert_allclose(
                    ser.evaluate(t), expected, rtol=0, atol=1e-13, err_msg=f"{name} delta={delta}"
                )

    @pytest.mark.parametrize("h0", [0.0, 0.7])
    @pytest.mark.parametrize("bath", ORACLE_BATHS)
    def test_signal_matches_quantum_dynamics_oracle(self, bath, h0):
        # the oracle: explicit evolution of the probe in every bath configuration
        rng = np.random.default_rng(7)
        spin_list, couplings, build = ORACLE_BATHS[bath]
        beta, lam = 0.6, 1.3
        poly = build(beta)
        t = np.linspace(0.0, 9.0, 41)
        for d0 in (1, 2, 3):
            amps = rng.normal(size=d0 + 1) + 1j * rng.normal(size=d0 + 1)
            state = ProbeState(HalfInt(d0), amps / np.linalg.norm(amps))
            for delta in range(1, d0 + 1):
                ser = expectation_series(poly, state, lam, delta, h0=h0, steps=2)
                np.testing.assert_allclose(
                    ser.evaluate(t),
                    probe_coherence_oracle(spin_list, couplings, beta, state, lam, h0, delta, t),
                    rtol=0, atol=1e-12, err_msg=f"2s0={d0} delta={delta}",
                )


class TestDetectZeroTimes:
    def test_cosine_squared_touching_zero(self, two_half_t_inf):
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        detected = detect_zero_times(ser, 1e-6)
        assert len(detected) == 1
        t, residual = detected[0]
        assert t == pytest.approx(np.pi, abs=1e-9)
        assert residual < 1e-12

    def test_sign_change_zero_single_spin_bath(self):
        poly = build_exact(spins(1, 1), np.zeros((1, 1)), 0.0)
        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        expected = 0.5 * np.cos(ser.times / 2)
        np.testing.assert_allclose(ser.values.real, expected, atol=1e-13)
        detected = detect_zero_times(ser, 1e-6)
        assert len(detected) == 1
        assert detected[0][0] == pytest.approx(np.pi, abs=1e-12)

    def test_no_zeros_in_window(self, two_half_t_inf):
        # restrict the grid to a region where the signal stays above 0.1
        ser = expectation_series(
            two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 1, t_max=1.5, steps=512
        )
        assert np.min(np.abs(ser.values)) > 0.1
        assert detect_zero_times(ser, 1e-6) == []

    def test_state_without_coherence_refused(self, two_half_t_inf):
        state = ProbeState(HalfInt(1), np.array([1.0, 0.0]))
        ser = expectation_series(two_half_t_inf, state, 1.0, 1)
        assert np.all(ser.values == 0)
        with pytest.raises(ValueError, match="no coherence"):
            detect_zero_times(ser, 1e-6)

    @pytest.mark.parametrize("poly", [
        build_ring(10, HalfInt(2), 1.0, 1 / 8), build_long_range(4, HalfInt(1), 1.0, 1 / 8),
    ], ids=["fig6 beta=1/8", "fig4 beta=1/8"])
    def test_complex_overlap_detects_same_times(self, poly):
        x_state = sx_top_eigenstate(HalfInt(1))
        y_state = ProbeState(HalfInt(1), np.array([1.0, 1j]) / np.sqrt(2))
        x_times = [t for t, _ in detect_zero_times(expectation_series(poly, x_state, 1.0, 1))]
        y_times = [t for t, _ in detect_zero_times(expectation_series(poly, y_state, 1.0, 1))]
        assert len(y_times) == len(x_times) == poly.two_ns
        np.testing.assert_allclose(y_times, x_times, rtol=0, atol=1e-12)

    def test_flat_zero_detected_once(self):
        # (1 + z)^12: one 12-fold zero at t = pi, flat to rounding over +-0.2
        poly = build_long_range(12, HalfInt(1), 1.0, 0.0)
        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        detected = detect_zero_times(ser, 1e-6)
        assert len(detected) == 1
        assert detected[0][0] == pytest.approx(np.pi, abs=1e-6)

    def test_multiple_zero_centred(self):
        # identical blocks make every zero as multiple as the block count:
        # three or four blocks a sign change, two or four a touching zero.
        # Each is a simple zero of the block's factor.
        worst = 0.0
        shapes = ((1, 3, 4), (2, 3, 2), (1, 2, 4), (1, 4, 2), (1, 2, 6), (1, 4, 3))
        for seed in range(1, 61):
            rng = np.random.default_rng(seed)
            for two_s, blocks, size in shapes:
                upper = np.triu(rng.uniform(0.5, 1.5, (size, size)), 1)
                couplings = np.kron(np.eye(blocks), upper + upper.T)
                poly = build_exact(spins(two_s, blocks * size), couplings, 0.5)
                zs = find_zeros(poly)
                assert {m for _, m in zs.clusters} == {blocks}
                ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
                report = correlate(zs, ser)
                assert report.all_matched, f"seed {seed}, 2s={two_s}, {blocks}x{size}"
                worst = max(worst, report.max_deviation / report.window)
        assert worst <= 1e-6

    @pytest.mark.parametrize("n", [20, 30, 60, 100])
    def test_free_spins_match_at_the_base_window(self, n):
        # cos(x/2)^n at T = inf: one n-fold zero at t = pi
        poly = build_exact(spins(1, n), np.zeros((n, n)), 0.0)
        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        report = correlate(find_zeros(poly), ser, window=1e-6)
        assert report.window == 1e-6
        assert report.all_matched and not report.unmatched_detected
        assert abs(report.matches[0][1] - np.pi) <= 1e-12

    def test_small_beta_split_baths_match(self):
        # at small beta the zeros of a block sit close together, and each is
        # as multiple as the block count
        rng = np.random.default_rng(0)
        for trial in range(40):
            blocks, size = [(4, 3), (3, 4), (5, 3), (2, 6), (4, 2)][trial % 5]
            beta = rng.uniform(0.05, 0.6)
            upper = np.triu(rng.uniform(0.2, 1.5, (size, size)), 1)
            couplings = np.kron(np.eye(blocks), upper + upper.T)
            poly = build_exact(spins(1, blocks * size), couplings, beta)
            ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
            report = correlate(find_zeros(poly), ser, window=1e-6)
            assert report.all_matched, f"trial {trial}: {blocks}x{size}, beta={beta}"

    @pytest.mark.parametrize("poly", [
        build_long_range(12, HalfInt(1), 1.0, 0.0),
        build_long_range(4, HalfInt(3), 1.0, 0.0),
        build_ring(6, HalfInt(2), 1.0, 0.0),
        build_ring(10, HalfInt(2), 1.0, 0.0),
    ], ids=["long_range 2s=1 N=12", "long_range 2s=3 N=4", "ring 2s=2 N=6", "fig6 beta=0"])
    def test_multiple_zero_has_fixed_cost(self, poly, monkeypatch):
        # a multiple zero is a simple zero of one factor, solved by a
        # bracketed root at a fixed cost however flat the product is there
        scalar_calls = 0

        def counting(k, w, x):
            nonlocal scalar_calls
            scalar_calls += np.ndim(x) == 0
            return cosine_series(k, w, x)

        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        monkeypatch.setattr(probe, "cosine_series", counting)
        detected = detect_zero_times(ser)
        assert len(detected) == len(find_zeros(poly).clusters)
        assert scalar_calls <= 40 * len(detected)

    def test_invalid_tolerance(self, two_half_t_inf):
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        with pytest.raises(ValueError):
            detect_zero_times(ser, 0.0)

    def test_simple_root_refinement_accuracy(self, triangle_beta_one):
        zs = find_zeros(triangle_beta_one)
        ser = expectation_series(triangle_beta_one, sx_top_eigenstate(HalfInt(5)), 1.0, 1)
        detected = detect_zero_times(ser, 1e-6)
        predicted = np.mod(-zs.angles, 2 * np.pi)
        assert len(detected) == len(predicted)
        for t, residual in detected:
            assert np.min(np.abs(np.sort(predicted) - t)) < 1e-8
            assert residual < 1e-10


class TestCorrelate:
    def test_triangle_beta_one_end_to_end(self, triangle_beta_one):
        zs = find_zeros(triangle_beta_one)
        ser = expectation_series(triangle_beta_one, sx_top_eigenstate(HalfInt(5)), 1.0, 1)
        report = correlate(zs, ser)
        assert report.all_matched
        assert not report.unmatched_detected
        assert report.max_deviation < 1e-6

    def test_degenerate_roots_merge_predictions(self):
        poly = build_exact(spins(5, 2), uniform_couplings(2, 1.0), 0.0)
        zs = find_zeros(poly)
        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(5)), 1.0, 1)
        report = correlate(zs, ser)
        assert len(report.predicted) == 5
        assert len(report.detected) == 5
        assert report.all_matched
        assert report.max_deviation < 1e-6

    def test_one_prediction_per_cluster(self):
        # (1 + z + z^2)^6: two zeros, each of multiplicity 6
        poly = build_ring(6, HalfInt(2), 1.0, 0.0)
        zs = find_zeros(poly)
        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        report = correlate(zs, ser)
        assert report.predicted == sorted(np.mod(-a, 2 * np.pi) for a, _ in zs.clusters)
        assert report.all_matched

    def test_lambda_metadata_mismatch(self, triangle_beta_one):
        zs = find_zeros(triangle_beta_one)
        ser = expectation_series(triangle_beta_one, sx_top_eigenstate(HalfInt(5)), 1.0, 1)
        with pytest.raises(ValueError, match="lambda"):
            correlate(zs, ser, lam=2.0)
        with pytest.raises(ValueError, match="delta"):
            correlate(zs, ser, delta=2)

    def test_susceptibility_channel_times_halved(self, triangle_beta_one):
        state = sx_top_eigenstate(HalfInt(5))
        s1 = expectation_series(triangle_beta_one, state, 1.0, 1)
        s2 = expectation_series(triangle_beta_one, state, 1.0, 2)
        t1 = np.array([t for t, _ in detect_zero_times(s1, 1e-6)])
        t2 = np.array([t for t, _ in detect_zero_times(s2, 1e-6)])
        np.testing.assert_allclose(np.sort(t2), np.sort(t1) / 2, atol=1e-9)
