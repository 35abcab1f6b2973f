import math
import re
import time
import tracemalloc
from functools import partial
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from helpers import (
    THREE_SPIN_PATH,
    block_diagonal,
    eval_ratio,
    figure_panels,
    log_coeffs_60_digits,
    pair_all,
    pair_per_predicted,
    probe_coherence_oracle,
    ring_couplings,
    spins,
    uniform_couplings,
)
from leeyang import probe
from leeyang.partition import PartitionPolynomial, build_exact, build_long_range, build_ring
from leeyang.probe import correlate, detect_zero_times, expectation_series
from leeyang.spins import HalfInt, ProbeState, ladder_overlap, sx_top_eigenstate
from leeyang.zeros import Factor, cosine_series, find_zeros


@pytest.fixture
def two_half_t_inf():
    return build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0)


TRIANGLE = np.array([[0.0, 0.4, 0.9], [0.4, 0.0, 1.3], [0.9, 1.3, 0.0]])


def spin_half_blocks(blocks, beta):
    """Spin-1/2 bath of (size, J) blocks, all-to-all J within each block."""
    couplings = block_diagonal(*(uniform_couplings(size, J) for size, J in blocks))
    return build_exact(spins(1, len(couplings)), couplings, beta)


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


def one_factor_of(blocks):
    """Blocks that differ in their bytes, whose polynomials form one factor of their count."""
    return lambda zeros, series, report: (
        len({block.tobytes() for block in blocks}) == 2
        and [c for _, c in series.poly.factors] == [len(blocks)]
        and {m for _, m in zeros.clusters} == {len(blocks)})


def steps_apart(gap):
    """The closest predicted times lie ``gap`` grid steps apart, to 0.01."""
    return lambda zeros, series, report: abs(
        np.diff(report.predicted).min() * len(series.times) / series.period - gap) <= 0.01


def at_pi(zeros, series, report):
    return report.predicted == [math.pi]


def correlated(name, poly, count, check=None, deviation=1e-9, residual=1e-10, s0=HalfInt(1),
               lam=1.0):
    """A row of ``test_correlation_matches_every_zero``; the bounds default to the panels'."""
    return pytest.param(poly, s0, lam, count, deviation, residual, check, id=name)


# distinct zero times of each figure at beta = 0: the (2s+1)-th roots of unity but 1
PANEL_TIMES_AT_T_INF = {"fig2": 5, "fig4": 1, "fig6": 2}
CORRELATIONS = [
    *(correlated(f"{name}-{lam}", poly, PANEL_TIMES_AT_T_INF[name[:4]] if poly.beta == 0
                 else poly.two_ns, s0=s0, lam=lam)
      for lam in (1.0, 1e12) for name, poly, s0 in figure_panels()),
    # cos^2(x/2): a touching zero at pi
    correlated("2 free spins", build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0), 1, at_pi,
               residual=1e-12),
    # cos(x/2): a sign change at pi
    correlated("1 free spin", build_exact(spins(1, 1), np.zeros((1, 1)), 0.0), 1, at_pi,
               deviation=1e-12),
    # (1 + z)^12: one 12-fold zero at pi, flat to rounding over +-0.2
    correlated("long_range 2s=1 N=12 T=inf", build_long_range(12, HalfInt(1), 1.0, 0.0), 1, at_pi,
               deviation=1e-6),
    # cos(x/2)^n: one n-fold zero at pi; from n = 200 on the sampled
    # product underflows to 0 around it
    *(correlated(f"{n} free spins", build_exact(spins(1, n), np.zeros((n, n)), 0.0), 1, at_pi,
                 deviation=1e-12) for n in (20, 30, 60, 100, 200, 1000)),
    # every zero is as multiple as a factor's count, and the sampled product
    # underflows to 0 over a stretch of the grid around it
    *(correlated(name, poly, count, lambda zeros, series, report: np.any(series.values[1:] == 0))
      for name, poly, count in [
          *((f"long_range N={n}", build_long_range(n, HalfInt(1), 1.0, 0.0), 1)
            for n in (150, 200, 400)),
          *((f"{n} pairs beta=0.5", build_exact(
              spins(1, 2 * n), np.kron(np.eye(n), uniform_couplings(2, 1.0)), 0.5), 2)
            for n in (100, 200))]),
    # blocks of 3 and 5 spins have odd degree, so both factors vanish at pi;
    # their two solves differ by rounding (by 4e-11 at beta = 1e-3, where pi
    # is ill-conditioned), and only one is reported
    *(correlated(f"3+5 beta={beta}", spin_half_blocks(blocks, beta), 7,
                 lambda zeros, series, report: len(series.poly.factors) == 2)
      for blocks, beta in [([(3, 1.0), (5, 1.0)], 0.5), ([(3, 0.5), (5, 1.3)], 1e-3)]),
    # two pairs with J = 1 and j2 at beta = 1 have zeros under a grid step
    # apart; each is a sign change of its own factor
    *(correlated(f"pairs J=1 and {j2}", spin_half_blocks([(2, 1.0), (2, j2)], 1.0), 4,
                 steps_apart(gap)) for j2, gap in [(1.004, 0.99), (1.002, 0.50), (1.0005, 0.12)]),
    # 64 pairs with J uniform in [0.5, 1.5]: 128 zeros in 4096 steps, some of
    # them a fraction of a grid step apart
    correlated("64 random pairs", spin_half_blocks(
        [(2, j) for j in np.random.default_rng(0).uniform(0.5, 1.5, 64)], 1.0), 128),
    # two 3-spin blocks share the zero at pi, and at this small beta their
    # other zeros lie 0.21 grid steps apart
    correlated("3+3 beta=0.0064", spin_half_blocks([(3, 1.125), (3, 1.12)], 0.0064), 5),
    # (1 + z + z^2)^6: two zeros, each of multiplicity 6, and one time each
    correlated("ring 2s=2 N=6 T=inf", build_ring(6, HalfInt(2), 1.0, 0.0), 2,
               lambda zeros, series, report: report.predicted == sorted(
                   np.mod(-a, 2 * np.pi) for a, _ in zeros.clusters)),
    # blocks whose couplings differ in their bytes but whose polynomials are
    # equal: two triangles with the same couplings on relabelled spins, and a
    # 3-spin path on either side of its mirror image
    *(correlated(name, build_exact(spins(two_s, 3 * len(blocks)), block_diagonal(*blocks), beta),
                 count, one_factor_of(blocks)) for name, two_s, blocks, beta, count in [
        ("permuted triangles", 1, [TRIANGLE, TRIANGLE[np.ix_([2, 0, 1], [2, 0, 1])]], 0.7, 3),
        ("mirror-image paths", 2, [THREE_SPIN_PATH, THREE_SPIN_PATH[::-1, ::-1], THREE_SPIN_PATH],
         0.5, 6),
    ]),
]


class TestExpectationSeries:
    @pytest.mark.parametrize("poly, s0, samples, f, atol", [
        (build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0), HalfInt(1), slice(1),
         lambda t: 0.5, 1e-14),
        (build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0), HalfInt(1), slice(None),
         lambda t: 0.5 * np.cos(t / 2) ** 2, 1e-13),
        (build_exact(spins(1, 1), np.zeros((1, 1)), 0.0), HalfInt(1), slice(None),
         lambda t: 0.5 * np.cos(t / 2), 1e-13),
        (build_exact(spins(5, 2), uniform_couplings(2, 1.0), 1.0), HalfInt(5), slice(1),
         lambda t: 2.5, 1e-13),
    ], ids=["2 free spins at t=0", "2 free spins", "1 free spin", "pair 5/2 beta=1 at t=0"])
    def test_closed_form_series(self, poly, s0, samples, f, atol):
        ser = expectation_series(poly, sx_top_eigenstate(s0), 1.0, 1)
        assert np.all(np.abs(ser.values[samples] - f(ser.times[samples])) < atol)

    @pytest.mark.parametrize("lam, delta, t_max, steps, message", [
        (math.nan, 1, None, 4096, "lam must be finite and positive, got nan"),
        (math.inf, 1, None, 4096, "lam must be finite and positive, got inf"),
        (-1.0, 1, None, 4096, "lam must be finite and positive, got -1.0"),
        (0.0, 1, None, 4096, "lam must be finite and positive, got 0.0"),
        (1.0, 1, math.nan, 4096, "t_max must be finite and positive, got nan"),
        (1.0, 1, math.inf, 4096, "t_max must be finite and positive, got inf"),
        (1.0, 1, -1.0, 4096, "t_max must be finite and positive, got -1.0"),
        (1e-320, 1, None, 4096,
         "the period 2pi/(lam*delta) must be finite and positive, got lam = 1e-320, delta = 1"),
        (1.0, 1, None, 1, "steps must be an integer >= 2, got 1"),
        (1.0, 2, None, 4096, "delta=2 exceeds 2*s0=1: operator annihilates"),
    ], ids=["lam-nan", "lam-inf", "lam-negative", "lam-zero", "t_max-nan", "t_max-inf",
            "t_max-negative", "default-t_max-overflows", "one-step", "delta-exceeds-2s0"])
    def test_non_finite_grid_rejected(self, two_half_t_inf, lam, delta, t_max, steps, message):
        state = sx_top_eigenstate(HalfInt(1))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            expectation_series(two_half_t_inf, state, lam, delta, t_max=t_max, steps=steps)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("poly, lam, t_max, h0, name", [
        (build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0), 1e300, 1e300, 0.0,
         "(2Ns/2)*lam*delta*t_max"),
        # k = 4 overflows a finite lam*delta*t_max
        (build_ring(4, HalfInt(2), 1.0, 0.5), 1.0, 1e308, 0.0, "(2Ns/2)*lam*delta*t_max"),
        # the default t_max, 2pi/1e-300
        (build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0), 1e-300, None, 1e10,
         "|h0|*delta*t_max"),
        (build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0), 1.0, None, math.nan,
         "|h0|*delta*t_max"),
    ], ids=["lam-and-t_max-1e300", "ring-k-times-t_max-1e308", "h0-1e10-lam-1e-300", "nan-h0"])
    def test_sample_phase_overflow_rejected(self, poly, lam, t_max, h0, name):
        state = sx_top_eigenstate(HalfInt(1))
        with pytest.raises(ValueError, match=re.escape(f"sample phase {name} must be finite")):
            expectation_series(poly, state, lam, 1, h0, t_max)

    @pytest.mark.parametrize("poly, state, delta, h0", [
        (build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0),
         sx_top_eigenstate(HalfInt(1)), 1, 0.0),
        (build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0),
         sx_top_eigenstate(HalfInt(1)), 1, 0.7),
        (build_exact(spins(5, 2), uniform_couplings(2, 1.0), 1.0),
         sx_top_eigenstate(HalfInt(5)), 2, 0.0),
        (build_exact(spins(5, 2), uniform_couplings(2, 1.0), 1.0),
         sx_top_eigenstate(HalfInt(5)), 1, 0.7),
        (build_ring(6, HalfInt(2), 1.0, 0.5),
         ProbeState(HalfInt(2), [0.6, 0.48j, 0.64]), 1, 0.7),
        (build_ring(6, HalfInt(2), 1.0, 0.5),
         ProbeState(HalfInt(2), [0.6, 0.48j, 0.64]), 2, 0.0),
        (spin_half_blocks([(3, 1.0), (5, 1.0)], 0.5), sx_top_eigenstate(HalfInt(1)), 1, 0.0),
        (spin_half_blocks([(3, 1.0), (5, 1.0)], 0.5), sx_top_eigenstate(HalfInt(1)), 1, 0.7),
    ], ids=[
        "2s0=1-h0=0", "2s0=1-h0=0.7", "2s0=5-delta=2-h0=0", "2s0=5-h0=0.7",
        "complex-amplitudes-h0=0.7", "complex-amplitudes-delta=2-h0=0",
        "split-bath-h0=0", "split-bath-h0=0.7",
    ])
    def test_values_formed_on_read_equal_the_eager_signal(self, poly, state, delta, h0):
        ser = expectation_series(poly, state, 1.0, delta, h0)
        assert "values" not in ser.__dict__
        x = 1.0 * delta * ser.times
        amplitude = 1
        for factor in poly.factors:
            k, w = factor.terms
            g = cosine_series(k.astype(float), (w / w.sum()).astype(float), x)
            amplitude = amplitude * probe._power(g, factor.count)
        eager = ladder_overlap(state, delta) * np.exp(-1j * h0 * delta * ser.times) * amplitude
        # compared as bits, so that signed zeros and NaN count
        assert np.array_equal(ser.values.view(np.uint64), eager.view(np.uint64))
        assert ser.values is ser.values

    @pytest.mark.parametrize("poly", [
        spin_half_blocks([(3, 1.0), (5, 1.0)], 0.5),
        build_long_range(4, HalfInt(3), 1.0, 0.0),
        build_ring(6, HalfInt(2), 1.0, 0.3),
    ], ids=["3+5 split bath", "closed form", "ring"])
    def test_each_factor_forms_its_terms_once(self, poly, monkeypatch):
        # the zero finder, the series and detection all read one record per
        # factor, so its extended-precision terms are formed once in all
        formed = []
        terms = Factor.terms.func

        def counting(factor):
            formed.append(id(factor))
            return terms(factor)

        monkeypatch.setattr(Factor.terms, "func", counting)
        zeros = find_zeros(poly)
        series = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        assert correlate(zeros, series).all_matched
        assert sorted(formed) == sorted(id(factor) for factor in poly.factors)

    def test_default_grid_spans_one_period(self, two_half_t_inf):
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 2.0, 1)
        assert len(ser.times) == 4096
        assert ser.times[0] == 0.0
        assert ser.times[-1] < ser.period


def test_power_matches_libm_pow():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 1.5, 257) * rng.choice([-1.0, 1.0], 257)
    eps = np.finfo(float).eps
    for n in range(1, 65):
        for base in (x, *x[:8]):  # the array, and scalars
            expected = base**n
            assert np.all(np.abs(probe._power(base, n) - expected) <= 2 * n * eps * np.abs(expected))


class TestSignalInvariants:
    def test_real_and_bounded_with_x_polarized_state(self):
        for _, poly, s0 in figure_panels():
            ser = expectation_series(poly, sx_top_eigenstate(s0), 1.0, 1)
            assert np.max(np.abs(ser.values.imag)) < 1e-12
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

    @pytest.mark.parametrize("poly", [
        build_ring(10, HalfInt(2), 1.0, 1 / 8), build_ring(10, HalfInt(2), 1.0, 0.5),
        build_ring(10, HalfInt(2), 1.0, 4.0), build_long_range(4, HalfInt(1), 1.0, 16.0),
        build_exact(spins(5, 2), uniform_couplings(2, 1.0), 1.0),
    ], ids=["ring 2s=2 N=10 beta=1/8", "ring 2s=2 N=10 beta=0.5", "ring 2s=2 N=10 beta=4",
            "long_range 2s=1 N=4 beta=16", "exact 2s=5 N=2 beta=1"])
    def test_scalar_time_evaluates_the_array_element_bits(self, poly):
        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1, h0=0.3, steps=2)
        t = np.random.default_rng(11).uniform(0.0, 2 * ser.period, 500)
        grid = ser.evaluate(t)
        for i, ti in enumerate(t.tolist()):
            scalar = ser.evaluate(ti)
            assert scalar.real.view(np.uint64) == grid[i].real.view(np.uint64)
            assert scalar.imag.view(np.uint64) == grid[i].imag.view(np.uint64)

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
    @pytest.mark.parametrize("poly, t_max, steps, check", [
        # a grid over which the signal stays above 0.1
        (build_exact(spins(1, 2), uniform_couplings(2, 1.0), 0.0), 1.5, 512,
         lambda v: np.min(np.abs(v)) > 0.1),
        # 1 + 3z + z^2: F = 3 + 2 cos(x) has a minimum of 1/5 F(0) at x = pi
        (PartitionPolynomial(0.0, [(np.log([1.0, 3.0, 1.0]), 1)], {}), None, 4096,
         lambda v: np.argmin(np.abs(v)) == len(v) // 2),
    ], ids=["no zero in the window", "minimum without sign change"])
    def test_no_zero_detected(self, poly, t_max, steps, check):
        state = sx_top_eigenstate(HalfInt(1))
        ser = expectation_series(poly, state, 1.0, 1, t_max=t_max, steps=steps)
        assert check(ser.values)
        assert detect_zero_times(ser) == []

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9])
    def test_zero_in_last_grid_interval_detected(self, p):
        # t_max lies p steps past t0: for p > 1, t0 lies in the interval before
        # the last sample, and for p < 1 between the last sample and t_max
        poly = build_long_range(4, HalfInt(1), 1.0, 1 / 8)
        t0 = sorted(find_zeros(poly).times(1.0, 1))[1]
        ser = expectation_series(
            poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1, t_max=t0 * 64 / (64 - p), steps=64
        )
        last = len(ser.times) - 1
        lo = last if p < 1 else last - 1
        assert lo < t0 / ser.times[1] < lo + 1
        detected = np.array([t for t, _ in detect_zero_times(ser, 1e-6)])
        assert np.min(np.abs(detected - t0)) <= 1e-12

    def test_detection_evaluates_no_sample_angle(self, monkeypatch):
        # the sampling pass keeps each factor's values at its brackets' ends,
        # so detection evaluates a factor at no sample angle and not at t_max
        poly = build_ring(10, HalfInt(2), 1.0, 1 / 8)
        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        # lam*delta = 1, so the sample angles are the sample times and t_max
        samples = set(np.linspace(0.0, ser.period, len(ser.times) + 1).tolist())
        calls = []

        def recorded(F):
            def call(x):
                calls.append(x)
                return F(x)

            return call

        for factor, (a, b, fa, fb) in zip(poly.factors, ser.brackets):
            # the kept values are the ones the solve's own evaluator gives
            assert [factor.scalar(x) for x in a.tolist()] == fa.tolist()
            assert [factor.scalar(x) for x in b.tolist()] == fb.tolist()
            monkeypatch.setattr(factor, "scalar", recorded(factor.scalar))
        assert len(detect_zero_times(ser)) == 20
        assert calls
        assert not [x for x in calls if x in samples]

    @pytest.mark.parametrize("steps", [2, 3, 4096, 2**20])
    @pytest.mark.parametrize("t_max", [None, 1.5, 2.0, 1e3])
    def test_sample_times_are_the_endpoint_free_grid(self, two_half_t_inf, steps, t_max):
        # the pass also samples t_max, and the kept samples keep their bits
        ser = expectation_series(
            two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 1, t_max=t_max, steps=steps
        )
        grid = np.linspace(0.0, ser.period if t_max is None else t_max, steps, endpoint=False)
        assert ser.times.tobytes() == grid.tobytes()

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

    @pytest.mark.parametrize("poly, steps", [
        (build_long_range(12, HalfInt(1), 1.0, 0.0), 4096),
        (build_long_range(4, HalfInt(3), 1.0, 0.0), 4096),
        (build_ring(6, HalfInt(2), 1.0, 0.0), 4096),
        (build_ring(10, HalfInt(2), 1.0, 0.0), 4096),
        (build_exact(spins(1, 128), np.kron(np.diag(np.linspace(0.5, 1.5, 64)),
                                            uniform_couplings(2, 1.0)), 1.0), 2**14),
    ], ids=["long_range 2s=1 N=12", "long_range 2s=3 N=4", "ring 2s=2 N=6", "fig6 beta=0",
            "64 pairs beta=1"])
    def test_multiple_zero_has_fixed_cost(self, poly, steps, monkeypatch):
        # a multiple zero is a simple zero of one factor, solved by a
        # bracketed root at a fixed cost however flat the product is there,
        # and a zero of one of many factors costs no evaluation of the others;
        # the count covers the solver's float evaluator and the residual's
        # cosine_series alike
        scalar_calls = 0

        def counting(k, w, x):
            nonlocal scalar_calls
            scalar_calls += np.ndim(x) == 0
            return cosine_series(k, w, x)

        def counted(F):
            def call(x):
                nonlocal scalar_calls
                scalar_calls += 1
                return F(x)

            return call

        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1, steps=steps)
        monkeypatch.setattr(probe, "cosine_series", counting)
        for factor in poly.factors:
            monkeypatch.setattr(factor, "scalar", counted(factor.scalar))
        detected = detect_zero_times(ser)
        assert len(detected) == len(find_zeros(poly).clusters)
        assert scalar_calls <= 40 * len(detected)

    def test_magnitude_tol_rejects_the_larger_residuals(self):
        # fig6/b: at magnitude_tol = 1 every zero is kept, with |F|/F(0) from
        # 1.8e-19 to 1.8e-16; a tolerance between the 10th and 11th smallest
        # keeps those 10 and rejects the other 10
        poly = build_ring(10, HalfInt(2), 1.0, 1 / 8)
        ser = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1, steps=4096)
        everything = detect_zero_times(ser, 1.0)
        assert len(everything) == 20
        scaled = sorted(r / abs(ser.overlap) for _, r in everything)
        tol = 5.3e-17
        assert scaled[9] < tol < scaled[10]
        kept = detect_zero_times(ser, tol)
        assert kept == [(t, r) for t, r in everything if r / abs(ser.overlap) <= tol]
        assert len(kept) == 10
        report = correlate(find_zeros(poly), ser, magnitude_tol=tol)
        assert len(report.matches) == 10
        assert len(report.unmatched_predicted) == 10

    @pytest.mark.parametrize("poly", [
        build_long_range(1, HalfInt(1), 1.0, 0.5),
        build_long_range(5, HalfInt(1), 1.0, 0.7),
        build_exact(spins(5, 2), uniform_couplings(2, 1.0), 1.0),
        build_ring(13, HalfInt(3), 1.0, 0.4),
        build_ring(20, HalfInt(2), 1.0, 0.3),
        build_long_range(40, HalfInt(1), 1.0, 2.0),
    ], ids=["degree 1", "degree 5", "degree 10", "degree 39", "degree 40", "long_range 40"])
    def test_float_evaluator_matches_the_array_path(self, poly):
        # the bracketing solver's evaluator on a factor's float64 unit terms,
        # against cosine_series on an array of angles
        near = np.array([1e-12, 3e-13, 5e-324])
        x = np.concatenate([
            np.linspace(0.0, 2 * np.pi, 1001),
            near, np.pi - near, np.pi + near, 2 * np.pi - near, [np.pi, 2 * np.pi],
        ])
        for factor in poly.factors:
            k, w = factor.unit_terms
            F = factor.scalar
            scalar = np.array([F(a) for a in x.tolist()])
            bound = 8 * len(k) * np.finfo(float).eps * np.abs(w).sum()
            assert np.max(np.abs(scalar - cosine_series(k, w, x))) <= bound
        assert {len(log_coeffs) - 1 for log_coeffs, _ in poly.factors} == {poly.two_ns}

    def test_detected_times_of_every_panel_against_exact_zeros(self):
        # beta = 0: the (2s+1)-th roots of unity of (1 + z + ... + z^2s)^N, which
        # mpmath.polyroots misses by up to 1e-3 as N-fold roots.  Otherwise
        # polyroots on 60-digit coefficients: the oracle's for ring and
        # long_range, the two-spin sum exp(beta J m1 m2) z^(2s - m1 - m2) for fig2.
        bound = {"fig6 beta=0.125": 5e-10}
        bath_two_s = {"fig2": 5, "fig4": 1, "fig6": 2}
        for name, poly, s0 in figure_panels():
            figure = name.split()[0]
            two_s = bath_two_s[figure]
            if poly.beta == 0:
                exact = [2 * np.pi * j / (two_s + 1) for j in range(1, two_s + 1)]
            else:
                with mpmath.workdps(60):
                    if figure == "fig2":
                        ms = [mpmath.mpf(two_s - 2 * i) / 2 for i in range(two_s + 1)]
                        c = [mpmath.mpf(0)] * (2 * two_s + 1)
                        for i, m1 in enumerate(ms):
                            for j, m2 in enumerate(ms):
                                c[i + j] += mpmath.exp(mpmath.mpf(poly.beta) * m1 * m2)
                    else:
                        kind = poly.model_tag["kind"]
                        logs = log_coeffs_60_digits(kind, 10 if kind == "ring" else 4,
                                                    two_s, 1.0, poly.beta)
                        c = [mpmath.exp(mpmath.mpf(x)) for x in logs]
                    roots = mpmath.polyroots(c[::-1], maxsteps=500, extraprec=400)
                    exact = [float(-mpmath.arg(z) % (2 * mpmath.pi)) for z in roots]
            series = expectation_series(poly, sx_top_eigenstate(s0), 1.0, 1)
            detected = [t for t, _ in detect_zero_times(series)]
            assert len(detected) == len(exact), name
            error = max(
                min(abs(t - e), 2 * np.pi - abs(t - e)) for t, e in zip(detected, sorted(exact))
            )
            assert error <= bound.get(name, 1e-13), (name, error)


class TestCorrelate:
    @pytest.mark.parametrize("entry, arguments, message", [
        ("correlate", {"window": math.nan}, "window must be finite and positive, got nan"),
        ("correlate", {"window": math.inf}, "window must be finite and positive, got inf"),
        ("correlate", {"window": 0.0}, "window must be finite and positive, got 0.0"),
        ("correlate", {"window": -1e-6}, "window must be finite and positive, got -1e-06"),
        ("correlate", {"magnitude_tol": math.nan},
         "magnitude_tol must be finite and positive, got nan"),
        ("correlate", {"lam": 2.0}, "lambda metadata mismatch: series has 1.0, expected 2.0"),
        ("correlate", {"delta": 2}, "delta metadata mismatch: series has 1, expected 2"),
        ("detect", {"magnitude_tol": 0.0}, "magnitude_tol must be finite and positive, got 0.0"),
        ("detect", {"magnitude_tol": math.nan},
         "magnitude_tol must be finite and positive, got nan"),
        ("detect", {"magnitude_tol": math.inf},
         "magnitude_tol must be finite and positive, got inf"),
    ])
    def test_tolerances_outside_range_rejected(self, two_half_t_inf, entry, arguments, message):
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if entry == "detect":
                detect_zero_times(ser, **arguments)
            else:
                correlate(find_zeros(two_half_t_inf), ser, **arguments)

    @pytest.mark.parametrize("beta", [0.0, 1 / 32, 1 / 8, 1.0])
    def test_susceptibility_channel_times_halved(self, beta):
        poly = build_exact(spins(5, 2), uniform_couplings(2, 1.0), beta)
        state = sx_top_eigenstate(HalfInt(5))
        s1 = expectation_series(poly, state, 1.0, 1)
        s2 = expectation_series(poly, state, 1.0, 2)
        t1 = np.array([t for t, _ in detect_zero_times(s1, 1e-6)])
        t2 = np.array([t for t, _ in detect_zero_times(s2, 1e-6)])
        np.testing.assert_allclose(np.sort(t2), np.sort(t1) / 2, atol=1e-9)

    @pytest.mark.parametrize("poly, s0, lam, count, deviation, residual, check", CORRELATIONS)
    def test_correlation_matches_every_zero(self, poly, s0, lam, count, deviation, residual, check):
        # t = x / (lam*delta) has no scale: at lam = 1e12 the period is 6.3e-12 s,
        # so the default 1e-6 s window spans 1.6e5 periods and the deviation is
        # bounded in angle units, as at lam = 1
        zeros = find_zeros(poly)
        series = expectation_series(poly, sx_top_eigenstate(s0), lam, 1)
        report = correlate(zeros, series)
        assert report.window == 1e-6
        assert report.all_matched and not report.unmatched_detected
        assert len(report.detected) == len(report.matches) == len(report.predicted) == count
        assert report.max_deviation * lam <= deviation
        assert max(r for _, r in report.detected) < residual
        assert check is None or check(zeros, series, report)

    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e12])
    def test_pairing_matches_all_pairs_oracle(self, two_half_t_inf, lam, monkeypatch):
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), lam, 1)
        period = ser.period
        rng = np.random.default_rng(round(math.log10(lam)) + 6)
        for case in range(100):
            n = int(rng.integers(1, 12))
            spacing = period / n
            predicted = rng.uniform(0, period, n)
            if case % 3 == 0:  # a zero next to t = 0, whose detection wraps to the period's end
                predicted[0] = rng.uniform(0, 1e-3 * spacing)
            kept = predicted[rng.random(n) < 0.8]
            noise = rng.normal(0, spacing * rng.choice([1e-3, 0.1, 0.5]), len(kept))
            spurious = rng.uniform(0, period, rng.integers(0, 4))
            times = np.sort(np.concatenate([np.mod(kept + noise, period), spurious]))
            found = [(t, 0.0) for t in times.tolist()]
            window = spacing * rng.choice([1e-4, 0.1, 0.6, 1.5])  # wider than half the spacing too
            monkeypatch.setattr(probe, "detect_zero_times", lambda series, tol: found)
            zeros = SimpleNamespace(cluster_times=lambda *_: predicted)
            report = correlate(zeros, ser, window=window)
            matches, unmatched_p, unmatched_d = pair_all(report.predicted, found, period, window)
            assert report.matches == matches
            assert report.unmatched_predicted == unmatched_p
            assert report.unmatched_detected == unmatched_d
            assert report.max_deviation == max((m[2] for m in matches), default=0.0)

    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e12])
    def test_blocked_pairing_matches_per_predicted_reference(self, two_half_t_inf, lam, monkeypatch):
        period = 2 * np.pi / lam
        # the detected times span three periods, as a grid with t_max = 3 periods has them
        ser = expectation_series(
            two_half_t_inf, sx_top_eigenstate(HalfInt(1)), lam, 1, t_max=3 * period
        )
        assert ser.period == period
        rng = np.random.default_rng(round(math.log10(lam)) + 60)
        for case in range(120):
            n = int(rng.integers(1, 30))
            spacing = period / n
            window = spacing * rng.choice([1e-4, 0.1, 0.6, 1.5])
            predicted = rng.uniform(0, period, n)
            if case % 4 == 0:  # within a window of t = 0 and of the period
                predicted[0] = rng.uniform(0, window)
                predicted[-1] = period - rng.uniform(0, window)
            if case % 6 == 5:  # on a dyadic grid, so that distances tie exactly
                step = 2.0 ** (math.floor(math.log2(spacing)) - 2)
                predicted = rng.integers(0, int(period / step), n) * step
                window = step * int(rng.integers(1, 6))
            kept = predicted[rng.random(n) < 0.8]
            if case % 6 == 5:
                noise = rng.integers(-3, 4, len(kept)) * step
            else:
                noise = rng.normal(0, spacing * rng.choice([1e-3, 0.1, 0.5]), len(kept))
            laps = rng.integers(0, 3, len(kept)) * period
            spurious = rng.uniform(0, 3 * period, rng.integers(0, 4))
            times = np.sort(np.concatenate([np.mod(kept + noise + laps, 3 * period), spurious]))
            found = [] if case % 10 == 7 else [(t, 0.0) for t in times.tolist()]
            monkeypatch.setattr(probe, "detect_zero_times", lambda series, tol: found)
            report = correlate(SimpleNamespace(cluster_times=lambda *_: predicted), ser, window=window)
            assert report.predicted == sorted(predicted.tolist())
            matches, unmatched_p, unmatched_d, max_deviation = pair_per_predicted(
                report.predicted, found, period, window
            )
            assert report.matches == matches
            assert report.unmatched_predicted == unmatched_p
            assert report.unmatched_detected == unmatched_d
            assert report.max_deviation == max_deviation

    def test_equal_distances_pair_the_earlier_predicted_time(self, two_half_t_inf, monkeypatch):
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        # 1.25 is 0.25 from both 1.0 and 1.5; 0.75 is 0.25 from 1.0 alone
        found = [(0.75, 0.0), (1.25, 0.0)]
        monkeypatch.setattr(probe, "detect_zero_times", lambda series, tol: found)
        predicted = np.array([1.5, 1.0])
        report = correlate(SimpleNamespace(cluster_times=lambda *_: predicted), ser, window=0.25)
        assert report.matches == [(1.0, 0.75, 0.25), (1.5, 1.25, 0.25)]
        assert (report.matches, report.unmatched_predicted, report.unmatched_detected) == (
            pair_per_predicted([1.0, 1.5], found, ser.period, 0.25)[:3]
        )
        report = correlate(SimpleNamespace(cluster_times=lambda *_: predicted), ser, window=0.3)
        assert report.matches == [(1.0, 0.75, 0.25), (1.5, 1.25, 0.25)]
        found[:] = [(1.25, 0.0)]
        report = correlate(SimpleNamespace(cluster_times=lambda *_: predicted), ser, window=0.25)
        assert report.matches == [(1.0, 1.25, 0.25)] and report.unmatched_predicted == [1.5]

    def test_pairing_5000_zeros_in_bounded_memory(self, two_half_t_inf, monkeypatch):
        # all 2.5e7 distances at once would be a 200 MB matrix
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        rng = np.random.default_rng(5000)
        predicted = rng.uniform(0, ser.period, 5000)
        times = np.sort(np.mod(predicted + rng.normal(0, 3e-7, 5000), ser.period))
        found = [(t, 0.0) for t in times.tolist()]
        monkeypatch.setattr(probe, "detect_zero_times", lambda series, tol: found)
        tracemalloc.start()
        try:
            report = correlate(SimpleNamespace(cluster_times=lambda *_: predicted), ser)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        matches, unmatched_p, unmatched_d, max_deviation = pair_per_predicted(
            report.predicted, found, ser.period, report.window
        )
        assert len(matches) > 4900
        assert report.matches == matches and report.max_deviation == max_deviation
        assert report.unmatched_predicted == unmatched_p
        assert report.unmatched_detected == unmatched_d

    def test_pairing_2000_zeros_is_fast(self, two_half_t_inf, monkeypatch):
        # a 1000-spin ring's 2000 zeros: sorting all 4e6 pairs as tuples takes seconds
        ser = expectation_series(two_half_t_inf, sx_top_eigenstate(HalfInt(1)), 1.0, 1)
        predicted = np.arange(2000) * (ser.period / 2000)
        found = [(t, 0.0) for t in (predicted + 1e-9).tolist()]
        monkeypatch.setattr(probe, "detect_zero_times", lambda series, tol: found)
        start = time.perf_counter()
        report = correlate(SimpleNamespace(cluster_times=lambda *_: predicted), ser)
        assert time.perf_counter() - start < 1.0
        assert len(report.matches) == 2000 and not report.unmatched_detected
