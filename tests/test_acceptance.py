"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on success.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    assert_roots_match,
    coeffs,
    eval_ratio,
    figure_panels,
    ring_couplings,
    spins,
    uniform_couplings,
)
from leeyang.cli import main
from leeyang.partition import build_exact, build_long_range, build_ring
from leeyang.probe import correlate, detect_zero_times, expectation_series
from leeyang.spins import HalfInt, sx_top_eigenstate
from leeyang.zeros import find_zeros


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_circle_theorem():
    # Independent oracle: companion-matrix roots (numpy.roots), grouped by the
    # reported clusters.  Each group must hold exactly its multiplicity, and
    # its centroid must lie on the unit circle.
    start = time.perf_counter()
    worst = 0.0
    for name, poly, _ in figure_panels():
        zs = find_zeros(poly)
        oracle = np.roots(coeffs(poly)[::-1])
        centers = np.exp(1j * np.array([angle for angle, _ in zs.clusters]))
        group = np.argmin(np.abs(oracle[:, None] - centers[None, :]), axis=1)
        for j, (angle, mult) in enumerate(zs.clusters):
            members = oracle[group == j]
            assert len(members) == mult, (name, angle, len(members), mult)
            limit = 1e-4 if mult > 1 else 1e-8
            deviation = abs(abs(members.mean()) - 1.0)
            assert deviation < limit, (name, angle, deviation)
            worst = max(worst, deviation / limit)
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 2.0,
        f"circle theorem holds on 12 panels against companion-matrix roots "
        f"(worst centroid deviation {worst:.1e} of limit), runtime {elapsed:.2f}s < 2s",
    )


def test_criterion_2_oracle_equivalence():
    def rel(a, b):
        return float(np.max(np.abs(np.exp(a.log_coeffs - b.log_coeffs) - 1.0)))

    worst_enum = 0.0
    for two_s in (1, 2):
        for n in range(3, 7):
            ring = build_ring(n, HalfInt(two_s), 1.0, 1.0)
            ex = build_exact(spins(two_s, n), ring_couplings(n), 1.0)
            worst_enum = max(worst_enum, rel(ring, ex))
    for two_s, n_max in ((1, 10), (2, 5)):
        for n in range(2, n_max + 1):
            lr = build_long_range(n, HalfInt(two_s), 1.0, 1.0)
            ex = build_exact(spins(two_s, n), uniform_couplings(n, 1.0 / n), 1.0)
            worst_enum = max(worst_enum, rel(lr, ex))
    assert worst_enum < 1e-12

    worst_quad = 0.0
    for two_s, n_max in ((1, 10), (2, 5)):
        for n in range(1, n_max + 1):
            poly = build_long_range(n, HalfInt(two_s), 1.0, 0.8)
            for k in range(poly.two_ns + 1):
                from leeyang.partition import long_range_integral_oracle

                oracle = long_range_integral_oracle(n, HalfInt(two_s), 1.0, 0.8, k)
                worst_quad = max(worst_quad, abs(math.exp(poly.log_coeffs[k]) / oracle - 1))
    report(
        2,
        worst_quad < 1e-8,
        f"builder agreement: enumeration pairs {worst_enum:.1e} < 1e-12, "
        f"quadrature pairs {worst_quad:.1e} < 1e-8",
    )


def test_criterion_3_closed_form_zero_sets():
    # fig2(a): 6th roots of unity except 1, multiplicity 2
    zs = find_zeros(build_exact(spins(5, 2), uniform_couplings(2, 1.0), 0.0))
    expected = sorted(k * np.pi / 3 for k in (-2, -1, 1, 2, 3))
    got = sorted(zs.clusters)
    assert len(got) == 5
    for (angle, mult), want in zip(got, expected):
        assert mult == 2
        assert abs(angle - want) < 1e-6

    # fig4(a): theta = pi with multiplicity 4
    zs = find_zeros(build_long_range(4, HalfInt(1), 1.0, 0.0))
    assert len(zs.clusters) == 1
    angle, mult = zs.clusters[0]
    assert mult == 4 and abs(abs(angle) - np.pi) < 1e-6

    # fig6(a): theta = +-2pi/3, multiplicity 10 each
    zs = find_zeros(build_ring(10, HalfInt(2), 1.0, 0.0))
    assert sorted(m for _, m in zs.clusters) == [10, 10]
    angles = sorted(a for a, _ in zs.clusters)
    assert abs(angles[0] + 2 * np.pi / 3) < 1e-6
    assert abs(angles[1] - 2 * np.pi / 3) < 1e-6
    report(3, True, "infinite-temperature zero sets match their factorizations")


# Infinite-temperature panels: closed-form zero times (-theta mod 2pi at
# lam = delta = 1) and the bound on a detected time's error.
CLOSED_FORM_TIMES = {
    "fig2 beta=0.0": ([k * np.pi / 3 for k in range(1, 6)], 1e-12),  # double
    "fig4 beta=0.0": ([np.pi], 1e-12),  # 4-fold
    "fig6 beta=0.0": ([2 * np.pi / 3, 4 * np.pi / 3], 1e-12),  # 10-fold
}


def test_criterion_4_zero_time_correspondence():
    worst_dev = 0.0
    worst_res = 0.0
    degenerate = []
    for name, poly, s0 in figure_panels():
        series = expectation_series(poly, sx_top_eigenstate(s0), 1.0, 1)
        if poly.beta == 0.0:
            expected, bound = CLOSED_FORM_TIMES[name]
            detected = sorted(t for t, _ in detect_zero_times(series))
            assert len(detected) == len(expected), name
            error = max(abs(t - want) for t, want in zip(detected, expected))
            assert error <= bound, (name, error)
            degenerate.append(f"{name} {error:.1e} <= {bound:.0e}")
            continue
        zs = find_zeros(poly)
        assert all(m == 1 for _, m in zs.clusters), name
        rep = correlate(zs, series, window=1e-6)
        assert rep.all_matched and not rep.unmatched_detected, name
        worst_dev = max(worst_dev, rep.max_deviation)
        worst_res = max(worst_res, max(r for _, r in rep.detected))
    report(
        4,
        worst_dev < 1e-6 and worst_res < 1e-10,
        f"simple-root panels: max time deviation {worst_dev:.1e} < 1e-6, "
        f"worst |f| residual {worst_res:.1e} < 1e-10; closed-form times of the "
        f"beta=0 panels: {', '.join(degenerate)}",
    )


def test_criterion_5_analytic_series(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"kind": "exact", "n_spins": 2, "two_s": 1, "J": 1.0},
                "temperature": {"T_over_J": "inf"},
                "probe": {"two_s0": 1, "delta": 1},
                "lambda": 1.0,
            }
        )
    )
    out = tmp_path / "series.csv"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    data = np.array([[float(x) for x in r.split(",")] for r in rows])
    t, re, im = data[:, 0], data[:, 1], data[:, 2]
    err = np.max(np.abs(re + 1j * im - 0.5 * np.cos(t / 2) ** 2))
    report(5, err < 1e-12, f"emitted series matches 0.5*cos^2(t/2) to {err:.1e} < 1e-12")


def test_criterion_6_reality_and_boundedness():
    worst_im = 0.0
    worst_excess = -np.inf
    for name, poly, s0 in figure_panels():
        series = expectation_series(poly, sx_top_eigenstate(s0), 1.0, 1)
        worst_im = max(worst_im, float(np.max(np.abs(series.values.imag))))
        excess = float(np.max(np.abs(series.values)) - abs(series.values[0]))
        worst_excess = max(worst_excess, excess)
    report(
        6,
        worst_im < 1e-12 and worst_excess <= 1e-12,
        f"x-polarized panels: max |Im f| {worst_im:.1e} < 1e-12, "
        f"max |f| - f(0) = {worst_excess:.1e} <= 1e-12",
    )


def test_criterion_7_delta_scaling():
    worst = 0.0
    state = sx_top_eigenstate(HalfInt(5))
    for b in (0.0, 1 / 32, 1 / 8, 1.0):
        poly = build_exact(spins(5, 2), uniform_couplings(2, 1.0), b)
        t1 = np.sort([t for t, _ in detect_zero_times(expectation_series(poly, state, 1.0, 1), 1e-6)])
        t2 = np.sort([t for t, _ in detect_zero_times(expectation_series(poly, state, 1.0, 2), 1e-6)])
        assert len(t1) == len(t2), b
        worst = max(worst, float(np.max(np.abs(t2 - t1 / 2))))
    report(7, worst < 1e-8, f"delta=2 zero times equal delta=1 halved to {worst:.1e} < 1e-8")


def test_criterion_8_randomized_property_suite():
    rng = np.random.default_rng(20240817)
    cases = 0
    while cases < 200:
        kind = rng.choice(["exact", "long_range", "ring"])
        two_s = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.0, 4.0))
        if kind == "exact":
            n = int(rng.integers(2, 6))
            # random symmetric ferromagnetic couplings
            J = np.triu(rng.uniform(0.0, 1.5, (n, n)), 1)
            J = J + J.T
            poly = build_exact(spins(two_s, n), J, beta)
        elif kind == "long_range":
            n = int(rng.integers(2, 9))
            poly = build_long_range(n, HalfInt(two_s), float(rng.uniform(0, 1.5)), beta)
        else:
            n = int(rng.integers(3, 9))
            poly = build_ring(n, HalfInt(two_s), float(rng.uniform(0, 1.5)), beta)

        scale = max(1.0, np.abs(poly.log_coeffs).max())
        np.testing.assert_allclose(
            poly.log_coeffs, poly.log_coeffs[::-1], rtol=0, atol=1e-12 * scale
        )
        zs = find_zeros(poly)
        assert_roots_match(zs.roots, np.conj(zs.roots), atol=1e-9)
        c = coeffs(poly)
        assert np.prod(zs.roots) == pytest.approx(
            (-1) ** poly.two_ns * c[0] / c[-1], rel=1e-9
        )
        theta = rng.uniform(-np.pi, np.pi)
        assert abs(eval_ratio(poly, np.exp(1j * theta))) <= 1 + 1e-14
        cases += 1
    report(8, cases >= 200, f"{cases} randomized ferromagnetic cases passed the property suite")
