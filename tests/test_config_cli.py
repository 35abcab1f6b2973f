import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import leeyang
from helpers import THREE_SPIN_PATH, assert_same_text, block_diagonal, figure_panels
from leeyang import cli
from leeyang.cli import main
from leeyang.config import (
    MAX_EXACT_SPINS, MAX_STEPS, MAX_TWO_S0, MODEL_KINDS, ConfigError, RunConfig, load_config,
)
from leeyang.partition import build_long_range, build_ring
from leeyang.probe import correlate, expectation_series
from leeyang.spins import HalfInt, sx_top_eigenstate
from leeyang.zeros import find_zeros


def base_config(**overrides):
    data = {
        "model": {"kind": "exact", "n_spins": 2, "two_s": 1, "J": 1.0},
        "temperature": {"T_over_J": "inf"},
        "probe": {"two_s0": 1, "delta": 1},
        "lambda": 1.0,
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# Each numeric field of a run configuration, set to a given value.
NUMBER_FIELDS = {
    "model.J": lambda v: base_config(model={"kind": "exact", "n_spins": 2, "two_s": 1, "J": v}),
    "temperature.beta": lambda v: base_config(temperature={"beta": v}),
    "temperature.T_over_J": lambda v: base_config(temperature={"T_over_J": v}),
    "lambda": lambda v: base_config(**{"lambda": v}),
    "probe.h0": lambda v: base_config(probe={"two_s0": 1, "delta": 1, "h0": v}),
    "probe.state[0]": lambda v: base_config(probe={"two_s0": 1, "delta": 1, "state": [v, 1]}),
    "model.couplings": lambda v: base_config(
        model={"kind": "exact", "n_spins": 2, "two_s": 1, "couplings": [[0, v], [v, 0]]}
    ),
}


def long_range(n):
    return {"kind": "long_range", "n_spins": n, "two_s": 1}


def ring(n, two_s=1):
    return {"kind": "ring", "n_spins": n, "two_s": two_s}


def exact(n, couplings=None):
    model = {"kind": "exact", "n_spins": n, "two_s": 1}
    return model if couplings is None else dict(model, couplings=couplings)


def two_sides(within):
    """Couplings of K_32,32 spin-1/2: 1 across its two sides, within(i, j) inside one."""
    return [[1.0 if (i < 32) != (j < 32) else within(i, j) for j in range(64)] for i in range(64)]


# Configs that `correlate` runs with every predicted zero matched once and no
# zero detected unmatched: (config, number of zeros).
MATCHED_RUNS = {
    # the exact pair's closed form
    "exact pair beta=1": (base_config(temperature={"beta": 1.0}), 2),
    # a zero between the last sample and t_max is bracketed up to t_max:
    # 5.9545393160333822 for fig2 at T = J on 16 steps, 15/16 of the period
    "fig2 T=J 16 steps": (base_config(
        model={"kind": "exact", "n_spins": 2, "two_s": 5}, probe={"two_s0": 5},
        temperature={"T_over_J": 1}, grid={"steps": 16},
    ), 10),
    # ... and pi for a free ring on 2 steps
    "free ring 2 steps": (base_config(
        model={"kind": "ring", "n_spins": 4, "two_s": 1}, probe={"two_s0": 1},
        temperature={"T_over_J": "inf"}, grid={"steps": 2},
    ), 1),
    # samples 0 and pi bracket the first zero time, pi and t_max the second
    "long_range N=2 2 steps": (base_config(
        model=long_range(2), temperature={"T_over_J": 2}, grid={"steps": 2}
    ), 2),
    # one zero of 200 at pi, where the sampled product underflows
    "long_range N=200 T=inf": (base_config(model=long_range(200)), 1),
    "lambda 1e12": (base_config(
        model=long_range(4), temperature={"T_over_J": 0.0625}, **{"lambda": 1e12}
    ), 4),
    # at beta = 1e-6 the zeros come in groups under 2 grid steps wide (near pi,
    # and 2pi/3 or pi/2), so one factor changes sign in adjacent grid intervals,
    # and at N = 3 the zero pi is a sample; at s = 1, N = 3, three pairs
    **{f"ring s={HalfInt(two_s)} N={n} beta=1e-6": (
        base_config(model=ring(n, two_s), temperature={"beta": 1e-6}), zeros,
    ) for two_s, n, zeros in [(1, 3, 3), (1, 4, 4), (2, 3, 6), (3, 3, 9), (3, 4, 12)]},
    # blocks of 3 and 5 spins, J = 1 within each, at T = 2J: pi, a zero of
    # both factors, is reported once
    "split 3+5": (base_config(
        model=exact(8, [[float(i != j and (i < 3) == (j < 3)) for j in range(8)] for i in range(8)]),
        temperature={"T_over_J": 2},
    ), 7),
    # two pairs with J = 1 and 1.0005 at T = J: zeros of the two factors 0.12 grid steps apart
    "close pairs": (base_config(
        model=exact(4, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1.0005], [0, 0, 1.0005, 0]]),
        temperature={"T_over_J": 1},
    ), 4),
    # a 3-spin path and its mirror image have one polynomial, so every zero is triple
    "mirror-image paths": (base_config(
        model=dict(exact(9, block_diagonal(
            THREE_SPIN_PATH, THREE_SPIN_PATH[::-1, ::-1], THREE_SPIN_PATH
        ).tolist()), two_s=2),
        temperature={"beta": 0.5},
    ), 6),
    # 2^30 configurations in all, but every spin is its own block
    "free spins N=30 T=inf": (base_config(model=exact(30)), 1),
    # 2^64 configurations, enumerated as one collective spin of 65 states
    "exact N=64 all-to-all": (base_config(model=exact(64), temperature={"T_over_J": 1}), 64),
    # beta*J = 2 has a zero mantissa, and the block is still two twin classes of 33 states
    "K32,32 T=J/2": (base_config(
        model=exact(64, two_sides(lambda i, j: 0.0)), temperature={"T_over_J": 0.5}
    ), 64),
    # -0.0 on the pairs within a side with (i + j) % 3 == 0 correlates as 0.0 does
    "K32,32 negative zeros T=2J": (base_config(
        model=exact(64, two_sides(lambda i, j: -0.0 if i != j and (i + j) % 3 == 0 else 0.0)),
        temperature={"T_over_J": 2},
    ), 64),
    # <(S+)^170> of a spin 100 is about 2.0e291, though its largest matrix
    # element passes the float range
    "probe spin-750": (base_config(
        model=long_range(4), temperature={"T_over_J": 2}, probe={"two_s0": 1500, "delta": 1}
    ), 4),
    "probe spin-100 delta-170": (base_config(
        model=long_range(4), temperature={"T_over_J": 2}, probe={"two_s0": 200, "delta": 170}
    ), 4),
}


# Configs that RunConfig refuses, and so every command with exit code 2:
# (config, the whole message).
NOT_NUMBERS = "model.couplings: expected a matrix of finite numbers"
MALFORMED_CONFIGS = {
    "missing-field": ({k: v for k, v in base_config().items() if k != "probe"},
                      "top level: missing required field 'probe'"),
    "not-a-number": (base_config(temperature={"beta": "1"}),
                     "temperature.beta: expected a number, got '1'"),
    "not-an-integer": (base_config(model=dict(exact(2), n_spins=2.0)),
                       "model.n_spins: expected an integer, got 2.0"),
    "top-level-not-object": ([base_config()], "top level: expected a JSON object"),
    "model-not-object": (base_config(model=[]), "model: expected an object"),
    "temperature-not-object": (base_config(temperature=1), "temperature: expected an object"),
    "probe-not-object": (base_config(probe="sx_max"), "probe: expected an object"),
    "grid-not-object": (base_config(grid=None), "grid: expected an object"),
    "tolerances-not-object": (base_config(tolerances=[1e-6]), "tolerances: expected an object"),
    "no-temperature-key": (base_config(temperature={}),
                           "temperature: exactly one of 'beta' or 'T_over_J' must be given"),
    "two-temperature-keys": (base_config(temperature={"beta": 1.0, "T_over_J": 1.0}),
                             "temperature: exactly one of 'beta' or 'T_over_J' must be given"),
    "zero-T_over_J": (base_config(temperature={"T_over_J": 0}),
                      "temperature.T_over_J: zero temperature not supported; "
                      "use 'inf' for infinite temperature"),
    "negative-T_over_J": (base_config(temperature={"T_over_J": -1}),
                          "temperature.T_over_J: must be positive, got -1.0"),
    "T_over_J-with-infinite-beta": (
        base_config(temperature={"T_over_J": 1e-310}),
        "temperature.T_over_J: beta = 1/T_over_J must be finite, got 1e-310",
    ),
    "unknown-model-kind": (
        base_config(model=dict(ring(3), kind="chain")),
        "model.kind: expected one of ('exact', 'long_range', 'ring'), got 'chain'",
    ),
    "negative-J": (base_config(model=dict(ring(3), J=-1)), "model.J: must be >= 0.0, got -1.0"),
    "ring-of-two": (base_config(model=ring(2)), "model.n_spins: a ring needs at least 3 spins"),
    "exact-spins-over-cap": (base_config(model=exact(10**6)),
                             "model.n_spins: must be <= 1024, got 1000000"),
    "ring-couplings": (base_config(model=dict(ring(3), couplings=[])),
                       "model.couplings: only valid for kind 'exact'"),
    "couplings-shape": (base_config(model=exact(2, [[0.0]])),
                        "model.couplings: expected 2x2 matrix"),
    # np.asarray(..., dtype=float) would convert the strings and the booleans
    "couplings-strings": (base_config(model=exact(2, [[0, "1"], ["1", 0]])), NOT_NUMBERS),
    "couplings-booleans": (base_config(model=exact(2, [[0, True], [True, 0]])), NOT_NUMBERS),
    "couplings-null": (base_config(model=exact(2, [[0, 1], [1, None]])), NOT_NUMBERS),
    "couplings-string-of-matrix": (base_config(model=exact(2, "[[0, 1], [1, 0]]")), NOT_NUMBERS),
    **{f"coupling-times-J-overflows-beta-{beta}": (
        base_config(model=dict(exact(2, [[0, 1e308], [1e308, 0]]), J=10),
                    temperature={"beta": beta}),
        "model.couplings: J times each entry must be a finite number",
    ) for beta in (0.0, 0.5)},
    "delta-over-probe-spin": (base_config(probe={"two_s0": 1, "delta": 2}),
                              "probe.delta: 2 exceeds 2*s0 = 1"),
    "state-length": (base_config(probe={"two_s0": 1, "state": [1.0]}),
                     "probe.state: expected 2 amplitudes, got 1"),
    "state-entry-neither-number-nor-pair": (
        base_config(probe={"two_s0": 1, "state": [[1, 0, 0], 1]}),
        "probe.state[0]: expected a number or [re, im] pair",
    ),
    "all-zero-amplitudes": (base_config(probe={"two_s0": 1, "state": [0, [0, -0.0]]}),
                            "probe.state: amplitudes must not all vanish"),
    "state-neither-sx_max-nor-list": (
        base_config(probe={"two_s0": 1, "state": "sz_max"}),
        "probe.state: expected 'sx_max' or an amplitude list, got 'sz_max'",
    ),
    "zero-lambda": (base_config(**{"lambda": 0.0}), "lambda: must be > 0.0, got 0.0"),
    "steps-over-cap": (base_config(grid={"steps": MAX_STEPS + 1}),
                       "grid.steps: must be <= 1048576, got 1048577"),
    "negative-magnitude_tol": (base_config(tolerances={"magnitude_tol": -1.0}),
                               "tolerances.magnitude_tol: must be > 0.0, got -1.0"),
    # a misspelled key, which would otherwise leave its field at the default
    "model.Jay": (base_config(model=dict(exact(2), Jay=2.0)), "model: unknown key 'Jay'"),
    "temperature.betta": (base_config(temperature={"T_over_J": 2, "betta": 0.5}),
                          "temperature: unknown key 'betta'"),
    "probe.dleta": (base_config(probe={"two_s0": 2, "dleta": 2}), "probe: unknown key 'dleta'"),
    "tolerances.match_windw": (base_config(tolerances={"match_windw": 1e-3}),
                               "tolerances: unknown key 'match_windw'"),
    "gird": (base_config(gird={"steps": 16}), "top level: unknown key 'gird'"),
}


class TestRunConfigValidation:
    def test_minimal_config(self):
        cfg = RunConfig(base_config())
        assert cfg.beta == 0.0
        assert cfg.steps == 4096
        assert cfg.magnitude_tol == 1e-6

    def test_t_over_j_converts_to_beta(self):
        cfg = RunConfig(base_config(temperature={"T_over_J": 8}))
        assert cfg.beta == pytest.approx(0.125)

    def test_explicit_state_normalized(self):
        cfg = RunConfig(base_config(probe={"two_s0": 1, "state": [1.0, [0.0, 1.0]]}))
        amps = cfg.probe_state().amplitudes
        np.testing.assert_allclose(np.abs(amps), [2**-0.5, 2**-0.5], rtol=1e-14)
        assert amps[1] == pytest.approx(1j * 2**-0.5)

    # the largest value each cap accepts; one past it is also refused through
    # `main`, as a row of test_malformed_config_rejected or, for the probe
    # spin, test_refused_run_prints_its_reason
    def test_steps_capped(self):
        assert RunConfig(base_config(grid={"steps": MAX_STEPS})).steps == MAX_STEPS == 2**20

    def test_probe_spin_capped(self):
        probe = {"two_s0": MAX_TWO_S0, "delta": 1}
        assert RunConfig(base_config(probe=probe)).two_s0 == MAX_TWO_S0 == 2048
        with pytest.raises(ConfigError, match=f"^probe.two_s0: must be <= {MAX_TWO_S0}, got 2100$"):
            RunConfig(base_config(probe=dict(probe, two_s0=2100)))

    def test_exact_spins_capped_before_the_coupling_matrix(self):
        model = {"kind": "exact", "n_spins": MAX_EXACT_SPINS, "two_s": 1}
        assert RunConfig(base_config(model=model)).couplings.shape == (MAX_EXACT_SPINS,) * 2
        tracemalloc.start()
        try:
            with pytest.raises(
                ConfigError, match=f"^model.n_spins: must be <= {MAX_EXACT_SPINS}, got 1000000$"
            ):
                RunConfig(base_config(model=dict(model, n_spins=10**6)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -float("inf"), 10**400],
        ids=["nan", "inf", "-inf", "int-beyond-float"],
    )
    @pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
    def test_non_finite_number_rejected(self, tmp_path, field, value):
        data = NUMBER_FIELDS[field](value)
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}: .*finite number"):
            RunConfig(data)
        cfg = write_config(tmp_path, data)  # json writes NaN and Infinity
        assert main(["zeros", "--config", cfg, "--out", str(tmp_path / "z.csv")]) == 2

    @pytest.mark.filterwarnings("error")
    def test_huge_state_amplitude_scaled_before_squaring(self, tmp_path):
        data = base_config(
            temperature={"beta": 0.5}, probe={"two_s0": 1, "delta": 1, "state": [1e200, 1]}
        )
        np.testing.assert_array_equal(RunConfig(data).state_amplitudes, [1.0, 1e-200])
        cfg = write_config(tmp_path, data)
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.filterwarnings("error")
    def test_subnormal_state_amplitude_normalized(self, tmp_path):
        # a complex division by the subnormal scale would overflow
        data = base_config(
            temperature={"beta": 0.5}, probe={"two_s0": 1, "delta": 1, "state": [1e-310, 1e-310]}
        )
        unit = base_config(probe={"two_s0": 1, "delta": 1, "state": [1, 1]})
        np.testing.assert_array_equal(
            RunConfig(data).state_amplitudes, RunConfig(unit).state_amplitudes
        )
        cfg = write_config(tmp_path, data)
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.filterwarnings("error")
    def test_state_part_near_the_float_maximum_normalized(self):
        # |1e308 + 1.8e308i| overflows, so the scale is the largest part
        data = base_config(probe={"two_s0": 1, "state": [1, [1e308, sys.float_info.max]]})
        amps = RunConfig(data).state_amplitudes
        assert np.all(np.isfinite(amps))
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data, message", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
    def test_malformed_config_rejected(self, tmp_path, capsys, data, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(data)
        cfg = write_config(tmp_path, data)
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "model": }')
        with pytest.raises(ConfigError, match=r"broken\.json:2:"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "nope.json")
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: No such file or directory$"):
            load_config(path)


class TestCliCommands:
    @pytest.mark.parametrize("data, zeros", [
        (base_config(), 2),
        # long-range spin-1/2 N=1100 at beta = 0: 1,100 zeros at pi, written in several blocks
        (base_config(model=long_range(1100)), 1100),
    ], ids=["two spins", "long_range N=1100"])
    def test_zeros_command(self, tmp_path, capsys, data, zeros):
        cfg = write_config(tmp_path, data)
        out = tmp_path / "zeros.csv"
        assert main(["zeros", "--config", cfg, "--out", str(out)]) == 0
        assert "circle_deviation=" in capsys.readouterr().out
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header, body = rows[0], rows[1:]
        assert header == "index,re,im,theta,abs_minus_1,multiplicity,predicted_time"
        assert len(body) == zeros
        for row in body:
            fields = row.split(",")
            assert float(fields[3]) == pytest.approx(np.pi, abs=1e-8)
            assert float(fields[6]) == pytest.approx(np.pi, abs=1e-8)
            assert fields[5] == str(zeros)

    @pytest.mark.parametrize("option", ["--steps", "--t-max"])
    def test_zeros_takes_no_grid_option(self, tmp_path, option):
        # the zero finder samples no time grid
        cfg = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main(["zeros", "--config", cfg, "--out", str(tmp_path / "z.csv"), option, "16"])
        assert exc.value.code == 2

    # the exact pair's closed form, and ring 2s=2 N=10 at T = 8J with a probe
    # field h0 = 0.3, so that im is nonzero
    @pytest.mark.parametrize("data", [
        base_config(),
        base_config(
            model={"kind": "ring", "n_spins": 10, "two_s": 2}, temperature={"T_over_J": 8},
            probe={"two_s0": 1, "h0": 0.3},
        ),
    ], ids=["closed-form", "ring-h0"])
    def test_evolve_round_trip_and_closed_form(self, tmp_path, data):
        cfg = write_config(tmp_path, data)
        out = tmp_path / "series.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "t,re,im,abs"
        fields = [r.split(",") for r in rows[1:]]
        assert len(fields) == 4096
        assert all(len(r) == 4 and all(f == "%.17g" % float(f) for f in r) for r in fields)
        t, re, im, mag = np.array(fields, dtype=float).T
        # 17 significant digits round-trip bit-exactly; numpy's complex abs
        # can differ from hypot in the last bit, Python's cannot
        assert all(a == abs(complex(x, y)) for x, y, a in zip(re.tolist(), im.tolist(), mag.tolist()))
        if "h0" in data["probe"]:
            assert np.any(im != 0)
        else:
            np.testing.assert_allclose(re, 0.5 * np.cos(t / 2) ** 2, atol=1e-12)

    def test_evolve_overrides(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "series.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--steps", "16", "--t-max", "1.0"]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 17
        assert float(rows[-1].split(",")[0]) < 1.0

    def test_two_step_series_detects_both_zeros(self):
        # the samples 0 and pi bracket the first zero, pi and t_max the second
        cfg = RunConfig(base_config(
            model={"kind": "long_range", "n_spins": 2, "two_s": 1},
            temperature={"T_over_J": 2}, grid={"steps": 2},
        ))
        _, _, series, report = cli._run_correlation(cfg)
        assert len(series.times) == 2
        assert report.matches == [
            (2.651941333120174, 2.651941333120174, 0.0),
            (3.6312439740594122, 3.6312439740594122, 0.0),
        ]
        assert report.unmatched_predicted == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data, matched", MATCHED_RUNS.values(), ids=MATCHED_RUNS)
    def test_correlate_matches_every_zero_once(self, tmp_path, capsys, data, matched):
        cfg, out = write_config(tmp_path, data), tmp_path / "report.json"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert len(report["matches"]) == len(report["predicted"]) == matched
        assert report["unmatched_detected"] == []
        assert report["max_deviation"] < 1e-6 and report["circle_deviation"] < 1e-8

    def test_correlate_exits_one_on_unmatched_zeros(self, tmp_path, capsys):
        # a grid over half the period holds half of the 20 predicted zero times
        data = base_config(
            model={"kind": "ring", "n_spins": 10, "two_s": 2},
            temperature={"T_over_J": 8},
            grid={"t_max": np.pi},
        )
        cfg, out = write_config(tmp_path, data), tmp_path / "report.json"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 1
        count, *named = capsys.readouterr().err.splitlines()
        assert count == "10 predicted zero time(s) unmatched"
        report = json.loads(out.read_text())
        assert len(report["predicted"]) == 20
        assert len(report["matches"]) == 10
        assert len(report["unmatched_predicted"]) == 10
        # each unmatched time is named, in the report's digits
        assert named == [f"  t = {t:.17g}" for t in report["unmatched_predicted"]]
        assert all(t > np.pi for t in report["unmatched_predicted"])

    def test_correlate_with_probe_field_matches_every_zero(self, tmp_path):
        # h0 enters as a pure phase, which detection never reads, so it moves no time
        for name, poly, s0 in figure_panels():
            zs = find_zeros(poly)
            state = sx_top_eigenstate(s0)
            for delta in range(1, min(2, s0.doubled) + 1):
                at_zero = correlate(zs, expectation_series(poly, state, 1.0, delta))
                for h0 in (0.7, -3.1):
                    report = correlate(zs, expectation_series(poly, state, 1.0, delta, h0))
                    assert report.all_matched and not report.unmatched_detected, name
                    np.testing.assert_allclose(
                        [t for t, _ in report.detected], [t for t, _ in at_zero.detected],
                        rtol=0, atol=1e-12, err_msg=f"{name} delta={delta} h0={h0}",
                    )
        data = base_config(probe={"two_s0": 1, "delta": 1, "h0": 0.5}, temperature={"beta": 1.0})
        cfg, out = write_config(tmp_path, data), tmp_path / "r.json"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["unmatched_predicted"] == [] and report["unmatched_detected"] == []
        assert len(report["matches"]) == len(report["predicted"]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, data, code, message", [
        ("evolve", base_config(**{"lambda": 1e300}, grid={"t_max": 1e300}), 1,
         "the sample phase (2Ns/2)*lam*delta*t_max must be finite, got inf"),
        ("evolve", base_config(model=ring(4, 2), **{"lambda": 1e300}, grid={"t_max": 1e300}), 1,
         "the sample phase (2Ns/2)*lam*delta*t_max must be finite, got inf"),
        ("correlate", base_config(model=ring(4, 2), temperature={"beta": 1e308}), 1,
         "beta * J must be finite and keep the largest log weight at most 2.24712e+307; "
         "it is inf at beta = 1e+308"),
        ("correlate", base_config(**{"lambda": 5e-324}, grid={"t_max": 1.0}), 1,
         "the period 2pi/(lam*delta) must be finite and positive, got lam = 5e-324, delta = 1"),
        # the default t_max is the period
        ("evolve", base_config(**{"lambda": 1e-320}), 1,
         "the period 2pi/(lam*delta) must be finite and positive, got lam = 1e-320, delta = 1"),
        # lam*delta = 2e308 passes the float range, and the period is 0
        ("zeros", base_config(**{"lambda": 1e308}, probe={"two_s0": 2, "delta": 2}), 1,
         "the period 2pi/(lam*delta) must be finite and positive, got lam = 1e+308, delta = 2"),
        ("evolve", base_config(**{"lambda": 1e308}, probe={"two_s0": 2, "delta": 2}), 1,
         "the period 2pi/(lam*delta) must be finite and positive, got lam = 1e+308, delta = 2"),
        # <(S+)^1030> of the sx_max state, 1030! / 2^1030 (about 5e2347), is beyond the float range
        ("correlate", base_config(probe={"two_s0": 1030, "delta": 1030}), 1,
         "<(S+)^1030> of a spin 2s0 = 1030 exceeds the float range"),
        # so is perm(200, 187) / 2^187, about 6.5e308, the first past it at 2s0 = 200
        ("correlate", base_config(probe={"two_s0": 200, "delta": 187}), 1,
         "<(S+)^187> of a spin 2s0 = 200 exceeds the float range"),
        # at beta = 1e-8 the series of degree 5 is flat to rounding noise
        ("correlate", base_config(model=long_range(5), temperature={"beta": 1e-8}), 1,
         "found 39 of 2 sign changes of the cosine series on [0, pi] for degree 5; more than "
         "the factor has zeros, so its series is at rounding noise"),
        ("correlate", base_config(model=exact(2, [[0, "1"], ["1", 0]])), 2,
         "model.couplings: expected a matrix of finite numbers"),
        ("correlate", base_config(
            model=long_range(4), temperature={"T_over_J": 2}, probe={"two_s0": 2100, "delta": 1}
        ), 2, "probe.two_s0: must be <= 2048, got 2100"),
        ("correlate", base_config(probe={"two_s0": 1, "state": [1, 0]}, temperature={"beta": 1.0}),
         1, "probe state has no coherence: <(S+)^delta> = 0 at t = 0, so the signal vanishes "
         "identically and has no zero times"),
        # the ring's transfer matrix polynomial would take 7.11 PiB, so numpy
        # refuses it before allocating anything
        ("zeros", base_config(model=ring(3, 100000), temperature={"T_over_J": 8}), 1,
         "Unable to allocate 7.11 PiB for an array with shape (100001, 100001, 100001) and "
         "data type float64"),
    ], ids=["evolve-phase", "evolve-phase-ring", "correlate-log-weight", "correlate-period",
            "evolve-default-period", "zeros-period-zero", "evolve-period-zero",
            "correlate-prefactor", "correlate-prefactor-delta-187",
            "correlate-rounding-noise", "correlate-string-couplings", "correlate-probe-over-cap",
            "correlate-state-without-coherence", "zeros-out-of-memory"])
    def test_refused_run_prints_its_reason(self, tmp_path, capsys, command, data, code, message):
        cfg = write_config(tmp_path, data)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["evolve", "reproduce"])
    @pytest.mark.parametrize("steps", ["1", "0"])
    def test_steps_override_below_two_refused(self, tmp_path, capsys, command, steps):
        if command == "reproduce":
            args = ["reproduce", "fig4", "--out-dir", str(tmp_path)]
        else:
            args = ["evolve", "--config", write_config(tmp_path, base_config()),
                    "--out", str(tmp_path / "s.csv")]
        assert main(args + ["--steps", steps]) == 2
        assert "error: --steps: must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evolve", "reproduce"])
    def test_steps_override_above_cap_refused(self, tmp_path, capsys, command):
        # refused before any grid is allocated: 10**12 steps would need 8 TB
        if command == "reproduce":
            args = ["reproduce", "fig4", "--out-dir", str(tmp_path)]
        else:
            args = ["evolve", "--config", write_config(tmp_path, base_config()),
                    "--out", str(tmp_path / "s.csv")]
        assert main(args + ["--steps", "1000000000000"]) == 2
        assert f"error: --steps: must be <= {MAX_STEPS}" in capsys.readouterr().err

    def test_correlation_never_forms_the_complex_signal(self):
        poly, zeros, series, report = cli._run_correlation(panel_config("fig6", "b"))
        assert report.all_matched
        assert "values" not in series.__dict__

    def test_correlation_at_max_steps_in_bounded_memory(self):
        # ring 2s=2 N=10 at T = 2J; the complex signal alone would be 16 MiB
        cfg = RunConfig(base_config(
            model={"kind": "ring", "n_spins": 10, "two_s": 2},
            temperature={"T_over_J": 2}, grid={"steps": MAX_STEPS},
        ))
        tracemalloc.start()
        try:
            _, _, series, report = cli._run_correlation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series.times) == MAX_STEPS and report.all_matched
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("t_max", ["nan", "inf", "0"])
    def test_t_max_override_must_be_positive_and_finite(self, tmp_path, t_max):
        cfg = write_config(tmp_path, base_config())
        out = str(tmp_path / "s.csv")
        assert main(["evolve", "--config", cfg, "--t-max", t_max, "--out", out]) == 2

    @pytest.mark.parametrize("figure", ["fig2", "fig4", "fig6"])
    def test_circle_deviation_is_the_abs_minus_1_maximum(self, tmp_path, figure):
        assert main(["reproduce", figure, "--out-dir", str(tmp_path)]) == 0
        for panel in "abcd":
            base = tmp_path / figure / panel
            column_max = np.max(np.abs(read_columns(base / "zeros.csv")[4]))
            header = (base / "zeros.csv").read_text().split("# circle_deviation=")[1]
            assert float(header.split()[0]) == column_max
            report = json.loads((base / "report.json").read_text())
            assert report["circle_deviation"] == column_max
            # every panel matches at the base window
            assert report["window"] == 1e-6
            assert report["max_deviation"] <= 1e-9

    def test_reproduce_fig4(self, tmp_path):
        assert main(["reproduce", "fig4", "--out-dir", str(tmp_path)]) == 0
        for panel in "abcd":
            base = tmp_path / "fig4" / panel
            assert (base / "zeros.csv").exists()
            assert (base / "series.csv").exists()
            report = json.loads((base / "report.json").read_text())
            assert report["unmatched_predicted"] == []
        # panel (a): all four zeros at theta = pi
        rows = [
            l
            for l in (tmp_path / "fig4" / "a" / "zeros.csv").read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        assert len(rows) == 4
        for row in rows:
            assert float(row.split(",")[3]) == pytest.approx(np.pi, abs=1e-6)

    def test_reproduce_failure_still_writes_every_panel(self, tmp_path, capsys):
        # 16 steps resolve fig6a's two zero times but not the 20 of fig6b-d
        assert main(["reproduce", "fig6", "--steps", "16", "--out-dir", str(tmp_path)]) == 1
        printed = capsys.readouterr().out
        assert all(f"fig6{panel}: " in printed for panel in "abcd")
        for panel in "abcd":
            base = tmp_path / "fig6" / panel
            assert (base / "zeros.csv").exists()
            assert (base / "series.csv").exists()
            report = json.loads((base / "report.json").read_text())
            assert bool(report["unmatched_predicted"]) == (panel != "a")

    def test_reproduce_deterministic(self, tmp_path):
        assert main(["reproduce", "fig2", "--out-dir", str(tmp_path / "one")]) == 0
        assert main(["reproduce", "fig2", "--out-dir", str(tmp_path / "two")]) == 0
        for panel in "abcd":
            for name in ("zeros.csv", "series.csv", "report.json"):
                a = (tmp_path / "one" / "fig2" / panel / name).read_text()
                b = (tmp_path / "two" / "fig2" / panel / name).read_text()
                assert_same_text(a, b)


def _ref(x):
    return format(float(x), ".17g")


def reference_series_csv(series, tag):
    """series.csv written one value at a time, as the reference for the writer."""
    lines = [
        f"# model={json.dumps(tag)}",
        f"# beta={_ref(series.poly.beta)} lambda={_ref(series.lam)} "
        f"delta={series.delta} h0={_ref(series.h0)}",
        "t,re,im,abs",
    ]
    for t, v in zip(series.times, series.values):
        lines.append(",".join(_ref(x) for x in (t, v.real, v.imag, abs(v))))
    return "\n".join(lines) + "\n"


def reference_zeros_csv(zeros, lam, delta, tag):
    """zeros.csv written one value at a time, as the reference for the writer."""
    mults = [m for _, m in zeros.clusters]
    multiplicity = np.repeat(mults, mults)
    lines = [
        f"# model={json.dumps(tag)}",
        f"# lambda={_ref(lam)} delta={delta}",
        f"# circle_deviation={_ref(zeros.circle_deviation)}",
        "index,re,im,theta,abs_minus_1,multiplicity,predicted_time",
    ]
    for i, (z, theta) in enumerate(zip(zeros.roots, zeros.angles)):
        t = float(np.mod(-theta, 2 * np.pi)) / (lam * delta)
        fields = [_ref(z.real), _ref(z.imag), _ref(theta), _ref(abs(z) - 1.0)]
        lines.append(",".join([str(i), *fields, str(multiplicity[i]), _ref(t)]))
    return "\n".join(lines) + "\n"


def read_columns(path):
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    return np.array([[float(x) for x in row.split(",")] for row in rows]).T


def check_series_file(path, series, tag):
    cli.write_series_csv(path, series)
    assert_same_text(path.read_text(), reference_series_csv(series, tag))
    t, re, im, mag = read_columns(path)
    assert np.array_equal(t, series.times)
    assert np.array_equal(re, series.values.real)
    assert np.array_equal(im, series.values.imag)
    assert np.array_equal(mag, [abs(v) for v in series.values])


def panel_config(figure, panel, steps=4096):
    preset = cli.FIGURE_PRESETS[figure]
    return RunConfig({
        "model": dict(preset["model"]),
        "temperature": {"T_over_J": dict(preset["panels"])[panel]},
        "probe": dict(preset["probe"]),
        "lambda": 1.0,
        "grid": {"steps": steps},
    })


FIGURE_PANELS = [
    (figure, panel) for figure, preset in cli.FIGURE_PRESETS.items() for panel, _ in preset["panels"]
]


class TestWriters:
    @pytest.mark.parametrize("figure, panel", FIGURE_PANELS)
    def test_panel_files_match_reference_and_round_trip(self, tmp_path, figure, panel):
        cfg = panel_config(figure, panel)
        poly, zeros, series, _ = cli._run_correlation(cfg)
        tag = poly.model_tag
        check_series_file(tmp_path / "series.csv", series, tag)

        path = tmp_path / "zeros.csv"
        cli.write_zeros_csv(path, zeros, cfg.lam, cfg.delta, tag)
        assert_same_text(path.read_text(), reference_zeros_csv(zeros, cfg.lam, cfg.delta, tag))
        index, re, im, theta, _, _, times = read_columns(path)
        assert np.array_equal(index, np.arange(len(zeros.roots)))
        assert np.array_equal(re, zeros.roots.real)
        assert np.array_equal(im, zeros.roots.imag)
        assert np.array_equal(theta, zeros.angles)
        assert np.array_equal(np.sort(times), np.sort(zeros.times(cfg.lam, cfg.delta)))

    @pytest.mark.parametrize("build, args, rows", [
        (build_long_range, (1100, HalfInt(1), 1.0, 0.0), 1100),  # one cluster at pi
        (build_ring, (600, HalfInt(2), 1.0, 0.0), 1200),  # 600 each at +-2pi/3
    ])
    def test_zeros_file_over_several_blocks(self, tmp_path, build, args, rows):
        poly = build(*args)
        zeros = find_zeros(poly)
        assert len(zeros.roots) == rows > cli._BLOCK_ROWS
        path = tmp_path / "zeros.csv"
        cli.write_zeros_csv(path, zeros, 1.0, 1, poly.model_tag)
        assert_same_text(path.read_text(), reference_zeros_csv(zeros, 1.0, 1, poly.model_tag))

    def test_reproduce_shares_time_text_over_a_partial_block(self, tmp_path):
        steps = 1500
        assert steps % cli._BLOCK_ROWS
        assert main(["reproduce", "fig4", "--steps", str(steps), "--out-dir", str(tmp_path)]) == 0
        for panel in "abcd":
            cfg = panel_config("fig4", panel, steps)
            poly, zeros, series, _ = cli._run_correlation(cfg)
            base = tmp_path / "fig4" / panel
            assert_same_text(
                (base / "series.csv").read_text(), reference_series_csv(series, poly.model_tag)
            )
            assert_same_text(
                (base / "zeros.csv").read_text(),
                reference_zeros_csv(zeros, cfg.lam, cfg.delta, poly.model_tag),
            )

    def test_special_values_over_a_partial_block(self, tmp_path):
        n = 2 * cli._BLOCK_ROWS + 5
        rng = np.random.default_rng(7)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        values *= 10.0 ** rng.integers(-300, 300, n)
        values[:3] = [complex(-0.0, 0.0), complex(5e-324, -0.0), complex(1e300, -1e300)]
        times = np.linspace(0.0, 3.0, n, endpoint=False)
        times[0] = -0.0
        poly = build_long_range(2, HalfInt(1), 1.0, 0.5)
        series = _series_to_write(times, values, poly)
        path = tmp_path / "series.csv"
        check_series_file(path, series, poly.model_tag)
        assert path.read_text().splitlines()[3] == "-0,-0,0,0"

    def test_real_rows_mixed_with_complex_rows(self, tmp_path):
        # rows with im == 0 take abs from re's text, the others from hypot
        n = 2 * cli._BLOCK_ROWS + 5
        rng = np.random.default_rng(3)
        re = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        im = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        im[rng.random(n) < 0.5] = 0.0
        special = [-0.0, 0.0, -np.inf, np.inf, -5e-324, 5e-324, -2.5, -1e300, -1e-310]
        for lo in (0, cli._BLOCK_ROWS - 4, n - len(special) - 1):
            re[lo:lo + len(special)] = special
            im[lo:lo + len(special)] = [0.0, -0.0] * 4 + [0.0]
        im[-1] = 1.0
        values = re.astype(complex)
        values.imag = im
        for lo in range(0, n, cli._BLOCK_ROWS):
            real_rows = np.count_nonzero(values.imag[lo:lo + cli._BLOCK_ROWS] == 0)
            assert 0 < real_rows < len(values[lo:lo + cli._BLOCK_ROWS])
        times = np.linspace(0.0, 3.0, n, endpoint=False)
        poly = build_long_range(2, HalfInt(1), 1.0, 0.5)
        series = _series_to_write(times, values, poly)
        check_series_file(tmp_path / "series.csv", series, poly.model_tag)

        # h0 != 0 leaves im != 0 on every row but t = 0, so no row takes re's text
        full = expectation_series(poly, sx_top_eigenstate(HalfInt(1)), 1.0, 1, h0=0.7, steps=n + 1)
        series = _series_to_write(full.times[1:], full.values[1:], poly, h0=full.h0)
        assert np.all(series.values.imag != 0)
        check_series_file(tmp_path / "series.csv", series, poly.model_tag)

    def test_nan_rows_match_the_reference_text(self, tmp_path):
        # %.17g prints NaN unsigned whatever its sign bit, so no "-" goes in
        # front of it; compared as text, since NaN does not equal itself
        nan = float("nan")
        re = np.array([nan, -nan, nan, -nan, nan, -nan, -nan, 1.5, -2.5])
        im = np.array([0.0, -0.0, -0.0, 0.0, 2.5, -1e-300, np.inf, -0.0, 0.0])
        assert np.signbit(re).tolist() == [False, True] * 3 + [True, False, True]
        values = re.astype(complex)
        values.imag = im
        n = len(values)
        poly = build_long_range(2, HalfInt(1), 1.0, 0.5)
        series = _series_to_write(np.linspace(0.0, 1.0, n), values, poly)
        path = tmp_path / "series.csv"
        cli.write_series_csv(path, series)
        text = path.read_text()
        assert_same_text(text, reference_series_csv(series, poly.model_tag))
        assert [row.split(",")[1:] for row in text.splitlines()[3:7]] == [
            ["nan", "0", "nan"], ["nan", "-0", "nan"], ["nan", "-0", "nan"], ["nan", "0", "nan"],
        ]

    def test_signed_zero_im_opposite_to_re_over_a_partial_block(self, tmp_path):
        # at h0 = 0 every panel's im is a zero of the sign opposite to re's
        n = cli._BLOCK_ROWS + 37
        rng = np.random.default_rng(11)
        re = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1e300, -1e300]
        for lo in (0, cli._BLOCK_ROWS - 3, n - len(special)):
            re[lo:lo + len(special)] = special
        values = re.astype(complex)
        values.imag = np.copysign(0.0, -re)
        assert np.all(np.signbit(values.imag) != np.signbit(values.real))
        times = np.linspace(0.0, 3.0, n, endpoint=False)
        poly = build_long_range(2, HalfInt(1), 1.0, 0.5)
        series = _series_to_write(times, values, poly)
        path = tmp_path / "series.csv"
        check_series_file(path, series, poly.model_tag)
        rows = path.read_text().splitlines()[3:5]
        assert [row.split(",", 1)[1] for row in rows] == ["0,-0,0", "-0,0,0"]

    def test_time_text_is_formatted_once_and_reused(self, tmp_path):
        n = 2 * cli._BLOCK_ROWS + 5
        times = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        poly = build_long_range(2, HalfInt(1), 1.0, 0.5)
        time_text = []
        for seed in (1, 2):
            values = np.random.default_rng(seed).standard_normal(n) + 0j
            series = _series_to_write(times, values, poly)
            path = tmp_path / f"series{seed}.csv"
            cli.write_series_csv(path, series, time_text)
            assert_same_text(path.read_text(), reference_series_csv(series, poly.model_tag))
            # one byte matrix per block, one row per step of that block
            assert [len(t) for t in time_text] == [cli._BLOCK_ROWS] * 2 + [5]
            if seed == 1:
                first = list(time_text)
        assert all(a is b for a, b in zip(time_text, first, strict=True))
        text = b"".join(
            np.column_stack([t, np.full(len(t), ord("\n"), np.uint8)]).tobytes() for t in first
        )
        assert text.translate(None, b"\0").decode() == "".join(f"{_ref(t)}\n" for t in times)


def _series_to_write(times, values, poly, h0=0.0):
    """What ``write_series_csv`` reads of a series, with hand-made complex values."""
    return SimpleNamespace(poly=poly, lam=1.0, delta=1, h0=h0, times=times, values=values)


def _column_series(x):
    """A series whose times, re and im are the values x, im shuffled."""
    x = np.asarray(x, dtype=float)
    values = x.astype(complex)
    values.imag = np.random.default_rng(len(x)).permutation(x)
    poly = build_long_range(2, HalfInt(1), 1.0, 0.5)
    return _series_to_write(x, values, poly), poly.model_tag


def _signed_text(x):
    """The lines the series writer makes of a time column, through its own parts."""
    rows = np.column_stack([
        cli._sign_bytes(x, cli._T_SIGN), cli._digit_rows(x), np.full(len(x), ord("\n"), np.uint8),
    ])
    return rows.tobytes().translate(None, b"\0").decode().splitlines()


def _powers_of_ten():
    """Each power of ten from 1e-323 to 1e308, its neighbours, 5 and 0.5 times it."""
    values = []
    for e in range(-323, 309):
        p = float(f"1e{e}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        values += [float(f"5e{e}"), float(f"5e{e - 1}")]
    return np.array(values)


def _near_ties():
    """m / 2**(k + d), whose scaled value m * 5**k / 2**d, of 17 digits before
    the point, is a rounding tie or misses one by 1 or 3 units of 2**-d.
    From d = 54 on, the fast path's sum cannot hold the miss."""
    values = []
    for d in (50, 54, 58):
        for k in range(23, 40):
            inverse = pow(5**k, -1, 2**d)
            lowest = -(-10**16 * 2**d // 5**k)
            for t in (-3, -1, 0, 1, 3):
                m = (2 ** (d - 1) + t) * inverse % 2**d
                m += -(-(lowest - m) // 2**d) * 2**d
                if m < 2**53:
                    values.append(math.ldexp(m, -(k + d)))
    assert len(values) > 100
    return values


def _ties_and_short_decimals(rng):
    """Odd m / 2**j whose exact decimals have 18 digits, the last a 5: each is
    a tie at 17 digits; m / 2**j with more digits; short rounded decimals."""
    ties = _near_ties()
    for j in range(3, 25):
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        m = rng.integers(lo, hi, 200) | 1
        ties += [math.ldexp(k, -j) for k in m.tolist() if len(str(k * 5**j)) == 18]
    assert len(ties) > 2000
    long = np.ldexp(rng.integers(1, 2**53, 2000) | 1, -rng.integers(1, 80, 2000))
    places = rng.integers(0, 9, 2000).tolist()
    short = [round(u, d) for u, d in zip(rng.uniform(0, 1e4, 2000).tolist(), places)]
    short += [k * 10.0**e for k in (1, 2, 3, 5, 7, 9, 25, 125, 999) for e in range(-30, 31)]
    return np.concatenate([ties, long, short])


class TestDigitText:
    """The series writer's text of a number is ``"%.17g" % v``."""

    def check(self, tmp_path, x):
        series, tag = _column_series(x)
        path = tmp_path / "series.csv"
        cli.write_series_csv(path, series)
        assert_same_text(path.read_text(), reference_series_csv(series, tag))

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(19)
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
        # every exponent field, subnormals and inf/NaN included
        assert len(np.unique(bits >> np.uint64(52) & np.uint64(0x7FF))) == 2048
        special = [np.inf, -np.inf, 5e-324, -2.2250738585072014e-308]
        x = np.concatenate([bits.view(np.float64), special])
        nan = np.isnan(x)
        assert np.signbit(x[nan]).any() and not np.signbit(x[nan]).all()
        assert _signed_text(x) == ["%.17g" % v for v in x.tolist()]
        # the whole writer on a part, NaN made quiet as numpy arithmetic makes
        # it: np.hypot warns on a signaling NaN
        x[nan] = np.copysign(np.nan, x[nan])
        self.check(tmp_path, np.concatenate([x[:4000], x[-4:]]))

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        x = _powers_of_ten()
        # the double nearest 1e-269 is below it, and log10 rounds it up to -269
        assert "%.17g" % 1e-269 == "9.9999999999999996e-270"
        assert _signed_text(np.array([1e-269]))[0] == "9.9999999999999996e-270"
        self.check(tmp_path, np.concatenate([x, -x]))

    def test_ties_and_short_decimals(self, tmp_path):
        x = _ties_and_short_decimals(np.random.default_rng(5))
        self.check(tmp_path, np.concatenate([x, -x]))

    def test_signed_zeros(self):
        assert _signed_text(np.array([0.0, -0.0, 1.5, -1.5])) == ["0", "-0", "1.5", "-1.5"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_digit_text_of_any_floats(values):
    assert _signed_text(np.array(values)) == ["%.17g" % v for v in values]


# Numbers over the whole float range: half of them values that every number
# field accepts, the rest signed zeros, subnormals, 1e300, the largest floats,
# NaN and the infinities, or any float.
_NUMBERS = st.one_of(
    st.floats(0.25, 4.0),
    st.floats(0.25, 4.0),
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-310, 1e300, 1e308, sys.float_info.max, math.nan, math.inf]
    ),
    st.floats(),
)
# Any JSON value that is not a number.
_OTHER_JSON = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 2), max_size=1),
)


def _slots(value):
    """(container, key) of every value nested in a JSON object or list."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in list(items):
        yield value, key
        if isinstance(item, (dict, list)):
            yield from _slots(item)


@st.composite
def _configs(draw):
    """A run configuration of at most 6 spins of 2s <= 3 and 512 steps.

    The probe has 2s0 <= 3, or 1029, 1030 or 2100 with the sx_max state, and
    any delta up to 2s0.

    Its numbers come from _NUMBERS, and then up to two of its values, the
    whole object included, are replaced by any number or other JSON value, or
    deleted.
    """
    def maybe(mapping, key, values):
        if draw(st.booleans()):
            mapping[key] = draw(values)
        return mapping

    kind = draw(st.sampled_from(MODEL_KINDS))
    n = draw(st.integers(3 if kind == "ring" else 1, 6))
    model = {"kind": kind, "n_spins": n, "two_s": draw(st.integers(1, 3))}
    maybe(model, "J", _NUMBERS)
    if kind == "exact" and draw(st.booleans()):
        # couplings of at most two strengths, so that baths split into blocks
        strengths = [0, *draw(st.lists(_NUMBERS, min_size=1, max_size=2))]
        upper = {(i, j): draw(st.sampled_from(strengths)) for i in range(n) for j in range(i)}
        model["couplings"] = [[upper.get((max(i, j), min(i, j)), 0) for j in range(n)]
                              for i in range(n)]
    temperature = {"beta": draw(_NUMBERS)} if draw(st.booleans()) else {
        "T_over_J": draw(st.just("inf") | _NUMBERS)
    }
    # a large probe spin, about the float range of its amplitudes and past the cap
    two_s0 = draw(st.integers(1, 3) | st.sampled_from([1029, 1030, 2100]))
    probe = maybe({"two_s0": two_s0}, "delta", st.integers(1, two_s0))
    maybe(probe, "h0", _NUMBERS)
    amplitude = _NUMBERS | st.lists(_NUMBERS, min_size=2, max_size=2)
    if two_s0 <= 3:  # the larger spins keep the sx_max state
        maybe(probe, "state", st.lists(amplitude, min_size=two_s0 + 1, max_size=two_s0 + 1))
    data = {"model": model, "temperature": temperature, "probe": probe}
    maybe(data, "lambda", _NUMBERS)
    data["grid"] = maybe({"steps": draw(st.integers(2, 512))}, "t_max", _NUMBERS)
    tolerances = maybe(maybe({}, "magnitude_tol", _NUMBERS), "match_window", _NUMBERS)
    maybe(data, "tolerances", st.just(tolerances))
    for _ in range(draw(st.integers(0, 2))):
        slot = draw(st.sampled_from([*_slots(data), None]))
        value = draw(_NUMBERS | _OTHER_JSON)
        if slot is None:
            data = value
        elif isinstance(slot[0], dict) and draw(st.booleans()):
            del slot[0][slot[1]]
        else:
            slot[0][slot[1]] = value
        if not isinstance(data, (dict, list)):
            break
    return data


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(_configs())
def test_fuzz_config_exits_cleanly(tmp_path, capsys, data):
    """Any JSON config ends in exit 0, 1 or 2, with ``error:`` on exit 2, and never warns."""
    cfg = write_config(tmp_path, data)
    for command in ("correlate", "evolve"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (command, data)
        assert code != 2 or err.startswith("error: "), (command, data, err)


def test_import_builds_no_digit_table():
    src = str(Path(leeyang.__file__).resolve().parent.parent)
    code = (
        "import leeyang.cli as cli; "
        "print(cli._digit_tables.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "0"


def test_assert_same_text_names_the_first_differing_line():
    assert_same_text("a\nb\n", "a\nb\n")
    with pytest.raises(AssertionError, match=r"line 2: got 'x\\n', expected 'b\\n'"):
        assert_same_text("a\nx\nc\n", "a\nb\nc\n")
    with pytest.raises(AssertionError, match="line 3: got '<end of text>', expected 'c'"):
        assert_same_text("a\nb\n", "a\nb\nc")


def test_import_does_not_load_scipy():
    src = str(Path(leeyang.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, leeyang; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_src_imports_numpy_and_the_standard_library_alone():
    # an install without the test extra runs the package: a lazy `import mpmath`
    # in a function would fail there, and importing the package would not show it
    found = set()
    for path in sorted(Path(leeyang.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert ("probe.py", "numpy") in found
    allowed = {"numpy", *sys.stdlib_module_names}
    assert sorted((file, name) for file, name in found if name not in allowed) == []


def test_every_pytest_raises_checks_the_message():
    # a refusal's message is part of what the program returns: each
    # pytest.raises names it with match=, or binds the exception to read it
    bare = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {
            id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With)
            for item in node.items if item.optional_vars is not None
        }
        bare += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises"
            and id(node) not in bound and not any(k.arg == "match" for k in node.keywords)
        ]
    assert bare == []
