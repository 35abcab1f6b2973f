"""The precision frontier, pinned cell by cell.

Each cell is one configuration run as ``leeyang correlate`` runs it: the
x-polarised spin-1/2 probe and every other config default (lambda = 1,
delta = 1, 4096 steps, match window and magnitude tolerance 1e-6).  A cell
ends matched, unmatched, or refused (a RootConvergenceError from find_zeros,
kept with the first words of its reason).  The groups:

- the sweep: ring and long_range, 2s in {1, 2, 3}, N in SWEEP_NS, beta in
  SWEEP_BETAS (336 cells), and its beta = 0 row (48 cells);
- the precision table: ring s=1 and long_range s=1 at T = 8J, ring s=1/2 at
  T = 2J, each at N in {10, 14, 18, 22, 30};
- ring s=1/2 at beta*J = 0.5 and N in {14, 18, 22, 26, 30}, where the zeros
  have a closed form (Lee & Yang 1952).

Every ring s=1/2 cell with beta > 0 also records its worst angle error
against that closed form, and every answered cell its ``kappa2_gap``: the
relative gap between kappa_2 summed over its zeros and kappa_2 from its
coefficients (test_moments.py), which no matched cell lets pass 1e-10.  The
test fails when a cell's outcome or counts differ from frontier_outcomes.json,
or a recorded deviation, error or gap moves by more than FLOAT_RTOL (or
FLOAT_ATOL near zero).  A change that moves a
cell rewrites the file and says which cells moved.  To rewrite it:

    PYTHONPATH=src python tests/test_frontier.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import kappa2_gap
from leeyang import RootConvergenceError, RunConfig
from leeyang.cli import _run_correlation

OUTCOMES = Path(__file__).with_name("frontier_outcomes.json")

SWEEP_NS = (3, 4, 6, 8, 10, 12, 14, 16)
SWEEP_BETAS = (1e-6, 1e-3, 0.05, 1 / 8, 0.5, 2.0, 8.0)
TABLE_NS = (10, 14, 18, 22, 30)
CLOSED_FORM_NS = (14, 18, 22, 26, 30)
# A recorded float (a match's deviation, a closed-form error) has moved when
# it differs by more than FLOAT_RTOL of itself and by more than FLOAT_ATOL,
# a millionth of the match window: last-bit changes between numpy builds
# are not moves.
FLOAT_RTOL = 0.01
FLOAT_ATOL = 1e-12
FLOAT_FIELDS = ("max_deviation", "closed_form_error", "kappa2_gap")


def cell_id(kind, two_s, n, beta):
    return f"{kind} 2s={two_s} N={n} beta={beta!r}"


def groups():
    """Each group's cells as (kind, two_s, n, beta), in order."""
    models = [(kind, two_s) for kind in ("ring", "long_range") for two_s in (1, 2, 3)]
    return {
        "sweep": [(k, s, n, b) for k, s in models for n in SWEEP_NS for b in SWEEP_BETAS],
        "beta_zero": [(k, s, n, 0.0) for k, s in models for n in SWEEP_NS],
        "precision_table": [
            (kind, two_s, n, beta)
            for kind, two_s, beta in (("ring", 2, 1 / 8), ("ring", 1, 0.5), ("long_range", 2, 1 / 8))
            for n in TABLE_NS
        ],
        "closed_form": [("ring", 1, n, 0.5) for n in CLOSED_FORM_NS],
    }


def closed_form_angles(n, beta_j):
    """Zero angles of the spin-1/2 ring, ascending, as in test_spin_half_zeros_match_closed_form.

    Lee & Yang 1952: sin^2(theta_k / 2) = sin^2 phi_k + e^{-beta J} cos^2 phi_k,
    phi_k = (2k + 1) pi / (2N), written as an arctangent.
    """
    phi = (2 * np.arange((n + 1) // 2) + 1) * np.pi / (2 * n)
    a = math.exp(-beta_j)
    half = np.arctan2(
        np.sqrt(np.sin(phi) ** 2 + a * np.cos(phi) ** 2),
        np.abs(np.cos(phi)) * math.sqrt(-math.expm1(-beta_j)),
    )
    return np.sort(np.concatenate([2 * half, -2 * half[: n // 2]]))


def measure(kind, two_s, n, beta):
    """The outcome of one cell and what it is pinned by."""
    cfg = RunConfig({
        "model": {"kind": kind, "n_spins": n, "two_s": two_s},
        "temperature": {"beta": beta},
        "probe": {"two_s0": 1},
    })
    try:
        poly, zeros, _, report = _run_correlation(cfg)
    except RootConvergenceError as exc:
        return {"outcome": "refused", "reason": " ".join(str(exc).split()[:6])}
    cell = {
        "outcome": "matched" if report.all_matched else "unmatched",
        "matched": len(report.matches),
        "predicted": len(report.predicted),
        "unmatched_detected": len(report.unmatched_detected),
        "max_deviation": report.max_deviation,
    }
    if kind == "ring" and two_s == 1 and beta > 0:
        error = np.max(np.abs(zeros.angles - closed_form_angles(n, beta * cfg.J)))
        cell["closed_form_error"] = float(error)
    cell["kappa2_gap"] = kappa2_gap(poly, zeros)
    return cell


def measure_all():
    """The outcomes document: versions, every cell, and each group's tally."""
    cells, tallies = {}, {}
    for group, members in groups().items():
        tally = dict.fromkeys(("matched", "unmatched", "refused"), 0)
        for key in members:
            name = cell_id(*key)
            if name not in cells:
                cells[name] = measure(*key)
            tally[cells[name]["outcome"]] += 1
        tallies[group] = tally
    return {
        "numpy": np.__version__,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "groups": tallies,
        "cells": cells,
    }


def dumps(doc):
    """The document as JSON with one line per cell."""
    cells = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc["cells"].items())
    head = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items() if k != "cells")
    return f"{{\n{head},\n \"cells\": {{\n{cells}\n }}\n}}\n"


def moved(pinned, now):
    """The fields in which cell ``now`` differs from ``pinned``."""
    fields = []
    for key in sorted(set(pinned) | set(now)):
        a, b = pinned.get(key), now.get(key)
        if key in FLOAT_FIELDS and a is not None and b is not None:
            same = abs(a - b) <= max(FLOAT_ATOL, FLOAT_RTOL * max(abs(a), abs(b)))
        else:
            same = a == b
        if not same:
            fields.append(f"{key}: {a!r} -> {b!r}")
    return fields


@pytest.fixture(scope="module")
def pinned():
    doc = json.loads(OUTCOMES.read_text())
    nmant = int(np.finfo(np.longdouble).nmant)
    if doc["longdouble_nmant"] != nmant:
        pytest.skip(
            f"pinned with a {doc['longdouble_nmant']}-bit longdouble significand, "
            f"this platform's has {nmant}"
        )
    return doc


@pytest.fixture(scope="module")
def measured(pinned):
    return measure_all()


@pytest.mark.parametrize("group", list(groups()))
def test_cells_keep_their_pinned_outcome(pinned, measured, group):
    changes = []
    for key in groups()[group]:
        name = cell_id(*key)
        fields = moved(pinned["cells"].get(name, {}), measured["cells"][name])
        if fields:
            changes.append(f"{name}: " + "; ".join(fields))
    assert not changes, f"{len(changes)} {group} cell(s) moved:\n" + "\n".join(changes)
    assert measured["groups"][group] == pinned["groups"][group]


def test_every_matched_cell_has_the_kappa2_of_its_coefficients(measured):
    gaps = {name: cell["kappa2_gap"] for name, cell in measured["cells"].items()
            if cell["outcome"] == "matched"}
    assert max(gaps.values()) <= 1e-10, {k: g for k, g in gaps.items() if g > 1e-10}


def test_outcomes_file_lists_exactly_the_cells(pinned):
    names = {cell_id(*key) for members in groups().values() for key in members}
    assert set(pinned["cells"]) == names


if __name__ == "__main__":
    OUTCOMES.write_text(dumps(measure_all()))
    print(f"wrote {OUTCOMES}")
