"""The three benchmark workloads: seeded configurations, their runs and checks.

Every configuration is one call sequence into the public ``leeyang`` API.
Calls go through module attributes (``leeyang.zeros.find_zeros``, not a name
bound at import) so that the tracer can wrap them from outside.  Each check
raises ``CheckFailed`` on an output that is wrong; the runner counts it.
"""

import contextlib
import io
import itertools
import json
import math
import shutil
from dataclasses import dataclass
from functools import partial

import numpy as np

import leeyang.cli
import leeyang.config
import leeyang.partition
import leeyang.probe
import leeyang.zeros
from leeyang.spins import HalfInt

PROBE = {"two_s0": 1, "delta": 1}
SERIES_STEPS = 4096  # the CLI's default grid, which `reproduce` uses
CIRCLE_LIMIT_SIMPLE = 1e-8
CIRCLE_LIMIT_CLUSTERED = 1e-4
ANGLE_TOL = 1e-6


class CheckFailed(Exception):
    """An output of the program disagrees with what the benchmark expects."""


@dataclass
class Config:
    """One configuration: ``run()`` is timed, ``check(output)`` is not.

    ``known_defect`` names a failure present at the commit that defined the
    benchmark.  Its failures still count in ``failed``; they alone do not make
    the run incorrect, and the configuration passing later is welcome.
    """

    name: str
    run: object
    check: object
    known_defect: str = None
    before_run: object = None

    def verify(self, output):
        """The check's failure message, or None when the output is right.

        Output files that are missing or do not parse fail the check too.
        """
        try:
            self.check(output)
        except CheckFailed as exc:
            return str(exc)
        except (OSError, ValueError, LookupError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None


# --------------------------------------------------------------------- panels

PANEL_LABELS = "abcd"


def _reproduce(fig, out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        return leeyang.cli.main(["reproduce", fig, "--out-dir", str(out_dir)])


def _clear(path):
    shutil.rmtree(path, ignore_errors=True)


def _check_figure(fig, out_dir, status):
    if status != 0:
        raise CheckFailed(f"{fig}: reproduce exited with {status}")
    for label in PANEL_LABELS:
        panel = out_dir / fig / label
        report = json.loads((panel / "report.json").read_text())
        if report["unmatched_predicted"] or len(report["matches"]) != len(report["predicted"]):
            raise CheckFailed(
                f"{fig}{label}: matched {len(report['matches'])}/{len(report['predicted'])}"
            )
        rows = [
            line.split(",")
            for line in (panel / "zeros.csv").read_text().splitlines()[4:]
        ]
        clustered = max(int(row[5]) for row in rows) > 1
        limit = CIRCLE_LIMIT_CLUSTERED if clustered else CIRCLE_LIMIT_SIMPLE
        if not report["circle_deviation"] < limit:
            raise CheckFailed(
                f"{fig}{label}: circle deviation {report['circle_deviation']} >= {limit}"
            )
        with open(panel / "series.csv") as fh:
            samples = sum(1 for line in fh if line[0] not in "#t")
        if samples != SERIES_STEPS:
            raise CheckFailed(f"{fig}{label}: series.csv has {samples} samples")


def panels(rng, out_dir):
    """`leeyang reproduce fig2|fig4|fig6` in process: the 12 figure panels."""
    figs = ["fig2", "fig4", "fig6"]
    rng.shuffle(figs)
    return [
        Config(
            fig,
            run=partial(_reproduce, fig, out_dir),
            check=partial(_check_figure, fig, out_dir),
            before_run=partial(_clear, out_dir / fig),
        )
        for fig in figs
    ]


# ----------------------------------------------------------------- degenerate

def _run_config(model, beta):
    return leeyang.config.RunConfig(
        {"model": model, "temperature": {"beta": beta}, "probe": dict(PROBE), "lambda": 1.0}
    )


def _pipeline(model, beta):
    cfg = _run_config(model, beta)
    poly = cfg.build_polynomial()
    zeros = leeyang.zeros.find_zeros(poly)
    series = leeyang.probe.expectation_series(
        poly, cfg.probe_state(), cfg.lam, cfg.delta, cfg.h0, cfg.t_max, cfg.steps
    )
    # The library default window cannot resolve touching zeros; the CLI widens
    # it by multiplicity, and the benchmark asks for the same behaviour.
    window = leeyang.cli.matching_window(
        max(m for _, m in zeros.clusters), cfg.match_window
    )
    report = leeyang.probe.correlate(
        zeros, series, window=window, magnitude_tol=cfg.magnitude_tol,
        lam=cfg.lam, delta=cfg.delta,
    )
    return zeros, report


def _check_degenerate(expected_angles, multiplicity, output):
    zeros, report = output
    problems = []
    got = sorted(m for _, m in zeros.clusters)
    if got != [multiplicity] * len(expected_angles):
        problems.append(f"multiplicities {got}, expected {len(expected_angles)} x {multiplicity}")
    misses = [
        min(abs(np.exp(1j * angle) - np.exp(1j * a)) for a in expected_angles)
        for angle, _ in zeros.clusters
    ]
    if max(misses) > ANGLE_TOL:
        problems.append(f"a cluster lies {max(misses):.2g} from every expected root")
    if not zeros.circle_deviation < CIRCLE_LIMIT_CLUSTERED:
        problems.append(f"circle deviation {zeros.circle_deviation:.2g}")
    if not report.all_matched or len(report.matches) != len(expected_angles):
        problems.append(
            f"matched {len(report.matches)}/{len(report.predicted)}, "
            f"expected {len(expected_angles)}"
        )
    if problems:
        raise CheckFailed("; ".join(problems))


def _block_root_angles(block, two_s, beta):
    """Zero angles of one block, by brute-force enumeration and numpy.roots."""
    ms = [d / 2 for d in range(-two_s, two_s + 1, 2)]
    size = len(block)
    coeffs = np.zeros(size * two_s + 1)
    for conf in itertools.product(ms, repeat=size):
        energy = sum(
            block[i][j] * conf[i] * conf[j] for i in range(size) for j in range(i + 1, size)
        )
        coeffs[round(size * two_s / 2 - sum(conf))] += math.exp(beta * energy)
    return np.angle(np.roots(coeffs[::-1]))


# β=0 closed forms: (1 + z + ... + z^2s)^N, whose roots are the (2s+1)-th
# roots of unity other than 1, each N-fold.
CLOSED_FORMS = [
    ("long_range", 12, 1, "silently wrong when this benchmark was added: 1/7 matched, "
     "circle deviation 0.13 (12-fold root beyond double precision)"),
    ("long_range", 4, 3, None),
    ("ring", 6, 2, None),
]

# Split baths: identical blocks, so every zero of one block is a zero of the
# bath with multiplicity = block count.  Each slot's shapes cost about the
# same, so the seed changes the inputs without changing the work much.
SPLIT_SLOTS = [
    (1, [(2, 4), (4, 2)]),          # s = 1/2, 8 spins
    (2, [(3, 2)]),                  # s = 1, 6 spins
    (1, [(4, 3), (3, 4), (2, 6)]),  # s = 1/2, 12 spins
]
SPLIT_BETA = 0.5


def degenerate(rng, out_dir):
    """Multiple roots through RunConfig -> build -> zeros -> series -> correlate."""
    configs = []
    for kind, n, two_s, defect in CLOSED_FORMS:
        angles = [2 * math.pi * k / (two_s + 1) for k in range(1, two_s + 1)]
        model = {"kind": kind, "n_spins": n, "two_s": two_s}
        configs.append(Config(
            f"{kind}_2s{two_s}_N{n}_beta0",
            run=partial(_pipeline, model, 0.0),
            check=partial(_check_degenerate, angles, n),
            known_defect=defect,
        ))
    for two_s, shapes in SPLIT_SLOTS:
        blocks, size = shapes[rng.integers(len(shapes))]
        upper = np.triu(rng.uniform(0.5, 1.5, (size, size)), 1)
        block = upper + upper.T
        model = {
            "kind": "exact", "n_spins": blocks * size, "two_s": two_s,
            "couplings": np.kron(np.eye(blocks), block).tolist(),
        }
        configs.append(Config(
            f"exact_2s{two_s}_{blocks}x{size}",
            run=partial(_pipeline, model, SPLIT_BETA),
            check=partial(
                _check_degenerate,
                list(_block_root_angles(block.tolist(), two_s, SPLIT_BETA)),
                blocks,
            ),
        ))
    rng.shuffle(configs)
    return configs


# --------------------------------------------------------------- build_ladder

LADDER_BETA = 0.5
# Largest sizes at which a pass still fits about fifteen times in a 20 s run;
# with ring N=400 and long_range N=200 only three to five passes fit, and the
# per-configuration percentiles did not repeat from run to run.
LADDER = [
    ("ring", 2, [50, 100, 200]),
    ("long_range", 1, [25, 50, 100]),
    ("exact", 1, [14, 16, 18]),
]
ORACLE = (50, 20)  # long_range N and coefficient index checked by quadrature


def _build(model):
    return _run_config(model, LADDER_BETA).build_polynomial()


def _close(a, b, rtol):
    return np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b)))


def _check_ladder(kind, n, two_s, poly):
    lc = poly.log_coeffs
    if lc.shape != (n * two_s + 1,) or not np.all(np.isfinite(lc)):
        raise CheckFailed("log-coefficients not finite or of the wrong length")
    asymmetry = float(np.max(np.abs(lc - lc[::-1])))
    if asymmetry > 1e-12 * max(1.0, float(np.max(np.abs(lc)))):
        raise CheckFailed(f"not palindromic: {asymmetry:g}")
    if kind == "ring":
        # Z(beta, 0) = Tr T^N for the transfer matrix T = exp(beta J m m')
        ms = np.array([d / 2 for d in range(-two_s, two_s + 1, 2)])
        eig = np.linalg.eigvalsh(np.exp(LADDER_BETA * np.outer(ms, ms)))
        top = eig[np.argmax(np.abs(eig))]
        log_z = n * math.log(abs(top)) + math.log(np.sum((eig / top) ** n))
        total = float(np.logaddexp.reduce(lc))
        if not _close(total, log_z, 1e-12):
            raise CheckFailed(f"ring log Z {total!r} vs transfer matrix {log_z!r}")
    elif kind == "long_range":
        # s = 1/2: p_n = C(N, n) exp(a (N/2 - n)^2 - N a / 4), a = beta J / 2N
        a = LADDER_BETA / (2 * n)
        ref = np.array([
            math.log(math.comb(n, k)) + a * (n / 2 - k) ** 2 - n * a / 4
            for k in range(n + 1)
        ])
        if not _close(lc, ref, 1e-12):
            raise CheckFailed(f"binomial closed form off by {np.max(np.abs(lc - ref)):g}")
        if n == ORACLE[0]:
            k = ORACLE[1]
            quad = leeyang.partition.long_range_integral_oracle(
                n, HalfInt(two_s), 1.0, LADDER_BETA, k
            )
            if not _close(math.exp(lc[k]), quad, 1e-10):
                raise CheckFailed(f"p_{k} = {math.exp(lc[k])!r}, quadrature {quad!r}")
    else:
        ref = leeyang.partition.build_long_range(
            n, HalfInt(two_s), 1.0, LADDER_BETA
        ).log_coeffs
        if not _close(lc, ref, 1e-12):
            raise CheckFailed(f"exact vs long_range off by {np.max(np.abs(lc - ref)):g}")


def build_ladder(rng, out_dir):
    """Builders alone, at sizes where their O(N^2) Python loops dominate."""
    configs = []
    for kind, two_s, sizes in LADDER:
        for n in sizes:
            model = {"kind": kind, "n_spins": n, "two_s": two_s}
            if kind == "exact":
                # all-to-all J/N, the long-range model enumerated spin by spin
                model["couplings"] = ((np.ones((n, n)) - np.eye(n)) / n).tolist()
            configs.append(Config(
                f"{kind}_2s{two_s}_N{n}",
                run=partial(_build, model),
                check=partial(_check_ladder, kind, n, two_s),
            ))
    rng.shuffle(configs)
    return configs


WORKLOADS = {"panels": panels, "degenerate": degenerate, "build_ladder": build_ladder}
