"""Command-line front end: zeros / evolve / correlate / reproduce.

All numeric output is serialized with 17 significant digits so that emitted
CSV re-parses to the in-memory values exactly.  series.csv formats each
number once, a block of rows at a time.  Its ``re`` column is the ``|re|``
text behind a ``-`` taken from the sign bit; where ``im`` is a signed zero,
``im`` is ``0`` or ``-0`` by its sign bit and ``abs`` is the ``|re|`` text
again.  The panels of one ``reproduce`` figure, which share one time grid,
share one formatted time column.  Each block's rows are joined from these
texts, and none of this changes a byte.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import MAX_STEPS, ConfigError, RunConfig, _integer, _number, load_config
from .probe import correlate, expectation_series
from .zeros import RootConvergenceError, find_zeros


def _fmt(x):
    return format(float(x), ".17g")


def matching_window(max_multiplicity, base=1e-6):
    """The match window at any multiplicity: ``base``.

    Exists only for the call in bench/workloads.py; the benchmark's next
    refresh removes it.
    """
    return base


FIGURE_PRESETS = {
    "fig2": {
        "model": {"kind": "exact", "n_spins": 2, "two_s": 5, "J": 1.0},
        "probe": {"two_s0": 5, "delta": 1},
        "panels": [("a", "inf"), ("b", 32), ("c", 8), ("d", 1)],
    },
    "fig4": {
        "model": {"kind": "long_range", "n_spins": 4, "two_s": 1, "J": 1.0},
        "probe": {"two_s0": 1, "delta": 1},
        "panels": [("a", "inf"), ("b", 8), ("c", 0.5), ("d", 0.0625)],
    },
    "fig6": {
        "model": {"kind": "ring", "n_spins": 10, "two_s": 2, "J": 1.0},
        "probe": {"two_s0": 1, "delta": 1},
        "panels": [("a", "inf"), ("b", 8), ("c", 2), ("d", 0.25)],
    },
}


# Rows per block; the writers hold the text of one block.  At 1024 rows the
# series writer's per-block lists raised the peak resident memory of repeated
# `reproduce` runs by about 0.7 MB; at 512 they do not, and it is no slower.
_BLOCK_ROWS = 512


def _write_block(f, row_format, columns):
    """Write equal-length columns as CSV rows with one `%` formatting operation.

    ``%.17g`` of a Python float gives the digits of ``format(x, ".17g")``, and
    ``%d`` writes the integer-valued columns.
    """
    rows = np.column_stack(columns)
    f.write(row_format * len(rows) % tuple(rows.ravel().tolist()))


def write_zeros_csv(path, zeros, lam, delta, tag):
    mults = [m for _, m in zeros.clusters]
    multiplicity = np.repeat(mults, mults)
    times = zeros.times(lam, delta)
    with open(path, "w") as f:
        f.write(
            f"# model={json.dumps(tag)}\n"
            f"# lambda={_fmt(lam)} delta={delta}\n"
            f"# circle_deviation={_fmt(zeros.circle_deviation)}\n"
            "index,re,im,theta,abs_minus_1,multiplicity,predicted_time\n"
        )
        for lo in range(0, len(times), _BLOCK_ROWS):
            b = slice(lo, lo + _BLOCK_ROWS)
            z = zeros.roots[b]
            # hypot is the scalar abs() of a complex; numpy's vectorised
            # complex abs can differ from it in the last bit
            _write_block(f, "%d,%.17g,%.17g,%.17g,%.17g,%d,%.17g\n", [
                np.arange(lo, lo + len(z)), z.real, z.imag, zeros.angles[b],
                np.hypot(z.real, z.imag) - 1.0, multiplicity[b], times[b],
            ])


# The text before re's digits and the im field of a signed zero, each
# indexed by a sign bit.
_RE_LEAD = np.array([",", ",-"], dtype=object)
_ZERO_IM = np.array([",0,", ",-0,"], dtype=object)


def _column_text(x):
    """The ``%.17g`` text of each value of a 1-D array, one per line."""
    return ("%.17g\n" * len(x)) % tuple(x.tolist())


def write_series_csv(path, series, tag, time_text=None):
    """Write ``t,re,im,abs`` rows, every number as ``%.17g``.

    Each block of rows formats ``|re|`` once and is written as one
    ``str.join`` of six pieces per row: ``t``, ``,`` or ``,-``, ``|re|``,
    ``,im,``, ``abs`` and the line end.  The ``-`` goes where re's sign bit is
    set: for every non-NaN x, ``"%.17g" % -x`` is ``"-" + "%.17g" % x``,
    ``-0.0`` and ``-inf`` included, and NaN prints unsigned either way.  Where
    ``im`` is a signed zero its field is ``0`` or ``-0`` by its sign bit, and
    ``abs``, ``hypot(re, +-0) = |re|``, is the ``|re|`` text again.  Only
    rows with ``im != 0`` format ``im`` and ``np.hypot`` of the row.

    ``time_text``, a list shared by calls whose series have the same times,
    formats that column once: the first call appends one string per block of
    rows (about 19 bytes per step) and later calls reuse them.
    """
    with open(path, "w") as f:
        f.write(
            f"# model={json.dumps(tag)}\n"
            f"# beta={_fmt(series.poly.beta)} lambda={_fmt(series.lam)} "
            f"delta={series.delta} h0={_fmt(series.h0)}\n"
            "t,re,im,abs\n"
        )
        for k, lo in enumerate(range(0, len(series.times), _BLOCK_ROWS)):
            if time_text is not None and k < len(time_text):
                t = time_text[k]
            else:
                t = _column_text(series.times[lo:lo + _BLOCK_ROWS])
                if time_text is not None:
                    time_text.append(t)
            v = series.values[lo:lo + _BLOCK_ROWS]
            re, im = v.real, v.imag
            mag = _column_text(np.abs(re)).splitlines()
            n = len(mag)
            row = [None] * (6 * n)
            row[0::6] = t.splitlines()
            row[1::6] = _RE_LEAD[(np.signbit(re) & ~np.isnan(re)).view(np.int8)].tolist()
            row[2::6] = mag
            row[3::6] = _ZERO_IM[np.signbit(im).view(np.int8)].tolist()
            row[4::6] = mag
            row[5::6] = ["\n"] * n
            off = np.flatnonzero(im)
            if len(off):
                for i, y, m in zip(
                    (6 * off + 3).tolist(),
                    _column_text(im[off]).splitlines(),
                    _column_text(np.hypot(re[off], im[off])).splitlines(),
                ):
                    row[i], row[i + 1] = f",{y},", m
            f.write("".join(row))


def write_report_json(path, report, circle_dev):
    doc = {
        "predicted": [float(t) for t in report.predicted],
        "detected": [{"t": float(t), "residual": float(r)} for t, r in report.detected],
        "matches": [
            {"predicted": float(p), "detected": float(d), "deviation": float(v)}
            for p, d, v in report.matches
        ],
        "max_deviation": float(report.max_deviation),
        "circle_deviation": float(circle_dev),
        "window": float(report.window),
        "unmatched_predicted": [float(t) for t in report.unmatched_predicted],
        "unmatched_detected": [float(t) for t, _ in report.unmatched_detected],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _apply_overrides(cfg, args):
    if getattr(args, "steps", None) is not None:
        cfg.steps = _integer(args.steps, "--steps", 2, MAX_STEPS)
    if getattr(args, "t_max", None) is not None:
        cfg.t_max = _number(args.t_max, "--t-max", 0.0, strict=True)


def cmd_zeros(args):
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    poly = cfg.build_polynomial()
    zeros = find_zeros(poly)
    write_zeros_csv(args.out, zeros, cfg.lam, cfg.delta, poly.model_tag)
    print(f"circle_deviation={_fmt(zeros.circle_deviation)}")
    return 0


def cmd_evolve(args):
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    poly = cfg.build_polynomial()
    series = expectation_series(
        poly, cfg.probe_state(), cfg.lam, cfg.delta, cfg.h0, cfg.t_max, cfg.steps
    )
    write_series_csv(args.out, series, poly.model_tag)
    return 0


def _run_correlation(cfg):
    poly = cfg.build_polynomial()
    zeros = find_zeros(poly)
    series = expectation_series(
        poly, cfg.probe_state(), cfg.lam, cfg.delta, cfg.h0, cfg.t_max, cfg.steps
    )
    report = correlate(
        zeros, series, window=cfg.match_window, magnitude_tol=cfg.magnitude_tol,
        lam=cfg.lam, delta=cfg.delta,
    )
    return poly, zeros, series, report


def cmd_correlate(args):
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    _, zeros, _, report = _run_correlation(cfg)
    write_report_json(args.out, report, zeros.circle_deviation)
    if not report.all_matched:
        print(
            f"{len(report.unmatched_predicted)} predicted zero time(s) unmatched",
            *(f"  t = {_fmt(t)}" for t in report.unmatched_predicted),
            sep="\n", file=sys.stderr,
        )
        return 1
    print(f"max_deviation={_fmt(report.max_deviation)}")
    return 0


def cmd_reproduce(args):
    preset = FIGURE_PRESETS[args.figure]
    out_root = Path(args.out_dir)
    status = 0
    # the panels differ only in temperature, so their series share one time grid
    time_text = []
    for label, t_over_j in preset["panels"]:
        cfg = RunConfig(
            {
                "model": dict(preset["model"]),
                "temperature": {"T_over_J": t_over_j},
                "probe": dict(preset["probe"]),
                "lambda": 1.0,
            }
        )
        _apply_overrides(cfg, args)
        poly, zeros, series, report = _run_correlation(cfg)
        panel_dir = out_root / args.figure / label
        panel_dir.mkdir(parents=True, exist_ok=True)
        write_zeros_csv(panel_dir / "zeros.csv", zeros, cfg.lam, cfg.delta, poly.model_tag)
        write_series_csv(panel_dir / "series.csv", series, poly.model_tag, time_text)
        write_report_json(panel_dir / "report.json", report, zeros.circle_deviation)
        ok = report.all_matched
        print(
            f"{args.figure}{label}: T_over_J={t_over_j} "
            f"circle_deviation={_fmt(zeros.circle_deviation)} "
            f"matched={len(report.matches)}/{len(report.predicted)}"
        )
        if not ok:
            status = 1
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leeyang",
        description="Partition-function zeros of ferromagnetic Ising baths and "
        "the probe-spin signal that reveals them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=out_default, help="output file path")
        p.add_argument("--steps", type=int, help="override grid.steps")
        p.add_argument("--t-max", dest="t_max", type=float, help="override grid.t_max")

    p = sub.add_parser("zeros", help="locate Lee-Yang zeros, write zeros.csv")
    common(p, "zeros.csv")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("evolve", help="sample the probe signal, write series.csv")
    common(p, "series.csv")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser(
        "correlate", help="match detected and predicted zero times, write report.json"
    )
    common(p, "report.json")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("reproduce", help="emit the data files for a figure preset")
    p.add_argument("figure", choices=sorted(FIGURE_PRESETS))
    p.add_argument("--out-dir", default=".", help="output directory root")
    p.add_argument("--steps", type=int, help="override grid.steps")
    p.set_defaults(func=cmd_reproduce, t_max=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RootConvergenceError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
