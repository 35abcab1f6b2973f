"""Command-line front end: zeros / evolve / correlate / reproduce.

CSV rows, CSV parameter headers and stdout write each number with 17
significant digits (``%.17g``); report.json and the ``# model=`` header use
``json.dumps``, whose floats are the shortest repr that round-trips.  Either
re-parses to the in-memory values exactly.  series.csv makes
the text of a whole column with numpy, a block of rows at a time
(_digit_rows).  Its fast path scales |x| by a power of ten in double-double
arithmetic and keeps only digits that are certain to be the correctly rounded
ones: for 1e-270 <= |x| < 1e270, where the scaled value is not within 1e-6
of a rounding tie and rounds to an integer strictly between 10**16 and
10**17.  Every other value but zero, which writes ``0``, is formatted by
``%`` itself: subnormals, inf, NaN, near-ties, exact powers of ten and values
whose log10 rounds across a power of ten.  So the bytes are ``%.17g``'s by
construction.  The ``re`` column is the ``|re|`` text behind a ``-`` taken
from the sign bit; where every ``im`` of a block is a signed zero, ``im`` is
``0`` or ``-0`` by its sign bit and ``abs`` is the ``|re|`` text again.  The
panels of one ``reproduce`` figure, which share one time grid, share one
formatted time column.
"""

import argparse
import collections
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .config import MAX_STEPS, ConfigError, RunConfig, _integer, _number, load_config
from .probe import correlate, expectation_series
from .zeros import find_zeros


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


# Rows per block; the writers hold the text of one block.  At 4096 rows the
# series writer's byte matrices raised the peak resident memory of the panels
# benchmark by about 1 MB.
_BLOCK_ROWS = 1024


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
            rows = np.column_stack([
                np.arange(lo, lo + len(z)), z.real, z.imag, zeros.angles[b],
                zeros.abs_minus_1[b], multiplicity[b], times[b],
            ])
            # one `%` per block: %.17g of a float is format(x, ".17g"); %d for the integer columns
            f.write("%d,%.17g,%.17g,%.17g,%.17g,%d,%.17g\n" * len(z) % tuple(rows.ravel().tolist()))


# _digit_rows lays out the text of a number in 48 byte columns, six
# little-endian 64-bit words, and then drops the columns no row uses:
#   bytes 2-6    the lead "0.000" of a number below 1 in fixed notation
#   byte 7       the first of the 17 significant digits
#   bytes 8-39   the other 16 digits, each after a slot for a "."
#   bytes 40-44  the exponent, "e+XX" or "e-XXX"
# A zero byte is no character: the writer deletes them all.
_WORD = np.dtype("<u8")
_E_OFFSET = 300  # the per-E tables hold decimal exponent E at index E + _E_OFFSET
_DIGIT_COUNTS = 18  # table rows per notation class: 1 to 17 significant digits
_EXP_CLASS, _ZERO_CLASS = 21, 22  # after the fixed notation classes E = -4..16
_SPLIT = 2.0**27 + 1  # Veltkamp's split of a double into two 26-bit halves
_DigitTables = collections.namedtuple("_DigitTables", "power words last mask const base")


@functools.cache
def _digit_tables():
    """The lookup tables of _digit_rows, built on its first call.

    ``power`` is 10**(16 - E) as hi + lo, each the correctly rounded double of
    an exact integer ratio, with hi also split in halves.  ``words`` holds the
    ASCII of each 4-digit group at every other byte, then the first digit's
    word and the exponent's.  ``last[j][g]`` counts the significant digits up
    to the last nonzero one of group j when it is g, and is 0 when g is 0.
    ``mask`` and ``const``, one row per (notation class, significant digits),
    keep the digits that print and supply the lead and the point, and
    ``base`` is E's class row.
    """
    exps = range(-_E_OFFSET, _E_OFFSET)
    hi, lo = np.ones(len(exps)), np.zeros(len(exps))
    for i, e in enumerate(exps):
        # the fast path reads E = -271..270; further out lo would underflow
        if abs(e) <= 275:
            num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
            h = num / den
            a, b = h.as_integer_ratio()
            hi[i], lo[i] = h, (num * b - a * den) / (den * b)
    c = hi * _SPLIT
    hh = c - (c - hi)
    power = (hi, hh, hi - hh, lo)

    g = np.arange(10**4)
    words = np.zeros((10**4 + 10 + len(exps), 8), np.uint8)
    for j in range(4):
        words[:10**4, 2 * j + 1] = 48 + g // 10 ** (3 - j) % 10
    words[10**4:10**4 + 10, 7] = 48 + np.arange(10)
    for i, e in enumerate(exps):
        exponent = b"e%+03d" % e
        words[10**4 + 10 + i, :len(exponent)] = list(exponent)
    words = words.view(_WORD).ravel()

    trailing = np.zeros(10**4, np.intp)
    for j in (1, 2, 3):
        trailing[g % 10**j == 0] = j
    last = [np.where(g != 0, 4 * j + 5 - trailing, 0).astype(np.uint8) for j in range(4)]
    last[0][0] = 1  # the first digit is never 0

    mask = np.zeros(((_ZERO_CLASS + 1) * _DIGIT_COUNTS, 48), np.uint8)
    const = np.zeros_like(mask)
    const[_ZERO_CLASS * _DIGIT_COUNTS + 1, 7] = ord("0")
    for cls in range(_EXP_CLASS + 1):
        for digits in range(1, _DIGIT_COUNTS):
            row = cls * _DIGIT_COUNTS + digits
            if cls == _EXP_CLASS:
                shown, point = digits, 0
                mask[row, 40:45] = 0xFF
            else:
                e = cls - 4
                # fixed notation prints the whole integer part
                shown, point = max(digits, e + 1), e
                if e < 0:
                    lead = b"0." + b"0" * (-e - 1)
                    const[row, 2:2 + len(lead)] = list(lead)
            mask[row, 7:7 + 2 * shown:2] = 0xFF
            if 0 <= point < digits - 1:
                const[row, 8 + 2 * point] = ord(".")
    base = np.array([(e + 4 if -4 <= e <= 16 else _EXP_CLASS) * _DIGIT_COUNTS for e in exps])
    return _DigitTables(power, words, last, mask.view(_WORD), const.view(_WORD), base)


def _significands(a):
    """E, the 17 significant digits M as an integer, and where the fast path holds.

    For 1e-270 <= a < 1e270, E = floor(log10 a), or one off where log10
    rounds across a power of ten.  With hi + lo the power 10**(16 - E), the
    scaled value a * 10**(16 - E) is p + r: p = fl(a * hi), and r the rounding
    error of that product, exact by Dekker's split of a and hi, plus a * lo.
    r is then accurate to about 1e-14, so the nearest integer M holds the 17
    correctly rounded significant digits wherever 10**16 < M < 10**17 and the
    fraction is not within 1e-6 of 1/2; an E that is one off fails the first.
    """
    fast = (a >= 1e-270) & (a < 1e270)
    s = np.where(fast, a, 1.0)
    e = (np.log10(s) + _E_OFFSET).astype(np.intp)
    hi, hh, hl, lo = (t.take(e) for t in _digit_tables().power)
    p = s * hi
    sh = s * _SPLIT
    sh -= sh - s
    sl = s - sh
    # in place, to hold fewer block-sized temporaries at once
    r = sh * hh - p
    r += sh * hl
    r += sl * hh
    r += sl * hl
    r += s * lo
    # p is an integer wherever 10**16 < M, since every double above 2**53 is
    q = np.rint(r)
    m = p.astype(np.int64) + q.astype(np.int64)
    fast &= (m - (10**16 + 1)).view(np.uint64) < 10**17 - 10**16 - 1
    fast &= np.abs(r - q) < 0.5 - 1e-6
    return e, np.where(fast, m, 10**16), fast


def _text_words(e, m, zero):
    """The masked text words of each row, and its (class, digits) table row.

    ``e`` indexes E, ``m`` holds the 17 significant digits and ``zero`` marks
    the zeros.  The digit codes are freed on return, before the caller makes
    its compact copy of the text.
    """
    _, words, last, mask, const, base = _digit_tables()
    # the word of each row's first digit, of its four 4-digit groups and of E
    code = np.empty((len(m), 6), np.intp)
    top, low = np.divmod(m, 10**8)
    lead, top = np.divmod(top, 10**8)
    np.add(lead, 10**4, out=code[:, 0])
    groups = [*np.divmod(top, 10**4, out=(code[:, 1], code[:, 2])),
              *np.divmod(low, 10**4, out=(code[:, 3], code[:, 4]))]
    np.add(e, 10**4 + 10, out=code[:, 5])
    # the significant digits end in the last nonzero group
    digits = np.maximum(
        np.maximum(last[0].take(groups[0]), last[1].take(groups[1])),
        np.maximum(last[2].take(groups[2]), last[3].take(groups[3])),
    )
    row = base.take(e) + digits
    row[zero] = _ZERO_CLASS * _DIGIT_COUNTS + 1
    text = words.take(code)
    # the codes are read, so their memory takes the table rows (unbuffered
    # only in a mode other than "raise"; every index is in range)
    rows = code.view(_WORD)
    text &= mask.take(row, axis=0, out=rows, mode="clip")
    text |= const.take(row, axis=0, out=rows, mode="clip")
    return text, row


def _digit_rows(x):
    """The bytes of ``"%.17g" % abs(v)`` for each value of a 1-D array, one row each.

    Rows are padded with zero bytes, and the columns that are zero in every row
    are dropped.  A value with 1e-270 <= |v| < 1e270 takes the fast path of
    _significands unless its digits there are not certain: then, as for a
    subnormal, inf or NaN, it is formatted by ``%`` itself.  Zero writes ``0``.
    """
    tables = _digit_tables()
    a = np.abs(x)
    e, m, fast = _significands(a)
    zero = a == 0
    text, row = _text_words(e, m, zero)
    used = np.zeros(len(tables.mask), bool)
    used[row] = True
    # the columns that some row of the block can use
    shown = np.bitwise_or.reduce(tables.mask[used] | tables.const[used]).view(np.uint8) != 0
    text = text.view(np.uint8)[:, shown]
    slow = np.flatnonzero(~(fast | zero))
    if len(slow):
        slow_text = [b"%.17g" % v for v in a[slow].tolist()]
        width = max(map(len, slow_text))
        if width > text.shape[1]:
            text = np.pad(text, ((0, 0), (0, width - text.shape[1])))
        text[slow] = 0
        for i, t in zip(slow.tolist(), slow_text):
            text[i, :len(t)] = np.frombuffer(t, np.uint8)
    return text


def _sign_bytes(x, table):
    """Row 0 or 1 of ``table`` for each value, row 1 where a ``-`` goes.

    For every non-NaN x, ``"%.17g" % -x`` is ``"-" + "%.17g" % x``, ``-0.0``
    and ``-inf`` included; NaN prints unsigned whatever its sign bit.
    """
    return table.take((np.signbit(x) & ~np.isnan(x)).view(np.int8), axis=0)


# The sign of t; "," and the sign of re or im; and the ",im," field of a
# signed zero im.  Each is indexed by a sign bit.
_T_SIGN = np.array([[0], [ord("-")]], np.uint8)
_FIELD_SIGN = np.array([[ord(","), 0], [ord(","), ord("-")]], np.uint8)
_ZERO_IM = np.array([list(b",0,\0"), list(b",-0,")], np.uint8)


def write_series_csv(path, series, time_text=None):
    """Write ``t,re,im,abs`` rows, every number as ``%.17g``.

    Each block of rows is one byte matrix, written with its zero bytes
    deleted: the columns of ``t``, of ``,`` and re's sign, of ``|re|``, of
    ``,`` and im's sign, of ``|im|``, ``,``, of ``abs`` and the line end.  No
    Python object is made per row.  _digit_rows makes the digits of a whole
    column with numpy where its fast path certifies them and formats every
    other value with ``%`` (see the module docstring), so each field is the
    text of ``%.17g``.  Where every ``im`` of the block is a signed zero its
    field is ``0`` or ``-0`` by its sign bit, and ``abs``,
    ``hypot(re, +-0) = |re|``, reuses the ``|re|`` columns.

    ``time_text``, a list shared by calls whose series have the same times,
    formats that column once: the first call appends the byte matrix of each
    block's times (about 20 bytes per step) and later calls reuse them.
    """
    with open(path, "wb") as f:
        f.write((
            f"# model={json.dumps(series.poly.model_tag)}\n"
            f"# beta={_fmt(series.poly.beta)} lambda={_fmt(series.lam)} "
            f"delta={series.delta} h0={_fmt(series.h0)}\n"
            "t,re,im,abs\n"
        ).encode())
        for k, lo in enumerate(range(0, len(series.times), _BLOCK_ROWS)):
            if time_text is not None and k < len(time_text):
                t = time_text[k]
            else:
                times = series.times[lo:lo + _BLOCK_ROWS]
                t = np.concatenate([_sign_bytes(times, _T_SIGN), _digit_rows(times)], axis=1)
                if time_text is not None:
                    time_text.append(t)
            f.write(_series_rows(t, series.values[lo:lo + _BLOCK_ROWS]))


def _series_rows(t, v):
    """The text of a block of series.csv rows with values v and time columns t.

    Its byte matrices die on return, before the next block makes its own.
    """
    re, im = v.real, v.imag
    mag = _digit_rows(re)
    end = np.full((len(v), 1), ord("\n"), np.uint8)
    if im.any():
        im_fields = [
            _sign_bytes(im, _FIELD_SIGN), _digit_rows(im), np.full_like(end, ord(",")),
            _digit_rows(np.hypot(re, im)),
        ]
    else:
        im_fields = [_sign_bytes(im, _ZERO_IM), mag]
    # one expression, so that the matrix is freed before its bytes are compacted
    return np.concatenate(
        [t, _sign_bytes(re, _FIELD_SIGN), mag, *im_fields, end], axis=1
    ).tobytes().translate(None, b"\0")


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
    write_series_csv(args.out, series)
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
        write_series_csv(panel_dir / "series.csv", series, time_text)
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

    def grid(p):
        p.add_argument("--steps", type=int, help="override grid.steps")
        p.add_argument("--t-max", dest="t_max", type=float, help="override grid.t_max")

    p = sub.add_parser("zeros", help="locate Lee-Yang zeros, write zeros.csv")
    common(p, "zeros.csv")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("evolve", help="sample the probe signal, write series.csv")
    common(p, "series.csv")
    grid(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser(
        "correlate", help="match detected and predicted zero times, write report.json"
    )
    common(p, "report.json")
    grid(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("reproduce", help="emit the data files for a figure preset")
    p.add_argument("figure", choices=sorted(FIGURE_PRESETS))
    p.add_argument("--out-dir", default=".", help="output directory root")
    p.add_argument("--steps", type=int, help="override grid.steps")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
