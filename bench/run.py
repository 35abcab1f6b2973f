"""Benchmark for leeyang: one command per workload, checked outputs, JSON result.

    python3 bench/run.py --workload panels --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from ``src``.
Each workload is a closed loop: one process, one client, its configurations
run back to back, pass after pass, for ``--seconds``.  One untimed warm-up pass
comes first.  Every output is checked; a configuration that raises or fails a
check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, taken from spans
recorded around each layer's public functions, plus the tracing overhead.
The last line of standard output is the JSON result; a run record and, when
traced, the spans are written under ``.bench_out/``.  Times are scaled by a
calibration loop timed next to each measured call (see ``calibrate``).
"""

import os

# One BLAS thread, set before numpy loads: on a small machine the numbers then
# measure the program, not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
WORKLOAD_NAMES = ("panels", "degenerate", "build_ladder")

# The host's speed drifts by tens of percent over seconds, and a time measured
# in one stretch does not repeat in the next.  A fixed calibration loop, timed
# just before and after each measured call, tracks that drift; every reported
# time is scaled to the speed at which the loop takes CALIBRATION_REFERENCE_S.
CALIBRATION_REFERENCE_S = 0.007
_CAL_GRID = np.arange(16) * 1e-3
_CAL_COEFFS = np.linspace(0.1, 1.0, 12)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _import_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def calibrate():
    """Seconds for a fixed mix of the operations the program spends its time in:
    small numpy calls and reductions, Python arithmetic and float formatting."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(300):
        z = np.exp(-1j * k * _CAL_GRID)
        acc += abs(np.polynomial.polynomial.polyval(z[k % 16], _CAL_COEFFS))
        acc += float(np.log(np.exp(_CAL_COEFFS - k * 1e-3).sum()))
        acc += len(format(acc, ".17g"))
        for i in range(40):
            acc += i * 1e-9
    return time.perf_counter() - t0


def speed_factors(calibrations):
    """Scale for each interval between consecutive calibrations."""
    return [
        2 * CALIBRATION_REFERENCE_S / (before + after)
        for before, after in zip(calibrations, calibrations[1:])
    ]


def fresh_import_seconds(repeats):
    """Scaled wall time of a fresh interpreter running `import leeyang`."""
    raw, calibrations = [], [calibrate()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would quantize the measurement.
        with subprocess.Popen(
            [sys.executable, "-c", "import leeyang"], env=_import_env(), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ) as proc:
            status = proc.wait()
        raw.append(time.perf_counter() - t0)
        calibrations.append(calibrate())
        if status != 0:
            raise RuntimeError(f"`import leeyang` exited with {status}")
    return raw, speed_factors(calibrations)


def scipy_import_seconds(repeats):
    """Cumulative `-X importtime` of the outermost scipy modules, per repeat."""
    times, calibrations = [], [calibrate()]
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import leeyang"],
            env=_import_env(), cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        # Children are listed before their parent, indented two spaces a level;
        # walking backwards meets each parent before its children.
        ancestors = {}
        total_us = 0
        for line in reversed(proc.stderr.splitlines()):
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, label = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = (len(label) - len(label.lstrip()) - 1) // 2
            name = label.strip()
            ancestors[depth] = name
            parent = ancestors.get(depth - 1, "") if depth else ""
            if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
                total_us += int(cumulative)
        times.append(total_us / 1e6)
        calibrations.append(calibrate())
    return times, speed_factors(calibrations)


def run_pass(configs, tracer=None, pass_no=0):
    """Run every configuration once.

    Returns the raw seconds of each configuration, its speed factor, and the
    failures as (config, message) pairs.
    """
    for cfg in configs:
        if cfg.before_run is not None:
            cfg.before_run()
    if tracer is not None:
        tracer.current_pass = pass_no
        tracer.install()
    results = []
    calibrations = [calibrate()]
    try:
        for i, cfg in enumerate(configs):
            if tracer is not None:
                tracer.config_id = i
            t0 = time.perf_counter()
            try:
                output, error = cfg.run(), None
            except Exception:  # a configuration that raises is a counted failure
                output, error = None, traceback.format_exc(limit=3).strip()
            results.append((time.perf_counter() - t0, output, error))
            calibrations.append(calibrate())
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for cfg, (_, output, error) in zip(configs, results):
        if error is None:
            error = cfg.verify(output)
        if error is not None:
            failures.append((cfg, error))
    return [seconds for seconds, _, _ in results], speed_factors(calibrations), failures


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "leeyang" / "__init__.py").is_file():
        print(f"error: no leeyang package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import scipy

    import leeyang
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(leeyang.__file__).resolve().parent != SRC / "leeyang":
        print(f"error: imported leeyang from {leeyang.__file__}", file=sys.stderr)
        return 2

    # Calibration and measured code must share one CPU, and the setup
    # interpreters inherit the pinning.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    OUT.mkdir(exist_ok=True)
    files = OUT / f"{args.workload}-files"
    rng = np.random.default_rng(args.seed)
    configs = WORKLOADS[args.workload](rng, files)
    tracer = Tracer() if args.trace else None

    if args.trace:
        setup_raw, setup_factors = scipy_import_seconds(IMPORTTIME_REPEATS)
    else:
        setup_raw, setup_factors = fresh_import_seconds(SETUP_REPEATS)
    setup_samples = [t * f for t, f in zip(setup_raw, setup_factors)]

    _, _, failures = run_pass(configs)  # warm-up: timed out, checked in
    attempted = len(configs)

    plain, traced = {}, {}  # pass number -> (raw seconds, speed factors) per config
    deadline = time.perf_counter() + args.seconds
    pass_no = 0
    while time.perf_counter() < deadline or not plain or (args.trace and not traced):
        use_tracer = tracer if args.trace and pass_no % 2 else None
        raw, factors, pass_failures = run_pass(configs, use_tracer, pass_no)
        (traced if use_tracer else plain)[pass_no] = (raw, factors)
        attempted += len(configs)
        failures += pass_failures
        pass_no += 1
    shutil.rmtree(files, ignore_errors=True)

    def scaled(passes):
        return [[t * f for t, f in zip(*passes[p])] for p in sorted(passes)]

    config_s = scaled(plain)
    pass_s = [sum(times) for times in config_s]
    unexpected = [(cfg, err) for cfg, err in failures if not cfg.known_defect]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "configs": [cfg.name for cfg in configs],
        "passes": len(plain),
        "config_samples": sum(len(times) for times in config_s),
        "pass_s_samples": pass_s,
        "raw_pass_s_samples": [sum(raw) for raw, _ in plain.values()],
        "raw_config_s": [raw for raw, _ in plain.values()],
        "speed_factors": [factors for _, factors in plain.values()],
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": sorted({
            (cfg.name, err.splitlines()[-1], cfg.known_defect or "") for cfg, err in failures
        }),
        "setup_samples": setup_samples,
        "raw_setup_samples": setup_raw,
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }

    if args.trace:
        traced_pass_s = [sum(times) for times in scaled(traced)]
        layers = tracer.layer_metrics({p: factors for p, (_, factors) in traced.items()})
        layers["setup.scipy_import_s"] = setup_samples
        metrics = {name: statistics.median_low(values) for name, values in layers.items()}
        metrics["trace.overhead_s"] = statistics.median(traced_pass_s) - statistics.median(pass_s)
        record["traced_passes"] = len(traced)
        record["traced_pass_s_samples"] = traced_pass_s
        record["layer_samples"] = layers
        tracer.write(OUT / f"spans-{args.workload}.npz")
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "pass_s": statistics.median(pass_s),
            "config_p50_s": statistics.median(statistics.median(t) for t in config_s),
            "config_p90_s": statistics.median(
                statistics.quantiles(t, n=10, method="inclusive")[-1] for t in config_s
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n"
    )

    for name, entry in record["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(
        f"passes={len(plain)} configs/pass={len(configs)} "
        f"attempted={attempted} failed={len(failures)} "
        f"failed_frac={record['failed_frac']:.4g}"
    )
    for name, message, defect in record["failures"]:
        label = f"known defect ({defect})" if defect else "UNEXPECTED"
        print(f"failure {name}: {message} [{label}]")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
