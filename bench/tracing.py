"""Spans around the public functions of each ``leeyang`` layer, from outside.

``Tracer.install()`` replaces module and class attributes (for example
``leeyang.probe.detect_zero_times`` and ``leeyang.cli.find_zeros``) with
wrappers that record a span per call: name, start, end, parent span,
configuration id and pass number.  Spans stay in compact arrays in memory and
are written out once, at the end.  ``uninstall()`` restores the originals, so
untraced passes run the program unchanged.
"""

import os
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

import leeyang.cli
import leeyang.config
import leeyang.probe
import leeyang.zeros


def _coeff_count(tracer, args, poly):
    tracer.add("partition.coeffs_total", len(poly.log_coeffs))


def _zero_stats(tracer, args, zeros):
    tracer.add("zeros.roots", len(zeros.roots))
    tracer.add("zeros.multiple_clusters", sum(1 for _, m in zeros.clusters if m > 1))
    tracer.maximum("zeros.circle_dev_max", zeros.circle_deviation)


def _correlation_stats(tracer, args, report):
    tracer.add("probe.matched", len(report.matches))
    tracer.add("probe.predicted", len(report.predicted))


def _detected(tracer, args, found):
    tracer.add("probe.detected", len(found))


def _bytes_written(tracer, args, result):
    tracer.add("cli.bytes_written", os.path.getsize(args[0]))


# (owner, attribute, span name, observer of (tracer, args, result))
TARGETS = [
    (leeyang.config.RunConfig, "__init__", "config.parse", None),
    (leeyang.config.RunConfig, "build_polynomial", "config.build_polynomial", None),
    (leeyang.config, "build_ring", "partition.build_ring", _coeff_count),
    (leeyang.config, "build_long_range", "partition.build_long_range", _coeff_count),
    (leeyang.config, "build_exact", "partition.build_exact", _coeff_count),
    (leeyang.zeros, "find_zeros", "zeros.find_zeros", _zero_stats),
    (leeyang.cli, "find_zeros", "zeros.find_zeros", _zero_stats),
    (leeyang.probe, "expectation_series", "probe.expectation_series", None),
    (leeyang.cli, "expectation_series", "probe.expectation_series", None),
    (leeyang.probe, "correlate", "probe.correlate", _correlation_stats),
    (leeyang.cli, "correlate", "probe.correlate", _correlation_stats),
    (leeyang.probe, "detect_zero_times", "probe.detect_zero_times", _detected),
    (leeyang.probe.TimeSeries, "evaluate", "probe.evaluate", None),
    (leeyang.probe, "ladder_overlap", "spins.ladder_overlap", None),
    (leeyang.cli, "write_zeros_csv", "cli.write_zeros_csv", _bytes_written),
    (leeyang.cli, "write_series_csv", "cli.write_series_csv", _bytes_written),
    (leeyang.cli, "write_report_json", "cli.write_report_json", _bytes_written),
]

# Span names that measure peak traced memory (MiB) of each call.
PEAK_MEMORY = {"partition.build_exact": "partition.build_exact_peak_mb"}


class Tracer:
    def __init__(self):
        self.names = sorted({name for _, _, name, _ in TARGETS})
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.config = array("h")
        self.pass_no = array("i")
        self.stack = []
        self.config_id = -1
        self.current_pass = -1
        self.counters = defaultdict(float)  # (metric, pass) -> value
        self.origin = time.perf_counter()
        self._patches = []
        for owner, attr, name, observe in TARGETS:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original, self._wrap(original, name, observe)))

    def add(self, metric, value):
        self.counters[metric, self.current_pass] += value

    def maximum(self, metric, value):
        key = metric, self.current_pass
        self.counters[key] = max(self.counters[key], value)

    def _wrap(self, fn, name, observe):
        name_id = self.name_ids[name]
        peak_metric = PEAK_MEMORY.get(name)

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.config.append(self.config_id)
            self.pass_no.append(self.current_pass)
            self.end.append(0.0)
            self.stack.append(index)
            if peak_metric:
                tracemalloc.start()
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter()
                self.stack.pop()
                if peak_metric:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.maximum(peak_metric, peak / 2**20)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _arrays(self):
        name = np.asarray(self.name, dtype=np.int64)
        start = np.asarray(self.start) - self.origin
        end = np.asarray(self.end) - self.origin
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        return name, start, end, parent, duration, duration - covered

    def layer_metrics(self, factors):
        """Per-pass totals over the traced passes, as {metric: [value per pass]}.

        ``factors[p][c]`` is the speed factor of configuration ``c`` in pass
        ``p``; span times are scaled by it, like the end-to-end times.
        """
        name, _, _, _, duration, self_time = self._arrays()
        pass_no = np.asarray(self.pass_no)
        config = np.asarray(self.config)
        scale = np.ones(len(duration))
        for p, per_config in factors.items():
            here = pass_no == p
            scale[here] = np.asarray(per_config)[config[here]]
        duration, self_time = duration * scale, self_time * scale
        out = defaultdict(list)
        for p in sorted(factors):
            here = pass_no == p

            def total(span, values=duration):
                return float(values[here & (name == self.name_ids[span])].sum())

            def calls(span):
                return int(np.count_nonzero(here & (name == self.name_ids[span])))

            def counter(metric):
                return self.counters.get((metric, p), 0.0)

            evaluate_calls = calls("probe.evaluate")
            detected = counter("probe.detected")
            out["probe.detect_s"].append(total("probe.detect_zero_times"))
            out["probe.correlate_self_s"].append(total("probe.correlate", self_time))
            out["probe.evaluate_calls"].append(evaluate_calls)
            out["probe.evaluate_s"].append(total("probe.evaluate"))
            out["probe.evals_per_zero"].append(evaluate_calls / detected if detected else 0.0)
            out["spins.ladder_overlap_calls"].append(calls("spins.ladder_overlap"))
            out["spins.ladder_overlap_s"].append(total("spins.ladder_overlap"))
            out["cli.write_s"].append(sum(
                total(s) for s in ("cli.write_zeros_csv", "cli.write_series_csv", "cli.write_report_json")
            ))
            out["cli.bytes_written"].append(int(counter("cli.bytes_written")))
            for builder in ("build_ring", "build_long_range", "build_exact"):
                out[f"partition.{builder}_s"].append(total(f"partition.{builder}"))
            out["partition.coeffs_total"].append(int(counter("partition.coeffs_total")))
            out["partition.build_exact_peak_mb"].append(counter("partition.build_exact_peak_mb"))
            out["zeros.find_zeros_s"].append(total("zeros.find_zeros"))
            out["zeros.roots"].append(int(counter("zeros.roots")))
            out["zeros.multiple_clusters"].append(int(counter("zeros.multiple_clusters")))
            out["zeros.circle_dev_max"].append(counter("zeros.circle_dev_max"))
            out["probe.matched"].append(int(counter("probe.matched")))
            out["probe.predicted"].append(int(counter("probe.predicted")))
            out["probe.series_s"].append(total("probe.expectation_series"))
            out["config.parse_s"].append(total("config.parse"))
        return dict(out)

    def write(self, path):
        """All spans as a compressed ``.npz``, times in seconds from tracer creation."""
        name, start, end, parent, _, self_time = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start_s=start, end_s=end,
            parent=parent, config=np.asarray(self.config), pass_no=np.asarray(self.pass_no),
            self_s=self_time,
        )
