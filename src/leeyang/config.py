"""JSON run configuration: parsing, validation, and object construction."""

import itertools
import json
import math

import numpy as np

from .partition import build_exact, build_long_range, build_ring
from .spins import HalfInt, ProbeState, sx_top_eigenstate

MODEL_KINDS = ("exact", "long_range", "ring")
# Largest time grid: the series and detection at 2**20 steps trace a 32 MiB peak
# (ring 2s=2 N=10), and 48 MiB once the series is written, as the complex signal
# is formed only then.
# `reproduce` also holds its figure's time column as a byte matrix, one row per
# step: about 20 bytes per step on the default grid (20 MB at MAX_STEPS), and
# at most 44 (46 MB) when a block mixes every notation.
MAX_STEPS = 2**20
# Most spins in an exact bath, checked before the n x n coupling matrix exists:
# at 1024 free spins a build traces a 36 MB peak.
MAX_EXACT_SPINS = 1024
# Largest probe 2s0: the Sx amplitudes take 0.21 s at 2048 and 1.3 s at 4000 on a 2-core host.
MAX_TWO_S0 = 2048


class ConfigError(ValueError):
    """A named validation failure in a run configuration."""


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return mapping[key]


# The keys each section reads; any other key is refused, so that a misspelled
# one is not run as its default.
_KEYS = {
    "top level": {"model", "temperature", "probe", "lambda", "grid", "tolerances"},
    "model": {"kind", "n_spins", "two_s", "J", "couplings"},
    "temperature": {"beta", "T_over_J"},
    "probe": {"two_s0", "delta", "h0", "state"},
    "grid": {"steps", "t_max"},
    "tolerances": {"magnitude_tol", "match_window"},
}


def _check_keys(mapping, where):
    for key in mapping:
        if key not in _KEYS[where]:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _section(data, key, required=False):
    """The object at data[key], its keys checked; an optional section that is absent is empty."""
    section = _require(data, key, "top level") if required else data.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: expected an object")
    _check_keys(section, key)
    return section


def _is_number_type(kind):
    """The type of a JSON number: int or float, and not bool."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _number(value, where, minimum=None, strict=False):
    if not _is_number_type(type(value)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where}: must be a finite number, got {v}")
    if minimum is not None and (v <= minimum if strict else v < minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"{where}: must be {op} {minimum}, got {v}")
    return v


def _integer(value, where, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where}: must be <= {maximum}, got {value}")
    return value


class RunConfig:
    """Validated parameters for one model/probe/grid run."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ConfigError("top level: expected a JSON object")
        _check_keys(data, "top level")

        model = _section(data, "model", required=True)
        self.model_kind = _require(model, "kind", "model")
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(
                f"model.kind: expected one of {MODEL_KINDS}, got {self.model_kind!r}"
            )
        self.n_spins = _integer(
            _require(model, "n_spins", "model"), "model.n_spins", 1,
            MAX_EXACT_SPINS if self.model_kind == "exact" else None,
        )
        self.two_s = _integer(_require(model, "two_s", "model"), "model.two_s", 1)
        self.J = _number(model.get("J", 1.0), "model.J", 0.0)
        self.couplings = None
        if self.model_kind == "exact":
            raw = model.get("couplings")
            if raw is None:
                # default: every pair coupled with strength J
                mat = self.J * (np.ones((self.n_spins, self.n_spins)) - np.eye(self.n_spins))
            else:
                try:
                    # np.asarray would also convert "1" and true
                    kinds = set(map(type, itertools.chain.from_iterable(raw)))
                    numbers = all(map(_is_number_type, kinds))
                    entries = np.asarray(raw, dtype=float)
                    finite = numbers and bool(np.all(np.isfinite(entries)))
                except (TypeError, ValueError, OverflowError):  # ragged or not a matrix
                    finite = False
                if not finite:
                    raise ConfigError("model.couplings: expected a matrix of finite numbers")
                with np.errstate(over="ignore"):
                    mat = entries * self.J
                if not np.all(np.isfinite(mat)):
                    raise ConfigError(
                        "model.couplings: J times each entry must be a finite number"
                    )
                if mat.shape != (self.n_spins, self.n_spins):
                    raise ConfigError(
                        f"model.couplings: expected {self.n_spins}x{self.n_spins} matrix"
                    )
            self.couplings = mat
        elif "couplings" in model:
            raise ConfigError(f"model.couplings: only valid for kind 'exact'")
        if self.model_kind == "ring" and self.n_spins < 3:
            raise ConfigError("model.n_spins: a ring needs at least 3 spins")

        temp = _section(data, "temperature", required=True)
        if len(temp) != 1:
            raise ConfigError(
                "temperature: exactly one of 'beta' or 'T_over_J' must be given"
            )
        if "beta" in temp:
            self.beta = _number(temp["beta"], "temperature.beta", 0.0)
        else:
            t = temp["T_over_J"]
            if t == "inf":
                self.beta = 0.0
            else:
                t = _number(t, "temperature.T_over_J")
                if t == 0:
                    raise ConfigError(
                        "temperature.T_over_J: zero temperature not supported; "
                        "use 'inf' for infinite temperature"
                    )
                if t < 0:
                    raise ConfigError(f"temperature.T_over_J: must be positive, got {t}")
                self.beta = 1.0 / t
                if self.beta == math.inf:
                    raise ConfigError(
                        f"temperature.T_over_J: beta = 1/T_over_J must be finite, got {t}"
                    )

        probe = _section(data, "probe", required=True)
        self.two_s0 = _integer(_require(probe, "two_s0", "probe"), "probe.two_s0", 1, MAX_TWO_S0)
        self.delta = _integer(probe.get("delta", 1), "probe.delta", 1)
        if self.delta > self.two_s0:
            raise ConfigError(
                f"probe.delta: {self.delta} exceeds 2*s0 = {self.two_s0}"
            )
        self.h0 = _number(probe.get("h0", 0.0), "probe.h0")
        state = probe.get("state", "sx_max")
        if state == "sx_max":
            self.state_amplitudes = None
        elif isinstance(state, list):
            if len(state) != self.two_s0 + 1:
                raise ConfigError(
                    f"probe.state: expected {self.two_s0 + 1} amplitudes, got {len(state)}"
                )
            amps = []
            for k, entry in enumerate(state):
                where = f"probe.state[{k}]"
                if isinstance(entry, list) and len(entry) == 2:
                    amps.append(complex(_number(entry[0], where), _number(entry[1], where)))
                elif _is_number_type(type(entry)):
                    amps.append(complex(_number(entry, where)))
                else:
                    raise ConfigError(f"{where}: expected a number or [re, im] pair")
            parts = np.asarray(amps).view(float)  # re, im of each amplitude
            scale = np.max(np.abs(parts))
            if scale == 0:
                raise ConfigError("probe.state: amplitudes must not all vanish")
            # The largest part is 1, so squaring cannot overflow.  The parts are
            # divided by the real scale, as a complex division by a subnormal overflows.
            amps = (parts / scale).view(complex)
            self.state_amplitudes = amps / np.sqrt(np.sum(np.abs(amps) ** 2))
        else:
            raise ConfigError(
                f"probe.state: expected 'sx_max' or an amplitude list, got {state!r}"
            )

        self.lam = _number(data.get("lambda", 1.0), "lambda", 0.0, strict=True)

        grid = _section(data, "grid")
        self.steps = _integer(grid.get("steps", 4096), "grid.steps", 2, MAX_STEPS)
        self.t_max = None
        if "t_max" in grid:
            self.t_max = _number(grid["t_max"], "grid.t_max", 0.0, strict=True)

        tols = _section(data, "tolerances")
        self.magnitude_tol = _number(
            tols.get("magnitude_tol", 1e-6), "tolerances.magnitude_tol", 0.0, strict=True
        )
        self.match_window = _number(
            tols.get("match_window", 1e-6), "tolerances.match_window", 0.0, strict=True
        )

    def build_polynomial(self):
        s = HalfInt(self.two_s)
        if self.model_kind == "exact":
            return build_exact([s] * self.n_spins, self.couplings, self.beta)
        if self.model_kind == "long_range":
            return build_long_range(self.n_spins, s, self.J, self.beta)
        return build_ring(self.n_spins, s, self.J, self.beta)

    def probe_state(self) -> ProbeState:
        s0 = HalfInt(self.two_s0)
        if self.state_amplitudes is None:
            return sx_top_eigenstate(s0)
        return ProbeState(s0, self.state_amplitudes)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, or too many digits
        raise ConfigError(f"{path}: {exc}")
    return RunConfig(data)
