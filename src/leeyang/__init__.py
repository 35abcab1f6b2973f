"""Lee-Yang zeros of ferromagnetic Ising baths and probe-spin dynamics."""

from .config import ConfigError, RunConfig, load_config
from .partition import (
    PartitionPolynomial,
    build_exact,
    build_long_range,
    build_ring,
)
from .probe import (
    CorrelationReport,
    TimeSeries,
    correlate,
    detect_zero_times,
    expectation_series,
)
from .spins import (
    HalfInt,
    ProbeState,
    ladder_overlap,
    projections,
    sx_top_eigenstate,
)
from .zeros import RootConvergenceError, ZeroSet, find_zeros

__all__ = [
    "ConfigError",
    "CorrelationReport",
    "HalfInt",
    "PartitionPolynomial",
    "ProbeState",
    "RootConvergenceError",
    "RunConfig",
    "TimeSeries",
    "ZeroSet",
    "build_exact",
    "build_long_range",
    "build_ring",
    "correlate",
    "detect_zero_times",
    "expectation_series",
    "find_zeros",
    "ladder_overlap",
    "load_config",
    "projections",
    "sx_top_eigenstate",
]

__version__ = "0.1.0"
