"""Lee-Yang zeros of ferromagnetic Ising baths and probe-spin dynamics."""

from .config import ConfigError, RunConfig, load_config
from .partition import (
    PartitionPolynomial,
    build_exact,
    build_long_range,
    build_ring,
    eval_ratio,
    long_range_integral_oracle,
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
    ladder_product_coeff,
    projections,
    sx_top_eigenstate,
)
from .zeros import (
    RootConvergenceError,
    ZeroSet,
    find_zeros,
    predicted_zero_times,
)

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
    "eval_ratio",
    "expectation_series",
    "find_zeros",
    "ladder_overlap",
    "ladder_product_coeff",
    "load_config",
    "long_range_integral_oracle",
    "predicted_zero_times",
    "projections",
    "sx_top_eigenstate",
]

__version__ = "0.1.0"
