"""Statevector simulation of QFT-based numerical differentiation/integration.

The package layers a dense little-endian statevector engine (`state`), the
QFT and wavenumber-rotation circuits (`spectral`), the block-encoded
cumulative-sum operator (`psmpo`), the end-to-end derivative/integral
pipelines (`pipelines`), classical references and metrics (`oracles`), and an
experiment runner with presets, plots and a validation suite (`experiments`,
`plots`, `checks`, `cli`).
"""

from .state import (
    GateOp,
    RegisterLayout,
    Statevector,
    amplitude_encode,
    apply_gate,
    apply_register_unitary,
    exact_probabilities,
)
from .spectral import WavenumberSchedule, angle_schedule, qft, wavenumber_rotation
from .psmpo import (
    BlockEncoding,
    apply_partial_sum,
    build_block_encoding,
    spectral_norm,
)
from .pipelines import (
    RecoveredSeries,
    SampledFunction,
    expected_coverage,
    qftd_run,
    qfti_run,
    resolution,
)
from .oracles import (
    CATALOG,
    CatalogFunction,
    central_difference_periodic,
    mean_absolute_error,
    r_squared,
    sample_catalog,
    trapezoid_partial_sums,
)
from .experiments import ExperimentConfig, ingest_samples, run_experiment
from .plots import emit_plot

__version__ = "0.1.0"

__all__ = [
    "GateOp",
    "RegisterLayout",
    "Statevector",
    "amplitude_encode",
    "apply_gate",
    "apply_register_unitary",
    "exact_probabilities",
    "WavenumberSchedule",
    "angle_schedule",
    "qft",
    "wavenumber_rotation",
    "BlockEncoding",
    "apply_partial_sum",
    "build_block_encoding",
    "spectral_norm",
    "RecoveredSeries",
    "SampledFunction",
    "expected_coverage",
    "qftd_run",
    "qfti_run",
    "resolution",
    "CATALOG",
    "CatalogFunction",
    "central_difference_periodic",
    "mean_absolute_error",
    "r_squared",
    "sample_catalog",
    "trapezoid_partial_sums",
    "ExperimentConfig",
    "ingest_samples",
    "run_experiment",
    "emit_plot",
]
