"""Statevector simulation of QFT-based numerical differentiation/integration.

The package layers a dense little-endian statevector engine (`state`), the
QFT and wavenumber-rotation kernels (`spectral`), the block-encoded
cumulative-sum operator (`psmpo`), the end-to-end derivative/integral
pipelines (`pipelines`), classical references and metrics (`oracles`), and an
experiment runner with presets, plots and a validation suite (`experiments`,
`plots`, `checks`, `cli`). `qft` and `wavenumber_rotation` act on the k
register of the branch they are told. The gate-level circuits and dense
matrices that the validation suite and the tests replay against those
kernels live in `reference`, which this package import, like every run,
leaves unloaded.
"""

from .state import RegisterLayout, Statevector, amplitude_encode, exact_probabilities
from .spectral import qft, wavenumber_rotation
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
    "RegisterLayout",
    "Statevector",
    "amplitude_encode",
    "exact_probabilities",
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
