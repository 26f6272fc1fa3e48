"""Experiment configuration, presets, CSV ingestion, and result writing."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import oracles, pipelines, plots

__all__ = [
    "ConfigError",
    "DataError",
    "ExperimentConfig",
    "RUN_PRESETS",
    "SWEEP_PRESETS",
    "preset_config",
    "ingest_samples",
    "run_experiment",
    "metric_mask",
    "write_series_csv",
    "metrics_path_for",
]

QFTD_MAX_QUBITS = 12
QFTI_MAX_QUBITS = 8
# numpy's multinomial draws an int64 shot count.
MAX_SHOTS = 2**63 - 1


class ConfigError(Exception):
    """Invalid experiment configuration; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


class DataError(Exception):
    """Unreadable or malformed input/output data."""


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    function: str
    n_qubits: int | None = None
    domain: tuple[float, float] | None = None
    shots: int | None = None  # None means exact mode
    seed: int = 0
    output: str | None = None
    plot: str | None = None
    scale: str = "linear"

    def validated(self) -> "ExperimentConfig":
        if self.mode not in ("qftd", "qfti"):
            raise ConfigError("mode", f"unknown mode {self.mode!r}")
        if self.scale not in ("linear", "semilog"):
            raise ConfigError("scale", f"unknown scale {self.scale!r}")
        if self.shots is not None and not 1 <= self.shots <= MAX_SHOTS:
            raise ConfigError("shots", f"shot count must lie in 1..{MAX_SHOTS} (or 'exact')")
        if self.seed < 0:
            raise ConfigError("seed", f"seed must be >= 0, got {self.seed}")
        if self.domain is not None and not (np.all(np.isfinite(self.domain)) and self.domain[1] > self.domain[0]):
            raise ConfigError("domain", f"domain {self.domain} must be finite with min below max")
        limit = QFTD_MAX_QUBITS if self.mode == "qftd" else QFTI_MAX_QUBITS
        if self.n_qubits is not None and not 2 <= self.n_qubits <= limit:
            raise ConfigError("qubits", f"{self.mode} supports 2..{limit} qubits")
        if self.function in oracles.CATALOG:
            if self.n_qubits is None:
                raise ConfigError("qubits", "qubit count is required for catalog functions")
        else:
            # Anything that is not a catalog id is treated as a CSV path; a
            # missing or malformed file surfaces later as an I/O error.
            if self.domain is not None:
                raise ConfigError("domain", "domain comes from the CSV grid for file inputs")
        return self


# Built-in single-run configurations, named after the result figures they
# regenerate. Trend studies (fig9a/fig9b) live in SWEEP_PRESETS and fan out
# over qubit counts.
RUN_PRESETS: dict[str, ExperimentConfig] = {
    "fig4": ExperimentConfig("qftd", "cos2pix", 8, (-2.0, 2.0), 10**7),
    "fig5": ExperimentConfig("qftd", "invx", 8, (-1.0, 1.0), 10**7, scale="semilog"),
    "fig6": ExperimentConfig("qftd", "invx", 8, (0.2, 1.0), 10**8, scale="semilog"),
    "fig7a": ExperimentConfig("qftd", "poly", 8, (-2.0, 2.0), 10**7),
    "fig7b": ExperimentConfig("qftd", "harmonics", 8, (-2.0, 2.0), 10**7),
    "fig10": ExperimentConfig("qfti", "cos2pix", 6, (-1.0, 1.0), 10**7),
    "fig11": ExperimentConfig("qfti", "invx", 6, (-1.0, 1.0), 10**7, scale="semilog"),
    "fig12a": ExperimentConfig("qfti", "poly", 6, (-2.0, 2.0), 10**7),
    "fig12b": ExperimentConfig("qfti", "harmonics", 6, (-2.0, 2.0), 10**7),
}

# Error-trend sweeps. The derivative sweep starts at n=4: on [-2,2] the n=3
# grid aliases cos(2*pi*x) to (-1)^j and the stencil is identically zero.
SWEEP_PRESETS: dict[str, dict] = {
    "fig9a": {
        "base": ExperimentConfig("qftd", "cos2pix", None, (-2.0, 2.0), 10**8),
        "qubits": (4, 5, 6, 7, 8),
    },
    "fig9b": {
        "base": ExperimentConfig("qfti", "cos2pix", None, (-1.0, 1.0), 10**7),
        "qubits": (3, 4, 5, 6, 7, 8),
    },
}


def preset_config(name: str) -> ExperimentConfig:
    if name in RUN_PRESETS:
        return RUN_PRESETS[name]
    if name in SWEEP_PRESETS:
        raise ConfigError("preset", f"{name} is a sweep preset; use the sweep subcommand")
    raise ConfigError("preset", f"unknown preset {name!r}")


def ingest_samples(path: str | Path) -> pipelines.SampledFunction:
    """Read an ``x,f`` CSV into a SampledFunction.

    Requires a strictly increasing, uniform grid (1e-9 relative) with a
    power-of-two row count. A header row is optional and detected by parse
    failure.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(
            f"cannot read {path}: {exc} "
            f"(function must be a catalog id {sorted(oracles.CATALOG)} or an x,f CSV path)"
        ) from exc
    rows: list[tuple[int, float, float]] = []
    first_data_row = True
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise DataError(f"{path}:{lineno}: expected two columns, got {len(cells)}")
        try:
            x, f = float(cells[0]), float(cells[1])
        except ValueError:
            if first_data_row:  # header row
                first_data_row = False
                continue
            raise DataError(f"{path}:{lineno}: non-numeric row {line!r}") from None
        first_data_row = False
        rows.append((lineno, x, f))
    count = len(rows)
    if count < 4 or count & (count - 1):
        raise DataError(f"{path}: row count {count} is not a power of two >= 4")
    xs = [x for _, x, _ in rows]
    dx = xs[1] - xs[0]
    for i in range(count - 1):
        step = xs[i + 1] - xs[i]
        lineno = rows[i + 1][0]
        # Negated comparisons so that a NaN step fails them too.
        if not step > 0.0:
            raise DataError(f"{path}:{lineno}: grid is not strictly increasing")
        if not abs(step - dx) <= 1e-9 * abs(dx):
            raise DataError(f"{path}:{lineno}: non-uniform grid (step {step!r} vs {dx!r})")
    try:
        return pipelines.SampledFunction(samples=np.array([f for _, _, f in rows]), x0=xs[0], dx=dx)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _reference_magnitudes(
    config: ExperimentConfig, f: pipelines.SampledFunction
) -> np.ndarray:
    """Unsquared reference series: analytical for catalog inputs, classical
    stencil oracle for CSV inputs (where no closed form exists)."""
    x = f.x
    if config.function in oracles.CATALOG:
        fn = oracles.CATALOG[config.function]
        if config.mode == "qftd":
            return fn.derivative(x)
        return fn.integral_from(float(x[0]), x)
    if config.mode == "qftd":
        return oracles.central_difference_periodic(f.samples, f.dx)
    return oracles.trapezoid_partial_sums(f.samples, f.dx)


def metric_mask(series: pipelines.RecoveredSeries) -> np.ndarray:
    """Points entering R2/MAE: retained, and for derivative mode interior only.

    The periodic stencil wraps the domain ends, so the first and last grid
    points estimate the wrap-around jump rather than the local derivative;
    they stay in the result CSV but not in the fit metrics.
    """
    mask = series.retained.copy()
    if series.mode == "derivative" and mask.size >= 2:
        mask[0] = False
        mask[-1] = False
    return mask


def run_experiment(
    config: ExperimentConfig,
) -> tuple[pipelines.RecoveredSeries, dict]:
    """Execute a configured pipeline run; write CSV/metrics/plot when asked.

    Returns the recovered series and the metrics dict (the exact content of
    the metrics JSON; unavailable metrics are null).
    """
    config = config.validated()
    if config.function in oracles.CATALOG:
        try:
            f = oracles.sample_catalog(config.function, config.n_qubits, config.domain)
        except ValueError as exc:  # e.g. a grid point on a singularity
            raise ConfigError("domain", f"{config.function} on this grid: {exc}") from exc
    else:
        f = ingest_samples(config.function)
        n = f.n_points.bit_length() - 1
        limit = QFTD_MAX_QUBITS if config.mode == "qftd" else QFTI_MAX_QUBITS
        if n > limit:
            raise ConfigError("function", f"CSV holds 2^{n} rows; {config.mode} supports at most 2^{limit}")
        if config.n_qubits is not None and config.n_qubits != n:
            raise ConfigError("qubits", f"CSV holds 2^{n} rows but {config.n_qubits} qubits were requested")

    if config.mode == "qftd":
        series = pipelines.qftd_run(f, config.shots, config.seed)
    else:
        series = pipelines.qfti_run(f, config.shots, config.seed)

    reference = _reference_magnitudes(config, f)
    reference_sq = reference**2
    mask = metric_mask(series)
    try:
        r2 = oracles.r_squared(series.value_sq, reference_sq, mask)
    except ValueError:
        r2 = None
    try:
        mae = oracles.mean_absolute_error(np.sqrt(series.value_sq), np.abs(reference), mask)
    except ValueError:
        mae = None
    metrics = {
        "r_squared": r2,
        "mae": mae,
        "epsilon": series.resolution_epsilon,
        "coverage_expected": pipelines.expected_coverage(reference_sq, series.resolution_epsilon),
        "coverage_observed": float(np.mean(series.retained)),
        "success_probability": series.success_probability,
    }

    if config.output is not None:
        write_series_csv(series, reference_sq, config.output)
        _write_json(metrics, metrics_path_for(config.output))
    if config.plot is not None:
        try:
            plots.emit_plot(series, reference_sq, config.plot, scale=config.scale)
        except OSError as exc:
            raise DataError(f"cannot write plot {config.plot}: {exc}") from exc
    return series, metrics


def metrics_path_for(output: str | Path) -> Path:
    output = Path(output)
    return output.with_name(output.stem + ".metrics.json")


def write_series_csv(
    series: pipelines.RecoveredSeries, reference_sq: np.ndarray, path: str | Path
) -> None:
    lines = ["x,quantum_sq,analytical_sq,retained"]
    for x, q, a, kept in zip(series.x, series.value_sq, reference_sq, series.retained):
        lines.append(f"{x:.17g},{q:.17g},{a:.17g},{1 if kept else 0}")
    _atomic_write_text("\n".join(lines) + "\n", path)


def _write_json(payload: dict, path: str | Path) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    _atomic_write_text(text + "\n", path)


def _atomic_write_text(text: str, path: str | Path) -> None:
    destination = Path(path)
    tmp = destination.with_name(destination.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, destination)
    except OSError as exc:
        raise DataError(f"cannot write {destination}: {exc}") from exc


def sweep_configs(
    base: ExperimentConfig, qubit_counts: tuple[int, ...], output_dir: str | Path
) -> list[ExperimentConfig]:
    """Expand a base config over qubit counts with per-run seeds and paths."""
    out_dir = Path(output_dir)
    configs = []
    for offset, n in enumerate(qubit_counts):
        stem = f"{base.mode}_{Path(base.function).stem}_n{n}"
        configs.append(
            replace(
                base,
                n_qubits=n,
                seed=base.seed + offset,
                output=str(out_dir / f"{stem}.csv"),
                plot=None,
            )
        )
    return configs


def run_one_sweep_point(config: ExperimentConfig) -> dict:
    """Worker entry for sweep execution; returns the summary row."""
    series, metrics = run_experiment(config)
    row = {
        "mode": config.mode,
        "function": config.function,
        "n_qubits": config.n_qubits,
        "shots": "exact" if config.shots is None else config.shots,
        "seed": config.seed,
        "gate_count": series.gate_count,
    }
    row.update(metrics)
    return row
