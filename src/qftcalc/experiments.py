"""Experiment configuration, presets, CSV ingestion, and result writing."""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import oracles, pipelines, plots
from .spectral import MAX_QUBITS
from .state import MAX_SHOTS

__all__ = [
    "ConfigError",
    "DataError",
    "ExperimentConfig",
    "RUN_PRESETS",
    "SWEEP_PRESETS",
    "ingest_samples",
    "sample_input",
    "run_experiment",
    "metric_mask",
    "write_series_csv",
    "write_summary_csv",
    "run_sweep",
    "staged_writes",
    "metrics_path_for",
]


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

    def __post_init__(self) -> None:
        # dataclasses.replace runs this again. A catalog function's qubit count
        # is checked where it is used, in sample_input: a sweep's base has none.
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
        for field, path in (("function", self.function), ("output", self.output), ("plot", self.plot)):
            if path is not None and "\x00" in path:
                raise ConfigError(field, f"path {path!r} holds a NUL character")
        for field, path in (("output", self.output), ("plot", self.plot)):
            if path is not None and not Path(path).name:
                raise ConfigError(field, f"path {path!r} names no file")
        results = [] if self.output is None else [os.path.abspath(p) for p in (self.output, metrics_path_for(self.output))]
        plot = None if self.plot is None else os.path.abspath(self.plot)
        if plot in results:
            raise ConfigError("plot", f"plot {self.plot!r} would overwrite a result file")
        if self.n_qubits is not None and not 2 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError("qubits", f"{self.mode} supports 2..{MAX_QUBITS} qubits")
        if self.function not in oracles.CATALOG:
            # Anything that is not a catalog id is treated as a CSV path; a
            # missing or malformed file surfaces later as an I/O error.
            if self.domain is not None:
                raise ConfigError("domain", "domain comes from the CSV grid for file inputs")
            for field, paths in (("output", results), ("plot", [plot])):
                if os.path.abspath(self.function) in paths:
                    raise ConfigError(field, f"{field} would overwrite the input CSV {self.function!r}")


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
SWEEP_PRESETS: dict[str, tuple[ExperimentConfig, tuple[int, ...]]] = {
    "fig9a": (ExperimentConfig("qftd", "cos2pix", None, (-2.0, 2.0), 10**8), (4, 5, 6, 7, 8)),
    "fig9b": (ExperimentConfig("qfti", "cos2pix", None, (-1.0, 1.0), 10**7), (3, 4, 5, 6, 7, 8)),
}


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


def sample_input(config: ExperimentConfig) -> tuple[ExperimentConfig, pipelines.SampledFunction]:
    """Sample a config's input; a catalog function needs a qubit count, and a CSV's row count fixes it."""
    if config.function in oracles.CATALOG:
        if config.n_qubits is None:
            raise ConfigError("qubits", "qubit count is required for catalog functions")
        try:
            return config, oracles.sample_catalog(config.function, config.n_qubits, config.domain)
        except ValueError as exc:  # e.g. a grid point on a singularity
            raise ConfigError("domain", f"{config.function} on this grid: {exc}") from exc
    f = ingest_samples(config.function)
    n = f.n_points.bit_length() - 1
    if config.n_qubits is not None and config.n_qubits != n:
        raise ConfigError("qubits", f"CSV holds 2^{n} rows but {config.n_qubits} qubits were requested")
    return replace(config, n_qubits=n), f  # replace checks the count against 2..16


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
    config: ExperimentConfig, staged: dict | None = None
) -> tuple[pipelines.RecoveredSeries, dict]:
    """Execute a configured pipeline run; write CSV/metrics/plot when asked.

    Given ``staged``, the files are written when that :func:`staged_writes`
    block ends. Returns the recovered series and the metrics dict (the exact
    content of the metrics JSON; unavailable metrics are null).
    """
    config, f = sample_input(config)
    run = pipelines.qftd_run if config.mode == "qftd" else pipelines.qfti_run
    try:
        series = run(f, config.shots, config.seed)
    except ValueError as exc:  # e.g. a recovery scale that over- or underflows
        raise DataError(f"{config.function}: {exc}") from exc

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

    with staged_writes() if staged is None else contextlib.nullcontext(staged) as staged:
        if config.output is not None:
            write_series_csv(series, reference_sq, config.output, staged)
            _write_json(metrics, metrics_path_for(config.output), staged)
        if config.plot is not None:
            plots.emit_plot(series, reference_sq, config.plot, staged, scale=config.scale)
    return series, metrics


def metrics_path_for(output: str | Path) -> Path:
    output = Path(output)
    return output.with_name(output.stem + ".metrics.json")


def write_series_csv(
    series: pipelines.RecoveredSeries, reference_sq: np.ndarray, path: str | Path, staged: dict
) -> None:
    """Stage the run's result CSV in a :func:`staged_writes` block."""
    # Python floats format faster than numpy scalars, to the same text.
    rows = zip(series.x.tolist(), series.value_sq.tolist(), reference_sq.tolist(), series.retained.tolist())
    lines = ["x,quantum_sq,analytical_sq,retained", *("%.17g,%.17g,%.17g,%d" % row for row in rows)]
    staged[Path(path)] = "\n".join(lines) + "\n"


def write_summary_csv(rows: list[dict], path: str | Path, staged: dict) -> None:
    """Stage a sweep's summary: one line per run; an empty cell is a null metric."""
    columns = list(rows[0])
    lines = [",".join(columns)] + [",".join(_format_cell(row[c]) for c in columns) for row in rows]
    staged[Path(path)] = "\n".join(lines) + "\n"


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


def _write_json(payload: dict, path: str | Path, staged: dict) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    staged[Path(path)] = text + "\n"


@contextlib.contextmanager
def staged_writes():
    """Write every result file that the block stages, together.

    The block's writers stage each destination ``Path`` with its text.
    Nothing is written unless the block ends without an error and no
    destination is a directory. Then each text goes to a temporary file
    beside its destination, and all of them are renamed into place. No
    temporary file is left behind, and an error names the destination.
    """
    staged: dict[Path, str] = {}
    yield staged
    written: list[Path] = []
    try:
        for destination in staged:
            if destination.is_dir():
                raise DataError(f"cannot write {destination}: it is a directory")
        for destination, text in staged.items():
            written.append(destination.with_name(destination.name + ".tmp"))
            written[-1].write_text(text, encoding="utf-8")
        for tmp, destination in zip(written, staged):
            os.replace(tmp, destination)
    except OSError as exc:  # name the destination, not its temporary file
        raise DataError(f"cannot write {destination}: {exc.strerror}") from exc
    finally:
        for tmp in written:
            with contextlib.suppress(OSError):  # a renamed file is gone already
                tmp.unlink()


def run_sweep(base: ExperimentConfig, qubit_counts: tuple[int, ...], output_dir: str | Path) -> Path:
    """Run ``base`` once per qubit count, write every run's results and a summary, and return its path.

    Run i takes ``qubit_counts[i]`` qubits, seed ``base.seed + i``, no plot and
    the result ``<mode>_<function stem>_n<count>.csv`` under ``output_dir``.
    Every run's config is built, so checked, and an input CSV at the summary's
    path is refused before the first run. Nothing is written, and no directory
    is made, unless every run and the summary succeed.
    """
    out_dir = Path(output_dir)
    summary = out_dir / "sweep_summary.csv"
    stem = f"{base.mode}_{Path(base.function).stem}"
    configs = [
        replace(base, n_qubits=n, seed=base.seed + i, output=str(out_dir / f"{stem}_n{n}.csv"), plot=None)
        for i, n in enumerate(qubit_counts)
    ]
    if os.path.abspath(base.function) == os.path.abspath(summary):
        raise ConfigError("output-dir", f"the sweep summary {summary} would overwrite the input CSV {base.function!r}")
    with staged_writes() as staged:
        rows = []
        for config in configs:
            series, metrics = run_experiment(config, staged)
            shots = "exact" if config.shots is None else config.shots
            rows.append(dict(mode=config.mode, function=config.function, n_qubits=config.n_qubits, shots=shots,
                             seed=config.seed, gate_count=series.gate_count, **metrics))
        write_summary_csv(rows, summary, staged)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot make output directory {out_dir}: {exc.strerror}") from exc
    return summary
