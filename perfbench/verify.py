"""Correctness gates, applied to each op's outputs from outside the program.

Every check reads the files an op wrote, or the series the worker returned,
and compares them with the classical oracles and the acceptance floors. A
failed check raises ``CheckFailed``; the op then counts as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from qftcalc import oracles
from qftcalc.experiments import RUN_PRESETS

# R-squared floors of the acceptance suite; other presets need a finite value.
R2_FLOORS = {"fig4": 0.95, "fig6": 0.98, "fig12a": 0.85, "fig12b": 0.95}
# fig6 must also reach an observed coverage of 0.92 +- 0.05.
FIG6_COVERAGE = (0.92, 0.05)
TREND_QUBITS = (3, 4, 5, 6, 7, 8)
TREND_SLOPE = (-1.0, 0.3)


class CheckFailed(Exception):
    """An op's output does not match its oracle or floor."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def eta_closed_form(n_points: int) -> float:
    """Spectral norm of the N x N summation matrix: 1 / (2 sin(pi / (2(2N+1))))."""
    return 1.0 / (2.0 * math.sin(math.pi / (2.0 * (2 * n_points + 1))))


def strict_json(path: Path) -> dict:
    """Parse JSON, rejecting the non-standard NaN and Infinity literals."""

    def reject(token):
        raise CheckFailed(f"{path.name} holds the non-standard JSON value {token}")

    require(path.is_file(), f"{path.name} was not written")
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name} is not valid JSON: {exc}") from None


def read_series_csv(path: Path, n_points: int) -> np.ndarray:
    """Columns x, quantum_sq, analytical_sq, retained of a result CSV."""
    require(path.is_file(), f"{path.name} was not written")
    lines = path.read_text(encoding="utf-8").splitlines()
    require(lines[:1] == ["x,quantum_sq,analytical_sq,retained"], f"{path.name} has no header")
    require(len(lines) == n_points + 1, f"{path.name} has {len(lines) - 1} rows, expected {n_points}")
    try:
        table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path.name} holds a malformed row: {exc}") from None
    require(table.shape == (n_points, 4), f"{path.name} does not have four columns")
    return table


def sampled_counts(value_sq, retained, scale_sq: float, shots: int) -> np.ndarray:
    """Recover shot counts; they must be non-negative integers matching ``retained``."""
    counts = np.asarray(value_sq) / scale_sq * shots
    rounded = np.round(counts)
    require(
        bool(np.all(np.abs(counts - rounded) <= 1e-6)) and bool(np.all(rounded >= 0)),
        "sampled values are not whole shot counts",
    )
    require(
        np.array_equal(np.asarray(retained, dtype=bool), rounded > 0),
        "retained flags differ from count > 0",
    )
    return rounded


def r_squared(predicted, reference, mask) -> float:
    predicted, reference = predicted[mask], reference[mask]
    require(predicted.size >= 2, "fewer than two points for R-squared")
    ss_tot = float(np.sum((reference - reference.mean()) ** 2))
    return 1.0 - float(np.sum((predicted - reference) ** 2)) / ss_tot


def check_preset(preset: str, csv_path: Path, plot_path: Path) -> None:
    """Gate one ``qftcalc run --preset`` op."""
    config = RUN_PRESETS[preset]
    f = oracles.sample_catalog(config.function, config.n_qubits, config.domain)
    table = read_series_csv(csv_path, f.n_points)
    x, quantum_sq, analytical_sq, retained = table.T
    require(np.array_equal(x, f.x), "CSV grid differs from the catalog grid")
    fn = oracles.CATALOG[config.function]
    if config.mode == "qftd":
        reference = fn.derivative(x)
        scale_sq = (f.l2_norm / f.dx) ** 2
    else:
        reference = fn.integral_from(float(x[0]), x)
        scale_sq = (f.l2_norm * eta_closed_form(f.n_points) * f.dx) ** 2
    reference_sq = reference**2
    require(
        np.allclose(analytical_sq, reference_sq, rtol=1e-12, atol=1e-12 * np.max(reference_sq)),
        "analytical column differs from the catalog reference",
    )
    counts = sampled_counts(quantum_sq, retained, scale_sq, config.shots)

    metrics = strict_json(csv_path.with_name(csv_path.stem + ".metrics.json"))
    success = metrics.get("success_probability")
    require(
        isinstance(success, float) and 0.0 < success <= 1.0,
        f"success probability {success!r} outside (0, 1]",
    )
    require(abs(success - counts.sum() / config.shots) <= 1e-9, "success probability differs from the counts")
    mask = retained.astype(bool)
    if config.mode == "qftd":
        mask[[0, -1]] = False  # the periodic stencil wraps the domain ends
    r2 = r_squared(quantum_sq, reference_sq, mask)
    require(math.isfinite(r2), f"R-squared {r2} is not finite")
    reported = metrics.get("r_squared")
    require(isinstance(reported, float) and abs(reported - r2) <= 1e-9, f"reported R-squared {reported!r} != {r2}")
    floor = R2_FLOORS.get(preset)
    require(floor is None or r2 >= floor, f"R-squared {r2:.4f} below the {preset} floor {floor}")
    if preset == "fig6":
        target, tolerance = FIG6_COVERAGE
        coverage = float(np.mean(retained))
        require(abs(coverage - target) <= tolerance, f"observed coverage {coverage:.4f} not within {target} +- {tolerance}")
    require(plot_path.is_file() and plot_path.read_text(encoding="utf-8").rstrip().endswith("</svg>"), "plot SVG missing or truncated")


def check_qfti_trend(out_dir: Path) -> None:
    """Gate one ``qftcalc sweep --mode qfti`` op: oracle equality and the MAE slope."""
    fn = oracles.CATALOG["cos2pix"]
    maes = []
    for n in TREND_QUBITS:
        f = oracles.sample_catalog("cos2pix", n, (-1.0, 1.0))
        x, quantum_sq, _, _ = read_series_csv(out_dir / f"qfti_cos2pix_n{n}.csv", f.n_points).T
        require(np.array_equal(x, f.x), f"n={n}: CSV grid differs from the catalog grid")
        trapezoid = oracles.trapezoid_partial_sums(f.samples, f.dx)
        scale_sq = (f.l2_norm * eta_closed_form(f.n_points) * f.dx) ** 2
        deviation = float(np.max(np.abs(quantum_sq - trapezoid**2)))
        require(deviation <= 1e-9 * scale_sq, f"n={n}: exact QFTI deviates from the trapezoid oracle by {deviation:.3e}")
        # Every grid point enters the MAE; censored points carry their zero.
        reference = fn.integral_from(float(x[0]), x)
        maes.append(float(np.mean(np.abs(np.sqrt(quantum_sq) - np.abs(reference)))))
    slope = float(np.polyfit(np.log([1 << n for n in TREND_QUBITS]), np.log(maes), 1)[0])
    target, tolerance = TREND_SLOPE
    require(abs(slope - target) <= tolerance, f"log-log MAE slope {slope:.3f} not within {target} +- {tolerance}")
    require((out_dir / "sweep_summary.csv").is_file(), "sweep summary was not written")


def check_qftd_exact(samples: np.ndarray, dx: float, value_sq: np.ndarray) -> None:
    scale_sq = (np.linalg.norm(samples) / dx) ** 2
    stencil = oracles.central_difference_periodic(samples, dx)
    deviation = float(np.max(np.abs(value_sq - stencil**2)))
    require(deviation <= 1e-9 * scale_sq, f"exact QFTD deviates from the stencil oracle by {deviation:.3e}")


def check_qftd_sampled(
    samples: np.ndarray, dx: float, value_sq, retained, shots: int, exact_success: float | None
) -> None:
    require(exact_success is not None, "no exact op succeeded to compare the success fraction with")
    scale_sq = (np.linalg.norm(samples) / dx) ** 2
    counts = sampled_counts(value_sq, retained, scale_sq, shots)
    fraction = counts.sum() / shots
    sigma = math.sqrt(exact_success * (1.0 - exact_success) / shots)
    require(
        abs(fraction - exact_success) <= 6.0 * sigma,
        f"success fraction {fraction:.6f} is more than 6 sigma from the exact {exact_success:.6f}",
    )
