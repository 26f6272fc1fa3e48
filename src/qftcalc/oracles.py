"""Classical ground truth: stencil oracles, test functions, metrics.

The stencils are the exact classical twins of the two pipelines in exact
mode: the periodic central difference for QFTD and the cumulative
overlapping trapezoid for QFTI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pipelines import SampledFunction

__all__ = [
    "CatalogFunction",
    "CATALOG",
    "sample_catalog",
    "central_difference_periodic",
    "trapezoid_partial_sums",
    "r_squared",
    "mean_absolute_error",
    "loglog_slope",
]


def central_difference_periodic(samples: np.ndarray, dx: float) -> np.ndarray:
    """(f_{j+1} - f_{j-1}) / (2 dx) with wrap-around indexing at both ends."""
    f = np.asarray(samples, dtype=float)
    if f.size < 2:
        raise ValueError("need at least two samples")
    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * dx)


def trapezoid_partial_sums(samples: np.ndarray, dx: float) -> np.ndarray:
    """Running totals of the overlapping two-step trapezoid areas.

    ``out_j = dx * sum_{i<=j} (f_{i+1} + f_{i-1}) / 2`` with periodic
    wrap-around, the stencil the spectral cosine factor realizes exactly.
    """
    f = np.asarray(samples, dtype=float)
    if f.size < 2:
        raise ValueError("need at least two samples")
    areas = (np.roll(f, -1) + np.roll(f, 1)) / 2.0
    return dx * np.cumsum(areas)


def r_squared(
    predicted: np.ndarray, reference: np.ndarray, mask: np.ndarray | None = None
) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot over masked points.

    Negative when the fit is worse than the reference mean; raises when fewer
    than two points are masked or the reference has no variance.
    """
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape:
        raise ValueError("arrays must have equal length")
    if mask is not None:
        predicted = predicted[np.asarray(mask, dtype=bool)]
        reference = reference[np.asarray(mask, dtype=bool)]
    if predicted.size < 2:
        raise ValueError("r_squared needs at least two comparable points")
    ss_res = float(np.sum((predicted - reference) ** 2))
    ss_tot = float(np.sum((reference - np.mean(reference)) ** 2))
    if ss_tot == 0.0:
        raise ValueError("reference has zero variance; r_squared undefined")
    return 1.0 - ss_res / ss_tot


def mean_absolute_error(
    a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None
) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("arrays must have equal length")
    if mask is not None:
        a = a[np.asarray(mask, dtype=bool)]
        b = b[np.asarray(mask, dtype=bool)]
    if a.size == 0:
        raise ValueError("mean_absolute_error over an empty mask")
    return float(np.mean(np.abs(a - b)))


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


@dataclass(frozen=True)
class CatalogFunction:
    """A test function with exact derivative and partially bound integral."""

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    integral_from: Callable[[float, np.ndarray], np.ndarray]
    default_domain: tuple[float, float]
    singular: bool = False


def _antiderivative_poly(x):
    return x**4 / 4.0 + x**3 / 3.0 - x**2 / 2.0


def _antiderivative_harmonics(x):
    return 2.0 / np.pi * np.sin(np.pi * x / 2.0) - 2.0 / (3.0 * np.pi) * np.cos(
        3.0 * np.pi * x / 2.0
    )


CATALOG: dict[str, CatalogFunction] = {
    "cos2pix": CatalogFunction(
        value=lambda x: np.cos(2.0 * np.pi * x),
        derivative=lambda x: -2.0 * np.pi * np.sin(2.0 * np.pi * x),
        integral_from=lambda x0, x: (np.sin(2.0 * np.pi * x) - np.sin(2.0 * np.pi * x0))
        / (2.0 * np.pi),
        default_domain=(-2.0, 2.0),
    ),
    "invx": CatalogFunction(
        value=lambda x: 1.0 / x,
        derivative=lambda x: -1.0 / x**2,
        integral_from=lambda x0, x: np.log(np.abs(x)) - np.log(abs(x0)),
        default_domain=(-1.0, 1.0),
        singular=True,
    ),
    "poly": CatalogFunction(
        value=lambda x: x**3 + x**2 - x,
        derivative=lambda x: 3.0 * x**2 + 2.0 * x - 1.0,
        integral_from=lambda x0, x: _antiderivative_poly(x) - _antiderivative_poly(x0),
        default_domain=(-2.0, 2.0),
    ),
    "harmonics": CatalogFunction(
        value=lambda x: np.cos(np.pi * x / 2.0) + np.sin(3.0 * np.pi * x / 2.0),
        derivative=lambda x: -np.pi / 2.0 * np.sin(np.pi * x / 2.0)
        + 3.0 * np.pi / 2.0 * np.cos(3.0 * np.pi * x / 2.0),
        integral_from=lambda x0, x: _antiderivative_harmonics(x)
        - _antiderivative_harmonics(x0),
        default_domain=(-2.0, 2.0),
    ),
}


def sample_catalog(
    function: CatalogFunction | str,
    n_qubits: int,
    domain: tuple[float, float] | None = None,
) -> SampledFunction:
    """Sample a catalog function onto a ``2^n``-point uniform grid.

    Regular entries use left-edge points ``x_j = x0 + j dx``; singular entries
    use midpoints ``x_j = x0 + (j + 1/2) dx`` so symmetric domains never
    evaluate at the singularity.
    """
    if isinstance(function, str):
        function = CATALOG[function]
    lo, hi = domain if domain is not None else function.default_domain
    if not hi > lo:
        raise ValueError(f"empty domain [{lo}, {hi}]")
    n_points = 1 << n_qubits
    dx = (hi - lo) / n_points
    start = lo + 0.5 * dx if function.singular else lo
    x = start + dx * np.arange(n_points)
    # A grid point on a singularity, or a huge domain, gives inf or NaN, which SampledFunction rejects.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        samples = function.value(x)
    return SampledFunction(samples=samples, x0=start, dx=dx)
