"""Classical ground truth: spectral/stencil oracles, test functions, metrics.

The spectral derivative here is a direct O(N^2) DFT so it stays independent of
both numpy's FFT and the gate-level quantum path it is used to check.
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
    "dft_derivative",
    "central_difference_periodic",
    "trapezoid_partial_sums",
    "r_squared",
    "mean_absolute_error",
    "loglog_slope",
]


def dft_derivative(samples: np.ndarray, dx: float) -> np.ndarray:
    """Spectral derivative via the sine-modified wavenumber.

    Computes ``IDFT[ i sin(2 pi k / N) / dx * DFT[f]_k ]`` with explicitly
    constructed transform matrices (O(N^2)); the imaginary residue of the
    result is discarded after checking it is numerically negligible.
    """
    f = np.asarray(samples, dtype=float)
    n = f.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"sample count {n} is not a power of two")
    j = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(j, j) / n)
    spectrum = dft @ f
    factor = 1j * np.sin(2.0 * np.pi * j / n) / dx
    back = np.exp(2j * np.pi * np.outer(j, j) / n) / n
    result = back @ (factor * spectrum)
    residue = float(np.max(np.abs(result.imag)))
    if residue > 1e-9 * max(np.linalg.norm(f), 1.0):
        raise RuntimeError(f"imaginary residue {residue:.3e} in spectral derivative")
    return result.real


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

    identifier: str
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
        identifier="cos2pix",
        value=lambda x: np.cos(2.0 * np.pi * x),
        derivative=lambda x: -2.0 * np.pi * np.sin(2.0 * np.pi * x),
        integral_from=lambda x0, x: (np.sin(2.0 * np.pi * x) - np.sin(2.0 * np.pi * x0))
        / (2.0 * np.pi),
        default_domain=(-2.0, 2.0),
    ),
    "invx": CatalogFunction(
        identifier="invx",
        value=lambda x: 1.0 / x,
        derivative=lambda x: -1.0 / x**2,
        integral_from=lambda x0, x: np.log(np.abs(x)) - np.log(abs(x0)),
        default_domain=(-1.0, 1.0),
        singular=True,
    ),
    "poly": CatalogFunction(
        identifier="poly",
        value=lambda x: x**3 + x**2 - x,
        derivative=lambda x: 3.0 * x**2 + 2.0 * x - 1.0,
        integral_from=lambda x0, x: _antiderivative_poly(x) - _antiderivative_poly(x0),
        default_domain=(-2.0, 2.0),
    ),
    "harmonics": CatalogFunction(
        identifier="harmonics",
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
    # A grid point on a singularity gives inf, which SampledFunction rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        samples = function.value(x)
    return SampledFunction(samples=samples, x0=start, dx=dx)
