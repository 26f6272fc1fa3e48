"""End-to-end derivative (QFTD) and integral (QFTI) pipeline runs.

Both run one spectral circuit on branches named by register, never by flat
index: encode normalized samples straight into the k axis of the start
branch, move to the spectrum, apply the trigonometric wavenumber factor
through the ancilla rotation and transform back under ancilla control; the
integral starts in (a, b, c) = (1, 0, 0) (the X on a is counted, not
applied) and adds the cumulative-sum block encoding. The post-selected
branch is read out as squared physical values:

    derivative:  value_sq_j = (|f| / dx)^2        * psi_j^2
    integral:    value_sq_j = (|f| * eta * dx)^2  * psi_j^2

where ``psi_j^2`` is the probability (exact mode) or ``count_j / shots`` over
*all* shots (sampled mode) of the success outcome carrying grid point ``j``.
Points that are never observed are censored to zero and flagged unretained.
``eta`` is derived from the grid size (:func:`qftcalc.psmpo.spectral_norm`,
as the encoding is built). A run has one norm, ``f.l2_norm``: the encoding,
the scale and a sampled run's ``resolution_epsilon`` (the scale divided by
``shots``) all use it.

Readout touches only the success branch, ``a = 1`` (in the (b, c) block
``psmpo.SUCCESS_BLOCK`` for the integral). Sampled mode draws how many shots
succeed, ``hits ~ Binomial(shots, p_success)``, and then spreads them over
the branch by Poissonization: one Poisson variate per outcome plus a short
categorical completion. Given the totals, Poisson counts are multinomial, so
the spread is exactly ``Multinomial(hits, psi^2 / p_success)`` in law, but
it does not reproduce numpy's ``multinomial`` stream (see
:func:`qftcalc.state.sample_counts`). No norm in a run is a BLAS dot (see
:mod:`qftcalc.state` for why).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import psmpo, spectral
from .state import RegisterLayout, amplitude_encode, exact_probabilities, sample_counts, sample_l2_norm

__all__ = [
    "EXACT_PSI_SQ_FLOOR",
    "MODE_DERIVATIVE",
    "MODE_INTEGRAL",
    "SampledFunction",
    "RecoveredSeries",
    "qftd_run",
    "qfti_run",
    "resolution",
    "expected_coverage",
]

# Exact mode has no shot least count; squared probabilities at or below this
# floor are double-precision noise (~(1e-12 amplitude)^2) and get censored.
EXACT_PSI_SQ_FLOOR = 1e-24

MODE_DERIVATIVE = "derivative"
MODE_INTEGRAL = "integral"


@dataclass
class SampledFunction:
    """Uniform grid samples of a real function.

    Grid points are ``x_j = x0 + j * dx``; ``l2_norm`` is computed from the
    samples.
    """

    samples: np.ndarray
    x0: float
    dx: float
    l2_norm: float = field(init=False)

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite (no NaN or inf)")
        if not (np.isfinite(self.x0) and np.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError("grid origin must be finite and grid step finite and positive")
        self.l2_norm = sample_l2_norm(self.samples)
        if self.l2_norm == 0.0:
            raise ValueError("all-zero sample vector")

    @property
    def n_points(self) -> int:
        return int(self.samples.size)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_points)


@dataclass
class RecoveredSeries:
    """Per-grid-point squared output of a pipeline run, plus run metadata."""

    x: np.ndarray
    value_sq: np.ndarray
    retained: np.ndarray
    resolution_epsilon: float
    mode: str
    shots_used: int | None
    seed: int | None
    success_probability: float
    gate_count: int

    @property
    def n_points(self) -> int:
        return int(self.x.size)


def _squared_scale(f: SampledFunction, mode: str) -> float:
    """The recovery scale of ``mode`` for ``f``, rejected when it under- or overflows."""
    if mode == MODE_DERIVATIVE:
        scale, formula = f.l2_norm / f.dx, "(|f|/dx)^2"
    elif mode == MODE_INTEGRAL:
        scale, formula = f.l2_norm * psmpo.spectral_norm(f.n_points) * f.dx, "(|f|*eta*dx)^2"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    scale = float(scale)  # numpy scalars would warn where a float product over- or underflows silently
    scale_sq = scale * scale
    if not 0.0 < scale_sq < math.inf:
        raise ValueError(
            f"recovery scale {formula} = {scale_sq!r} is not a positive finite number; "
            "rescale the samples or the grid"
        )
    return scale_sq


def _run(f: SampledFunction, mode: str, shots: int | None, seed: int) -> RecoveredSeries:
    """Run the spectral circuit of ``mode`` on ``f`` and read out only its success branch."""
    n = f.n_points.bit_length() - 1
    if f.n_points != (1 << n) or n < 2:
        raise ValueError(f"need 2^n samples with n >= 2, got {f.n_points}")
    integral = mode == MODE_INTEGRAL
    # The integral starts in a = 1 (its X is counted, not applied) and b = c = 0.
    result = {"a": spectral.SUCCESS_BIT}  # where the rotation leaves the result
    if integral:
        start, success = {"a": 1, "b": 0, "c": 0}, {**result, **psmpo.SUCCESS_BLOCK}
    else:
        start, success = {"a": 0}, result
    layout = RegisterLayout((*((name, 1) for name in start), ("k", n)))
    scale_sq = _squared_scale(f, mode)
    state = amplitude_encode(f.samples, f.l2_norm, layout, start)
    state.gate_count += start["a"]
    # Only the start branch holds amplitude; every other is all zeros.
    spectral.qft(state, control=start)
    spectral.wavenumber_rotation(state)
    spectral.qft(state, inverse=True, control=result)
    if integral:
        psmpo.apply_partial_sum(state, control=result)

    if shots is None:
        psi_sq = exact_probabilities(state, success)
        success_probability = float(np.sum(psi_sq))
        retained = psi_sq > EXACT_PSI_SQ_FLOOR
        psi_sq = np.where(retained, psi_sq, 0.0)
    else:
        counts = sample_counts(state, shots, seed, success)
        psi_sq = counts / shots
        retained = counts > 0
        success_probability = float(np.sum(psi_sq))
    return RecoveredSeries(
        x=f.x,
        value_sq=scale_sq * psi_sq,
        retained=retained,
        resolution_epsilon=0.0 if shots is None else scale_sq / shots,
        mode=mode,
        shots_used=shots,
        seed=None if shots is None else seed,
        success_probability=success_probability,
        gate_count=state.gate_count,
    )


def qftd_run(f: SampledFunction, shots: int | None, seed: int = 0) -> RecoveredSeries:
    """Run the quantum spectral-derivative pipeline on sampled data.

    ``shots=None`` selects exact mode (probabilities read directly from the
    statevector); otherwise the shots are drawn once with the given seed.
    """
    return _run(f, MODE_DERIVATIVE, shots, seed)


def qfti_run(f: SampledFunction, shots: int | None, seed: int = 0) -> RecoveredSeries:
    """Run the quantum trapezoid-integral pipeline on sampled data.

    Adds the two block-encoding registers (b, c) and the encoded summation
    operator after the controlled inverse transform; post-selection happens on
    the branch a = 1 and (b, c) = ``psmpo.SUCCESS_BLOCK``, (1, 0, 1).
    """
    return _run(f, MODE_INTEGRAL, shots, seed)


def resolution(f: SampledFunction, shots: int, mode: str) -> float:
    """Least non-zero squared value recoverable from ``shots`` measurements.

    A single count recovers ``psi^2 = 1/shots``, so the floor is the recovery
    scale divided by the shot count.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return _squared_scale(f, mode) / shots


def expected_coverage(analytical_sq: np.ndarray, epsilon: float) -> float:
    """Fraction of points whose analytical squared value exceeds the floor."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    analytical_sq = np.asarray(analytical_sq, dtype=float)
    if analytical_sq.size == 0:
        raise ValueError("empty reference series")
    return float(np.mean(analytical_sq > epsilon))
