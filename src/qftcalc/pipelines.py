"""End-to-end derivative (QFTD) and integral (QFTI) pipeline runs.

A run encodes normalized samples, moves to the spectrum, applies the
trigonometric wavenumber factor through the ancilla rotation, transforms back
under ancilla control (plus the cumulative-sum block encoding in integral
mode), and reads the post-selected branch out as squared physical values:

    derivative:  value_sq_j = (|f| / dx)^2        * psi_j^2
    integral:    value_sq_j = (|f| * eta * dx)^2  * psi_j^2

where ``psi_j^2`` is the probability (exact mode) or ``count_j / shots`` over
*all* shots (sampled mode) of the success outcome carrying grid point ``j``.
Points that are never observed are censored to zero and flagged unretained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import psmpo, spectral
from .state import (
    GateOp,
    RegisterLayout,
    Statevector,
    amplitude_encode,
    apply_gate,
    exact_probabilities,
    pauli_x,
    sample_counts,
    sample_l2_norm,
)

__all__ = [
    "EXACT_PSI_SQ_FLOOR",
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


@dataclass
class SampledFunction:
    """Uniform grid samples of a real function.

    Grid points are ``x_j = x0 + j * dx``; ``l2_norm`` is filled in from the
    samples and must stay consistent with them.
    """

    samples: np.ndarray
    x0: float
    dx: float
    l2_norm: float = field(default=0.0)

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite (no NaN or inf)")
        if not (np.isfinite(self.x0) and np.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError("grid origin must be finite and grid step finite and positive")
        norm = sample_l2_norm(self.samples)
        if norm == 0.0:
            raise ValueError("all-zero sample vector")
        if self.l2_norm == 0.0:
            self.l2_norm = norm
        elif not np.isclose(self.l2_norm, norm, rtol=1e-12):
            raise ValueError("declared l2_norm disagrees with the samples")

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


def _require_power_of_two(f: SampledFunction) -> int:
    n_points = f.n_points
    n = n_points.bit_length() - 1
    if n_points != (1 << n) or n < 2:
        raise ValueError(f"need 2^n samples with n >= 2, got {n_points}")
    return n


def _read_out(
    f: SampledFunction,
    state: Statevector,
    success_start: int,
    shots: int | None,
    seed: int,
    mode: str,
    scale_sq: float,
    eta: float | None = None,
) -> RecoveredSeries:
    """Recover ``scale_sq * psi_j^2`` from the success outcomes ``success_start + j``.

    The k register is the least significant one, so the success block is one
    contiguous index range.
    """
    success = slice(success_start, success_start + f.n_points)
    if shots is None:
        psi_sq = exact_probabilities(state)[success]
        success_probability = float(np.sum(psi_sq))
        retained = psi_sq > EXACT_PSI_SQ_FLOOR
        psi_sq = np.where(retained, psi_sq, 0.0)
    else:
        counts = sample_counts(state, shots, seed)[success]
        psi_sq = counts / shots
        retained = counts > 0
        success_probability = float(np.sum(psi_sq))
    return RecoveredSeries(
        x=f.x,
        value_sq=scale_sq * psi_sq,
        retained=retained,
        resolution_epsilon=0.0 if shots is None else resolution(f, shots, mode, eta=eta),
        mode=mode,
        shots_used=shots,
        seed=None if shots is None else seed,
        success_probability=success_probability,
        gate_count=state.gate_count,
    )


def _squared_scale(scale: float, formula: str) -> float:
    """``scale ** 2``, rejected when the square under- or overflows."""
    try:
        scale_sq = float(scale) ** 2
    except OverflowError:
        scale_sq = math.inf
    if not 0.0 < scale_sq < math.inf:
        raise ValueError(
            f"recovery scale {formula} = {scale_sq!r} is not a positive finite number; "
            "rescale the samples or the grid"
        )
    return scale_sq


def qftd_run(f: SampledFunction, shots: int | None, seed: int = 0) -> RecoveredSeries:
    """Run the quantum spectral-derivative pipeline on sampled data.

    ``shots=None`` selects exact mode (probabilities read directly from the
    statevector); otherwise outcomes are drawn once with the given seed.
    """
    n = _require_power_of_two(f)
    layout = RegisterLayout((("a", 1), ("k", n)))
    state, l2 = amplitude_encode(np.pad(f.samples, (0, f.n_points)), layout)
    scale_sq = _squared_scale(l2 / f.dx, "(|f|/dx)^2")

    schedule = spectral.angle_schedule(n, spectral.MODE_DERIVATIVE)
    (a_qubit,) = layout.qubits("a")
    # Only the ancilla's initial branch holds amplitude; the other is all zeros.
    spectral.qft(state, "k", control=(a_qubit, schedule.ancilla_init))
    spectral.wavenumber_rotation(state, schedule)
    spectral.qft(state, "k", inverse=True, control=(a_qubit, schedule.success_bit))

    success_start = layout.index_for({"a": schedule.success_bit, "k": 0})
    return _read_out(f, state, success_start, shots, seed, "derivative", scale_sq)


def qfti_run(f: SampledFunction, shots: int | None, seed: int = 0) -> RecoveredSeries:
    """Run the quantum trapezoid-integral pipeline on sampled data.

    Adds the two block-encoding registers (b, c) and the encoded summation
    operator after the controlled inverse transform; post-selection happens on
    the encoding's three-bit success prefix.
    """
    n = _require_power_of_two(f)
    enc = psmpo.build_block_encoding(n)
    layout = RegisterLayout((("a", 1), ("b", 1), ("c", 1), ("k", n)))
    state, l2 = amplitude_encode(np.pad(f.samples, (0, 7 * f.n_points)), layout)
    scale_sq = _squared_scale(l2 * enc.eta * f.dx, "(|f|*eta*dx)^2")

    (a_qubit,) = layout.qubits("a")
    schedule = spectral.angle_schedule(n, spectral.MODE_INTEGRAL)
    apply_gate(state, GateOp(pauli_x(), (a_qubit,)))  # ancilla |1> initialization
    spectral.qft(state, "k", control=(a_qubit, schedule.ancilla_init))
    spectral.wavenumber_rotation(state, schedule)
    spectral.qft(state, "k", inverse=True, control=(a_qubit, schedule.success_bit))
    psmpo.apply_partial_sum(state, enc, control=(a_qubit, schedule.success_bit))

    pa, pb, pc = enc.success_prefix
    success_start = layout.index_for({"a": pa, "b": pb, "c": pc, "k": 0})
    return _read_out(f, state, success_start, shots, seed, "integral", scale_sq, eta=enc.eta)


def resolution(
    f: SampledFunction, shots: int, mode: str, eta: float | None = None
) -> float:
    """Least non-zero squared value recoverable from ``shots`` measurements.

    A single count recovers ``psi^2 = 1/shots``, so the floor is the recovery
    scale divided by the shot count.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if mode == "derivative":
        return (f.l2_norm / f.dx) ** 2 / shots
    if mode == "integral":
        if eta is None:
            raise ValueError("integral-mode resolution requires eta")
        return (f.l2_norm * eta * f.dx) ** 2 / shots
    raise ValueError(f"unknown mode {mode!r}")


def expected_coverage(analytical_sq: np.ndarray, epsilon: float) -> float:
    """Fraction of points whose analytical squared value exceeds the floor."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    analytical_sq = np.asarray(analytical_sq, dtype=float)
    if analytical_sq.size == 0:
        raise ValueError("empty reference series")
    return float(np.mean(analytical_sq > epsilon))
