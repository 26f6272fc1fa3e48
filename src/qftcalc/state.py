"""Dense statevector engine: named registers, gate application, shot sampling.

Conventions
-----------
Qubit ``q`` carries bit significance ``q`` of the basis index (qubit 0 is the
least significant bit). Registers are declared most-significant first, so the
first register in a layout occupies the top bits of the index and an ancilla
register named ``a`` always sits in the most significant position.

Every gate, with any number of targets and polarity controls, goes through
one kernel: the amplitudes are viewed as a ``(2,) * n`` tensor, each control
axis is fixed to its polarity (a view, not a copy), and the payload is
contracted with the target axes in place. The full ``2^n x 2^n`` embedding is
never built here (tests rebuild it as an oracle).

The pipeline's register-wide steps do not go through the kernel: the QFT is
one FFT over the register axis (:func:`qftcalc.spectral.qft`), and the
controlled-Rx cascade is one in-place update of the ancilla's two branches
(:func:`qftcalc.spectral.wavenumber_rotation`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "NORM_TOL",
    "UNITARY_TOL",
    "RegisterLayout",
    "Statevector",
    "GateOp",
    "amplitude_encode",
    "apply_gate",
    "apply_register_unitary",
    "exact_probabilities",
    "sample_counts",
    "sample_l2_norm",
    "hadamard",
    "pauli_x",
    "phase_gate",
    "rx_gate",
    "swap_gate",
]

# Tolerance for |‖state‖₂ − 1| after any unitary operation.
NORM_TOL = 1e-12
# Tolerance for max |U†U − I| when accepting a gate payload.
UNITARY_TOL = 1e-10


def hadamard() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def pauli_x() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def phase_gate(phi: float) -> np.ndarray:
    """diag(1, e^{i phi})."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]], dtype=complex)


def rx_gate(phi: float) -> np.ndarray:
    """X-axis rotation e^{-i X phi / 2}."""
    c = np.cos(phi / 2.0)
    s = np.sin(phi / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def swap_gate() -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[[1, 2]] = m[[2, 1]]
    return m


@dataclass(frozen=True)
class RegisterLayout:
    """Named qubit registers declared most-significant first.

    ``registers`` is a tuple of (name, width) pairs.
    """

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.registers]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate register names in {names}")
        if any(width < 1 for _, width in self.registers):
            raise ValueError("register widths must be >= 1")
        if "a" in names and names[0] != "a":
            raise ValueError("ancilla register 'a' must occupy the most significant position")

    @property
    def n_qubits(self) -> int:
        return sum(width for _, width in self.registers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    def width(self, name: str) -> int:
        for reg, width in self.registers:
            if reg == name:
                return width
        raise KeyError(f"no register named {name!r}")

    def offset(self, name: str) -> int:
        """Bit significance of the register's least significant qubit."""
        off = self.n_qubits
        for reg, width in self.registers:
            off -= width
            if reg == name:
                return off
        raise KeyError(f"no register named {name!r}")

    def qubits(self, name: str) -> tuple[int, ...]:
        """Qubit indices of the register, least significant first."""
        off = self.offset(name)
        return tuple(range(off, off + self.width(name)))

    def value_of(self, index: int, name: str) -> int:
        return (index >> self.offset(name)) & ((1 << self.width(name)) - 1)

    def index_for(self, values: Mapping[str, int]) -> int:
        """Basis index for an assignment of every register."""
        if set(values) != set(self.names):
            raise ValueError(f"expected values for registers {self.names}, got {tuple(values)}")
        index = 0
        for name, value in values.items():
            width = self.width(name)
            if not 0 <= value < (1 << width):
                raise ValueError(f"value {value} out of range for {width}-qubit register {name!r}")
            index |= value << self.offset(name)
        return index


@dataclass
class Statevector:
    """Complex amplitudes over ``2^n_qubits`` basis states.

    ``gate_count`` tallies primitive operations applied to this state; it is
    bookkeeping for complexity reports and takes no part in the physics.
    """

    n_qubits: int
    amplitudes: np.ndarray
    layout: RegisterLayout
    gate_count: int = 0

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude array of shape {self.amplitudes.shape} does not match "
                f"{self.n_qubits} qubits"
            )
        if self.layout.n_qubits != self.n_qubits:
            raise ValueError("layout does not cover the statevector's qubits")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "Statevector":
        return replace(self, amplitudes=self.amplitudes.copy())


@dataclass(frozen=True)
class GateOp:
    """A unitary payload with target qubits and optional polarity controls.

    ``targets`` are ordered least significant first with respect to the payload
    matrix's index. ``controls`` is a tuple of (qubit, polarity) pairs; the
    payload acts only where every control qubit holds its polarity bit.
    """

    matrix: np.ndarray
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        dim = 1 << len(self.targets)
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"payload shape {self.matrix.shape} does not match {len(self.targets)} targets")
        touched = list(self.targets) + [q for q, _ in self.controls]
        if len(touched) != len(set(touched)):
            raise ValueError(f"target/control qubit collision in {touched}")
        if any(pol not in (0, 1) for _, pol in self.controls):
            raise ValueError("control polarity must be 0 or 1")


def _check_unitary(matrix: np.ndarray) -> None:
    """Reject a payload that is not unitary."""
    defect = np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])))
    if defect > UNITARY_TOL:
        raise ValueError(f"payload is not unitary: max|U†U - I| = {defect:.3e}")


def sample_l2_norm(samples: np.ndarray) -> float:
    """L2 norm of finite real samples, without under- or overflow.

    The direct norm is kept whenever it is a positive finite number, so every
    input whose norm is representable gets the same bits as before; only when
    it underflows to 0 or overflows to inf for non-zero samples is it
    recomputed as ``m * norm(samples / m)`` with ``m = max|samples|``.
    """
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(samples))
    if norm == 0.0 or not np.isfinite(norm):
        peak = float(np.max(np.abs(samples), initial=0.0))
        if 0.0 < peak < np.inf:
            norm = peak * float(np.linalg.norm(samples / peak))
    return norm


def amplitude_encode(samples: Sequence[float], layout: RegisterLayout) -> tuple[Statevector, float]:
    """Normalize real samples into the amplitudes of a fresh statevector.

    Returns the state together with the L2 norm of the input (the scale factor
    needed to recover physical values after measurement). The sample count must
    equal ``2^layout.n_qubits``; amplitude ``j`` becomes ``samples[j] / norm``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n = samples.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"sample count {n} is not a power of two")
    if n != (1 << layout.n_qubits):
        raise ValueError(f"{n} samples do not fill a {layout.n_qubits}-qubit layout")
    l2 = sample_l2_norm(samples)
    if l2 == 0.0:
        raise ValueError("all-zero input: amplitude encoding undefined")
    amplitudes = np.empty(n, dtype=complex)
    np.divide(samples, l2, out=amplitudes.real)
    amplitudes.imag = 0.0
    return Statevector(layout.n_qubits, amplitudes, layout), l2


def apply_gate(state: Statevector, op: GateOp) -> Statevector:
    """Apply a gate in place and return the (mutated) state."""
    _apply_controlled(state, op.matrix, op.targets, op.controls)
    return state


def apply_register_unitary(
    state: Statevector,
    matrix: np.ndarray,
    qubits: Sequence[int],
    control: tuple[int, int] | None = None,
) -> Statevector:
    """Apply a dense unitary to a set of qubits, optionally under one control.

    ``qubits`` are ordered least significant first with respect to the matrix
    index. Wherever the control condition fails the state is untouched.
    """
    matrix = np.asarray(matrix, dtype=complex)
    qubits = tuple(qubits)
    dim = 1 << len(qubits)
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix of shape {matrix.shape} does not act on {len(qubits)} qubits")
    touched = list(qubits) + ([control[0]] if control else [])
    if len(touched) != len(set(touched)):
        raise ValueError("control qubit collides with the target register")
    _apply_controlled(state, matrix, qubits, (control,) if control else ())
    return state


def _branch(state: Statevector, fixed: Iterable[tuple[int, int]]) -> np.ndarray:
    """View of the amplitudes where each (qubit, bit) pair in ``fixed`` holds.

    Tensor axes run most significant first, so qubit q is axis n-1-q. Fixing
    an axis with an integer index keeps the result a view (the trailing
    ellipsis keeps it a 0-d view when every axis is fixed); its axes are the
    unfixed qubits, most significant first.
    """
    n = state.n_qubits
    index = [slice(None)] * n
    for q, bit in fixed:
        index[n - 1 - q] = bit
    return state.amplitudes.reshape((2,) * n)[(*index, ...)]


def _apply_controlled(
    state: Statevector,
    matrix: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[tuple[int, int], ...],
) -> None:
    """Check, then apply ``matrix`` in place where every control holds its polarity."""
    _check_unitary(matrix)
    control_qubits = [q for q, _ in controls]
    for q in (*targets, *control_qubits):
        if not 0 <= q < state.n_qubits:
            raise ValueError(f"qubit index {q} out of range for {state.n_qubits} qubits")
    free = [q for q in range(state.n_qubits - 1, -1, -1) if q not in control_qubits]
    if len(targets) == 1:
        a0 = _branch(state, (*controls, (targets[0], 0)))
        a1 = _branch(state, (*controls, (targets[0], 1)))
        # Explicit row combination: a 2x2 matmul would round differently.
        out0 = matrix[0, 0] * a0 + matrix[0, 1] * a1
        out1 = matrix[1, 0] * a0 + matrix[1, 1] * a1
        a0[...], a1[...] = out0, out1
    else:
        axes = [free.index(q) for q in targets]
        # The matrix's least significant target is its fastest-varying index,
        # i.e. the last of the leading axes after the move.
        view = np.moveaxis(_branch(state, controls), axes[::-1], range(len(axes)))
        view[...] = (matrix @ view.reshape(1 << len(axes), -1)).reshape(view.shape)
    state.gate_count += 1


def exact_probabilities(state: Statevector) -> np.ndarray:
    """Born-rule probabilities |amplitude_j|² for every basis index."""
    return np.abs(state.amplitudes) ** 2


def sample_counts(state: Statevector, shots: int, seed: int) -> np.ndarray:
    """Draw ``shots`` measurement outcomes as one multinomial sample.

    Returns the count of every basis index as an int64 array. Uses numpy's
    default generator (PCG64) seeded with ``seed``, so counts are reproducible
    across runs and platforms for a fixed numpy version.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = exact_probabilities(state)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs / probs.sum())


# perfbench/tracer.py wraps ``state.sample`` by name; the name stays bound
# until that list drops it. The counts array is the only sampling path.
sample = sample_counts
