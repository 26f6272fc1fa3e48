"""Dense statevector engine: named registers, amplitude encoding, readout.

Conventions
-----------
Qubit ``q`` carries bit significance ``q`` of the basis index (qubit 0 is the
least significant bit). Registers are declared most-significant first, so the
first register in a layout occupies the top bits of the index and an ancilla
register named ``a`` always sits in the most significant position.

One private helper, :func:`_operand`, maps qubits to axes of a view of the
amplitudes and is the only place that checks qubit range, control polarity
and control/operand collisions. It takes a register's qubits in the order
:meth:`RegisterLayout.qubits` lists them, least significant first, and
reverses them into axes once. Every view of the state by qubit comes from
it. Each layer that acts on a register works on such views: the gate
kernel :func:`apply_gate`, which takes its matrix, targets and controls as
arguments, the QFT (:func:`qftcalc.spectral.qft`), the rotation cascade
(:func:`qftcalc.spectral.wavenumber_rotation`) and the block-encoded partial
sum (:func:`qftcalc.psmpo.apply_partial_sum`). The partial sum's operand is
the k register alone: it reads the b = c = 0 block of the controlled branch
and writes two other (b, c) blocks, each fixed by b and c as extra controls,
and its b/c check reads whole branches with no operand qubits. No
``2^n x 2^n`` matrix is built.

:func:`amplitude_encode` writes the samples into one block of a zeroed
state, so a pipeline starts in its ancilla branch without a gate; no run
calls the gate kernel.

Readout takes one ``outcomes`` slice of basis indices: exact probabilities
square only those amplitudes, and shot sampling draws only the counts of
that slice (see :func:`sample_counts`). Norms on a pipeline run are numpy
sums, not BLAS dots: a BLAS dot over 2^17 samples wakes the BLAS thread
pool, whose idle workers then compete for the cores with the
single-threaded FFT and random-number work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "UNITARY_TOL",
    "RegisterLayout",
    "Statevector",
    "amplitude_encode",
    "apply_gate",
    "exact_probabilities",
    "sample_counts",
    "sample_l2_norm",
]

# Tolerance for max |U†U − I| when accepting a gate payload.
UNITARY_TOL = 1e-10


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
    """Complex amplitudes over the ``2^n_qubits`` basis states of ``layout``.

    The width is the layout's, so the one check is that the amplitudes have
    that many entries. ``gate_count`` tallies primitive operations applied to
    this state; it is bookkeeping for complexity reports and takes no part in
    the physics.
    """

    amplitudes: np.ndarray
    layout: RegisterLayout
    gate_count: int = 0

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude array of shape {self.amplitudes.shape} does not match "
                f"the layout's {self.n_qubits} qubits"
            )

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits


def sample_l2_norm(samples: np.ndarray) -> float:
    """L2 norm of finite real samples, without under- or overflow.

    The norm is ``sqrt(sum(samples**2))`` by numpy's pairwise sum, which
    agrees with ``np.linalg.norm`` to about an ulp without its BLAS dot (see
    the module docstring). Only when the sum underflows to 0 or overflows to
    inf for non-zero samples is the norm recomputed as
    ``m * norm(samples / m)`` with ``m = max|samples|``.
    """
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.sqrt(np.sum(np.square(samples))))
    if norm == 0.0 or not np.isfinite(norm):
        peak = float(np.max(np.abs(samples), initial=0.0))
        if 0.0 < peak < np.inf:
            norm = peak * float(np.sqrt(np.sum(np.square(samples / peak))))
    return norm


def amplitude_encode(samples: Sequence[float], l2: float, layout: RegisterLayout, block: int = 0) -> Statevector:
    """Write real samples divided by their L2 norm ``l2`` into one block of a zeroed statevector.

    The caller holds the norm (:func:`sample_l2_norm` of the samples), which
    also scales the measured values back, so it is taken once per run. The
    blocks are the ``2^layout.n_qubits / len(samples)`` consecutive index
    ranges of the sample count's size; amplitude ``block * len(samples) + j``
    becomes ``samples[j] / l2``, and every other amplitude is zero.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n = samples.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"sample count {n} is not a power of two")
    dim = 1 << layout.n_qubits
    if not 0 <= block < dim // n:
        raise ValueError(f"{n} samples do not fit block {block} of a {layout.n_qubits}-qubit layout")
    if not 0.0 < l2 < np.inf:
        raise ValueError(f"L2 norm {l2!r} is not positive and finite: an all-zero input has no amplitude encoding")
    amplitudes = np.zeros(dim, dtype=complex)
    np.divide(samples, l2, out=amplitudes.real[block * n : (block + 1) * n])
    return Statevector(amplitudes, layout)


def apply_gate(
    state: Statevector,
    matrix: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[tuple[int, int]] = (),
) -> Statevector:
    """Apply a unitary in place where every control holds its polarity, and return the state.

    ``targets`` are ordered least significant first with respect to the
    matrix index; ``controls`` are (qubit, polarity) pairs. Wherever a
    control fails the state is untouched.
    """
    matrix = np.asarray(matrix, dtype=complex)
    targets = tuple(targets)
    dim = 1 << len(targets)
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix of shape {matrix.shape} does not act on {len(targets)} qubits")
    defect = np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))
    if defect > UNITARY_TOL:
        raise ValueError(f"payload is not unitary: max|U†U - I| = {defect:.3e}")
    # The matrix's least significant target is its fastest-varying index: the last axis.
    view = _operand(state, targets, controls)
    view[...] = (view.reshape(-1, dim) @ matrix.T).reshape(view.shape)
    state.gate_count += 1
    return state


# perfbench/tracer.py looks up every name of its TRACED list in this module,
# so ``apply_gate``, ``apply_register_unitary`` and ``sample`` stay bound here
# until that list drops them, though no run calls them.
def apply_register_unitary(
    state: Statevector,
    matrix: np.ndarray,
    qubits: Sequence[int],
    control: tuple[int, int] | None = None,
) -> Statevector:
    """:func:`apply_gate` with at most one control."""
    return apply_gate(state, matrix, qubits, (control,) if control else ())


def _operand(state: Statevector, qubits: Sequence[int], controls: tuple[tuple[int, int], ...] = ()) -> np.ndarray:
    """View of the branch where every control holds, with ``qubits`` as its last axes.

    The amplitudes are viewed as a ``(2,) * n`` tensor whose axes run most
    significant first (qubit q is axis n-1-q). ``qubits`` are listed least
    significant first, as :meth:`RegisterLayout.qubits` lists a register and
    :func:`apply_gate` takes its targets; their axes come last, most
    significant first, so they read as one index once the last axes are
    merged. The leading axes are the other free qubits.
    Fixing the control axes by integer index keeps the result a view (the
    trailing ellipsis keeps it a 0-d view when every axis is fixed).
    """
    n = state.n_qubits
    control_qubits = [q for q, _ in controls]
    index = [slice(None)] * n
    for q, bit in controls:
        if bit not in (0, 1):
            raise ValueError(f"control polarity must be 0 or 1, got {bit}")
        if not 0 <= q < n:
            raise ValueError(f"control qubit {q} out of range for {n} qubits")
        index[n - 1 - q] = bit
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    touched = [*qubits, *control_qubits]
    if len(set(touched)) < len(touched):
        raise ValueError(f"control qubit collides with the operand (lies inside it) or a qubit repeats: {touched}")
    branch = state.amplitudes.reshape((2,) * n)[(*index, ...)]
    if not qubits:  # a branch check: no axes to move, so no second view to allocate
        return branch
    free = [q for q in range(n - 1, -1, -1) if q not in control_qubits]
    return np.moveaxis(branch, [free.index(q) for q in qubits[::-1]], range(-len(qubits), 0))


def exact_probabilities(state: Statevector, outcomes: slice = slice(None)) -> np.ndarray:
    """Born-rule probabilities |amplitude_j|² for the basis indices in ``outcomes`` (all by default)."""
    return np.abs(state.amplitudes[outcomes]) ** 2


def sample_counts(state: Statevector, shots: int, seed: int, outcomes: slice = slice(None)) -> np.ndarray:
    """Draw ``shots`` measurement outcomes and count those in ``outcomes``.

    Returns one int64 count per basis index in ``outcomes`` (all by default),
    distributed exactly as that slice of a multinomial draw over every index.
    A proper slice first draws how many shots land in it,
    ``hits ~ Binomial(shots, p_block / p_total)``, then spreads them as
    ``Multinomial(hits, p_block_j / p_block)``, so no draw is spent on
    outcomes nobody reads. When the slice holds all the probability (the full
    range) ``hits = shots`` without a binomial draw, so a full-range call is
    one multinomial draw with the first numbers of the generator. Uses numpy's
    default generator (PCG64) seeded with ``seed``, so counts are reproducible
    across runs and platforms for a fixed numpy version.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = exact_probabilities(state)
    block = probs[outcomes]
    p_block = block.sum()
    share = p_block / probs.sum()
    rng = np.random.default_rng(seed)
    hits = shots if share >= 1.0 else int(rng.binomial(shots, share))
    if hits == 0:
        return np.zeros(block.size, dtype=np.int64)
    return rng.multinomial(hits, block / p_block)


# Bound for perfbench/tracer.py (see apply_register_unitary); the counts
# array is the only sampling path.
sample = sample_counts
