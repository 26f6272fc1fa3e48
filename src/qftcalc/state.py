"""Dense statevector engine: named registers, amplitude encoding, readout.

Conventions
-----------
Qubit ``q`` carries bit significance ``q`` of the basis index (qubit 0 is the
least significant bit). Registers are declared most-significant first, in
any order.

The run path views the amplitudes with one axis per register, of length
``2**width``, most significant first (:attr:`RegisterLayout.shape`), and
names a branch by register values: a mapping such as ``{"a": 1, "b": 0}``,
which is also a stage's control. One private helper, :func:`_branch`,
makes every such view and checks its names and values, so register order
matters nowhere on the run path. :func:`amplitude_encode` writes the
samples into the k axis of one branch of a zeroed state, the QFT and the
rotation cascade (:mod:`qftcalc.spectral`) act on the k axis of the branch
they are given, the partial sum (:func:`qftcalc.psmpo.apply_partial_sum`)
reads one (b, c) block of k and writes two others, and the readout reads
one branch, in index order. No ``2^n x 2^n`` matrix is built. Only the
gate kernel :func:`apply_gate`, which no run calls, maps qubits to axes,
so the oracles' gate replays index the state through code the run path
does not share.

Sampling draws a branch's hit count as a binomial and spreads the hits by
Poissonization, whose law is exactly multinomial (see
:func:`sample_counts`). Norms on a pipeline run are numpy sums, not BLAS
dots: a BLAS dot over 2^17 samples wakes the BLAS thread pool, whose idle
workers then compete for the cores with the single-threaded FFT and
random-number work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "MAX_SHOTS",
    "POISSON_MARGIN",
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

# Margin c of the Poissonized readout (see sample_counts): a level's Poisson
# total overshoots the shots left with probability about P(Z > c).
POISSON_MARGIN = 3.0
# Cap on a level's mean total, inside numpy's Poisson range (about 9.2e18).
POISSON_MEAN_MAX = float(2**62)
# Largest shot count: the binomial hit count and the Poisson levels draw int64 counts.
MAX_SHOTS = 2**63 - 1


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

    @property
    def shape(self) -> tuple[int, ...]:
        """Axis lengths of the amplitudes viewed with one axis per register, ``2**width`` each."""
        return tuple(1 << width for _, width in self.registers)


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


def amplitude_encode(
    samples: Sequence[float], l2: float, layout: RegisterLayout, branch: Mapping[str, int] = {}
) -> Statevector:
    """Write real samples divided by their L2 norm ``l2`` into one branch of a zeroed statevector.

    The caller holds the norm (:func:`sample_l2_norm` of the samples), which
    also scales the measured values back, so it is taken once per run.
    ``branch`` maps every register but k to its value; the k axis of that
    branch becomes ``samples / l2``, and every other amplitude is zero.
    Raises ``ValueError`` when ``branch`` leaves a register other than k
    free or when the samples do not fill k.
    """
    samples = np.asarray(samples, dtype=float)
    if not 0.0 < l2 < np.inf:
        raise ValueError(f"L2 norm {l2!r} is not positive and finite: an all-zero input has no amplitude encoding")
    state = Statevector(np.zeros(1 << layout.n_qubits, dtype=complex), layout)
    target = _branch(state, branch, "k")
    if target.ndim != 1:
        raise ValueError(f"branch {dict(branch)} leaves a register other than 'k' free")
    if samples.shape != target.shape:
        raise ValueError(f"samples of shape {samples.shape} do not fill register 'k' of {target.size} values")
    np.divide(samples, l2, out=target.real)
    return state


def apply_gate(
    state: Statevector,
    matrix: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[tuple[int, int]] = (),
) -> Statevector:
    """Apply a unitary in place where every control holds its polarity, and return the state.

    ``targets`` are ordered least significant first with respect to the
    matrix index; ``controls`` are (qubit, polarity) pairs. Wherever a
    control fails the state is untouched. Qubit q is axis n-1-q of the
    amplitudes viewed as a ``(2,) * n`` tensor.
    """
    matrix = np.asarray(matrix, dtype=complex)
    targets = tuple(targets)
    dim = 1 << len(targets)
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix of shape {matrix.shape} does not act on {len(targets)} qubits")
    defect = np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))
    if defect > UNITARY_TOL:
        raise ValueError(f"payload is not unitary: max|U†U - I| = {defect:.3e}")
    n = state.n_qubits
    control_qubits = [q for q, _ in controls]
    index = [slice(None)] * n
    for q, bit in controls:
        if bit not in (0, 1):
            raise ValueError(f"control polarity must be 0 or 1, got {bit}")
        if not 0 <= q < n:
            raise ValueError(f"control qubit {q} out of range for {n} qubits")
        index[n - 1 - q] = bit
    for q in targets:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    touched = [*targets, *control_qubits]
    if len(set(touched)) < len(touched):
        raise ValueError(f"control qubit collides with the operand (lies inside it) or a qubit repeats: {touched}")
    free = [q for q in range(n - 1, -1, -1) if q not in control_qubits]
    branch = state.amplitudes.reshape((2,) * n)[(*index, ...)]
    # The matrix's least significant target is its fastest-varying index: the last axis.
    view = np.moveaxis(branch, [free.index(q) for q in targets[::-1]], range(-len(targets), 0))
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


def _branch(
    state: Statevector, fixed: Mapping[str, int], register: str | None = None, values: np.ndarray | None = None
) -> np.ndarray:
    """View of the amplitudes with one axis per register, ``fixed`` indexed away and ``register`` last.

    ``values`` replaces the amplitudes by another array of one entry per
    basis state. Free axes keep their order, so without ``register`` the
    view runs in index order; the trailing ellipsis keeps it a view even
    when every axis is fixed. Raises ``KeyError`` for an unknown register
    and ``ValueError`` for a value out of range (numpy would wrap a
    negative one) or an operand register that is also fixed.
    """
    layout = state.layout
    index = [slice(None)] * len(layout.registers)
    for name, value in fixed.items():
        size = 1 << layout.width(name)
        if not 0 <= value < size:
            raise ValueError(f"value {value} out of range for register {name!r} of {size} values")
        index[layout.names.index(name)] = value
    free = [name for name in layout.names if name not in fixed]
    if register is not None and register not in free:
        if register in fixed:
            raise ValueError(f"register {register!r} is both the operand and fixed")
        raise KeyError(f"no register named {register!r}")
    values = state.amplitudes if values is None else values
    view = values.reshape(layout.shape)[(*index, ...)]
    return view if register is None else np.moveaxis(view, free.index(register), -1)


def exact_probabilities(state: Statevector, branch: Mapping[str, int] = {}) -> np.ndarray:
    """Born-rule probabilities |amplitude_j|² of the basis states in ``branch`` (all by default), in index order."""
    return np.abs(_branch(state, branch).reshape(-1)) ** 2


def sample_counts(state: Statevector, shots: int, seed: int, branch: Mapping[str, int] = {}) -> np.ndarray:
    """Draw ``shots`` measurements and count those that land in ``branch``.

    Returns one int64 count per basis state of ``branch`` (all by default),
    in index order, distributed exactly as the branch's marginal of a
    multinomial draw. A proper branch first draws how many shots land in
    it, ``hits ~ Binomial(shots, p_block / p_total)``, then spreads them as
    ``Multinomial(hits, p_j)`` with ``p_j = p_block_j / p_block``, so no draw
    is spent on basis states nobody reads; one that holds all the probability
    (the full range) takes ``hits = shots`` without a binomial draw. The
    block is a view of the probabilities squared for ``p_total``.

    The hits are spread by Poissonization (Devroye 1986, ch. XI), which
    draws one Poisson variate per outcome where numpy's ``multinomial`` draws
    one binomial. While more than ``max(block size, 4 c^2)`` shots are left
    (``c = POISSON_MARGIN``), a level draws ``X_j ~ Poisson(lam * p_j)`` with
    ``lam = min(left - c sqrt(left), 2^62)`` and keeps ``X`` if its total is
    at most ``left``, else draws again; the last ``left`` shots are spread as
    categorical draws by inverse CDF. Given its total ``t``, a Poisson vector
    with means ``lam * p`` is ``Multinomial(t, p)``; a rejection depends on
    ``t`` alone, and an independent ``Multinomial(left - t, p)`` added to it
    makes ``Multinomial(left, p)``. So the law is exactly multinomial, but a
    full-range call does not reproduce numpy's ``multinomial`` stream. Each
    level leaves about ``c sqrt(left)`` shots, so the draw holds O(block
    size) memory at any shot count. Uses numpy's default generator (PCG64)
    seeded with ``seed``, so counts are reproducible across runs and
    platforms for a fixed numpy version. Raises ``ValueError`` unless
    ``1 <= shots <= MAX_SHOTS``.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in 1..{MAX_SHOTS}, got {shots}")
    probs = exact_probabilities(state)
    block = _branch(state, branch, values=probs).reshape(-1)
    p_block = block.sum()
    share = p_block / probs.sum()
    rng = np.random.default_rng(seed)
    hits = shots if share >= 1.0 else int(rng.binomial(shots, share))
    counts = np.zeros(block.size, dtype=np.int64)
    work = np.empty(block.size)
    left = hits
    while left > max(block.size, 4 * POISSON_MARGIN**2):
        lam = min(left - POISSON_MARGIN * math.sqrt(left), POISSON_MEAN_MAX)
        draw = rng.poisson(np.multiply(block, lam / p_block, out=work))
        total = int(draw.sum())
        if total <= left:
            counts += draw
            left -= total
        del draw  # a redraw then holds one draw, not two
    if left:
        cdf = np.cumsum(block, out=work)
        # Normalised partial sums of left + 1 exponentials are left sorted uniforms (Devroye
        # ch. V), and sorted keys make the search about three times faster than random ones.
        arrivals = np.cumsum(rng.standard_exponential(left + 1))
        picks = np.searchsorted(cdf, arrivals[:-1] * (cdf[-1] / arrivals[-1]), side="right")
        # A key can round up to cdf[-1]; its pick goes to the last outcome of non-zero probability.
        np.minimum(picks, np.searchsorted(cdf, cdf[-1]), out=picks)
        np.add.at(counts, picks, 1)
    return counts


# Bound for perfbench/tracer.py (see apply_register_unitary); the counts
# array is the only sampling path.
sample = sample_counts
