"""QFT circuits and the ancilla-controlled modified-wavenumber rotation.

The forward QFT maps basis amplitudes with weights ``e^{+2 pi i j k / N}``
(so a lone ``|1>`` on two qubits transforms to ``(1, i, -1, -i)/2``); the
inverse applies the conjugate gates in reverse order. A controlled QFT is the
same gate sequence with one extra control on every gate, which is exactly the
controlled version of the register unitary.

On an ``m``-qubit register the whole circuit is the unitary DFT, so the
simulator runs it as one FFT over the register's axis (Cooley & Tukey 1965):
the register's qubits are contiguous, so the amplitudes reshape to
``(above, 2^m, below)`` and the transform acts on the middle axis. The
forward QFT is numpy's ``ifft`` and the inverse its ``fft``, both with
``norm="ortho"``; it is numpy's FFT, not scipy's, so that importing the CLI
loads no scipy. ``gate_count`` still advances by the circuit's gate count,
``m(m+1)/2 + m//2``. The gate-by-gate sequence, :func:`_qft_gate_sequence`,
stays as the oracle the tests replay.

The rotation cascade scales the spectrum element-wise: with the ancilla
initialized to ``|0>`` the ``|1>`` branch picks up ``i sin(2 pi k / N)``
(derivative mode); initialized to ``|1>`` the ``|1>`` branch keeps
``cos(2 pi k / N)`` (integral mode). The n controlled rotations commute, so
they amount to one Rx per value of k, ``[[c, -is], [-is, c]]`` with real
``c`` and ``s``. The simulator updates the ancilla's two branches in place
with that real arithmetic, broadcast over the k axis; the gate-by-gate
cascade stays as the oracle the tests replay. Rotation angles are kept as
exact dyadic multiples of pi and converted to radians only at gate
application time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .state import UNITARY_TOL, Statevector, _branch, hadamard, phase_gate, swap_gate

__all__ = [
    "ANCILLA_BASIS_TOL",
    "WavenumberSchedule",
    "angle_schedule",
    "qft",
    "wavenumber_rotation",
    "reconstructed_rotation",
]

# Probability mass allowed outside the declared ancilla basis state.
ANCILLA_BASIS_TOL = 1e-10

MODE_DERIVATIVE = "derivative"
MODE_INTEGRAL = "integral"


@dataclass(frozen=True)
class WavenumberSchedule:
    """Controlled-Rx angles implementing the trigonometric wavenumber factor.

    ``angles[p]`` is the Rx argument, as an exact multiple of pi, controlled by
    the k-register qubit of significance ``p``. Each equals ``-2^(p-n+2)``
    (in units of pi), i.e. minus twice the rotation ``theta_p = 2^(p-n+1) pi``
    that the Rx convention requires.
    """

    n: int
    mode: str
    angles: tuple[Fraction, ...]
    ancilla_init: int
    success_bit: int

    def angles_in_radians(self) -> tuple[float, ...]:
        return tuple(float(a) * math.pi for a in self.angles)


def angle_schedule(n: int, mode: str) -> WavenumberSchedule:
    """Build the rotation schedule for an ``n``-qubit k-register."""
    if n < 1:
        raise ValueError("schedule needs at least one k-register qubit")
    if mode not in (MODE_DERIVATIVE, MODE_INTEGRAL):
        raise ValueError(f"unknown mode {mode!r}")
    angles = tuple(Fraction(-(1 << (p + 2)), 1 << n) for p in range(n))
    return WavenumberSchedule(
        n=n,
        mode=mode,
        angles=angles,
        ancilla_init=0 if mode == MODE_DERIVATIVE else 1,
        success_bit=1,
    )


def reconstructed_rotation(schedule: WavenumberSchedule, k: int) -> Fraction:
    """Total rotation theta_k (in units of pi) accumulated for spectrum index k.

    Summing the per-qubit rotations over the set bits of ``k`` must give
    ``2 k / 2^n`` exactly; this is the invariant the validation suite checks.
    """
    total = Fraction(0)
    for p in range(schedule.n):
        if (k >> p) & 1:
            total += -schedule.angles[p] / 2
    return total


def _qft_gate_sequence(qubits: tuple[int, ...], inverse: bool):
    """Yield (payload, targets, controls) for the QFT on ``qubits``, gate by gate.

    The oracle that the tests replay against :func:`qft`. ``qubits`` are
    ordered least significant first. Controlled-phase gates are emitted as
    single-qubit phase payloads with a control, so an outer control can
    always be stacked on top.
    """
    m = len(qubits)
    seq: list[tuple[np.ndarray, tuple[int, ...], tuple[tuple[int, int], ...]]] = []
    for s in range(m - 1, -1, -1):
        seq.append((hadamard(), (qubits[s],), ()))
        for s2 in range(s - 1, -1, -1):
            angle = 2.0 * math.pi / (1 << (s - s2 + 1))
            seq.append((phase_gate(angle), (qubits[s],), ((qubits[s2], 1),)))
    for i in range(m // 2):
        seq.append((swap_gate(), (qubits[i], qubits[m - 1 - i]), ()))
    if inverse:
        seq = [(payload.conj().T, targets, controls) for payload, targets, controls in reversed(seq)]
    return seq


def qft(
    state: Statevector,
    register: str,
    inverse: bool = False,
    control: tuple[int, int] | None = None,
) -> Statevector:
    """Apply the (inverse) QFT to a named register, optionally controlled.

    With ``control=(qubit, polarity)`` the transform acts only on the branch
    where that qubit holds the polarity, which is the circuit of
    :func:`_qft_gate_sequence` with the control added to every gate. The
    transform is one FFT over the register; ``gate_count`` advances as for
    the gate-by-gate circuit.
    """
    qubits = state.layout.qubits(register)
    controls = () if control is None else (control,)
    for q, bit in controls:
        if q in qubits:
            raise ValueError("control qubit lies inside the transformed register")
        if bit not in (0, 1):
            raise ValueError("control polarity must be 0 or 1")
        if not 0 <= q < state.n_qubits:
            raise ValueError(f"qubit index {q} out of range for {state.n_qubits} qubits")
    m = len(qubits)
    # The free qubits below the register: its offset, less a control under it.
    below = qubits[0] - sum(q < qubits[0] for q, _ in controls)
    view = _branch(state, controls)
    # The e^{+2 pi i jk/N} convention makes the forward QFT numpy's ifft.
    transform = np.fft.fft if inverse else np.fft.ifft
    view[...] = transform(view.reshape(-1, 1 << m, 1 << below), axis=1, norm="ortho").reshape(view.shape)
    state.gate_count += m * (m + 1) // 2 + m // 2
    return state


def wavenumber_rotation(state: Statevector, schedule: WavenumberSchedule) -> Statevector:
    """Run the controlled-Rx cascade against the ``a``/``k`` registers.

    Requires the ancilla to sit in the schedule's initialization basis state;
    afterwards the amplitude of ``|k>|success>`` carries ``i sin(2 pi k/N)``
    (derivative) or ``cos(2 pi k/N)`` (integral) times the spectrum component.
    """
    layout = state.layout
    k_qubits = layout.qubits("k")
    if schedule.n != len(k_qubits):
        raise ValueError(
            f"schedule built for {schedule.n} qubits, k register has {len(k_qubits)}"
        )
    (a_qubit,) = layout.qubits("a")
    wrong_branch = _branch_probability(state, a_qubit, 1 - schedule.ancilla_init)
    if wrong_branch > ANCILLA_BASIS_TOL:
        raise ValueError(
            f"ancilla is not in the basis state |{schedule.ancilla_init}>: "
            f"complementary branch holds probability {wrong_branch:.3e}"
        )
    phi = _rotation_turns(schedule) * math.pi
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    # Block k is [[c, -is], [-is, c]] with real c and s: U†U - I is diagonal.
    defect = float(np.max(np.abs(c * c + s * s - 1.0)))
    if defect > UNITARY_TOL:
        raise ValueError(f"payload is not unitary: max|U†U - I| = {defect:.3e}")
    # a is the most significant qubit and k is contiguous, so this is a view.
    c, s = c[:, None], s[:, None]
    a0, a1 = state.amplitudes.reshape(2, -1, 1 << schedule.n, 1 << k_qubits[0])
    s0, s1 = s * a0, s * a1
    a0 *= c
    a1 *= c
    # o0 = c a0 - i s a1 and o1 = c a1 - i s a0, in real arithmetic.
    a0.real += s1.imag
    a0.imag -= s1.real
    a1.real += s0.imag
    a1.imag -= s0.real
    state.gate_count += schedule.n
    return state


def _rotation_turns(schedule: WavenumberSchedule) -> np.ndarray:
    """Rx angle, in units of pi, for every spectrum index k.

    The sum of the schedule angles over the set bits of k, i.e.
    ``-2 * reconstructed_rotation(schedule, k)``. Each angle is a dyadic
    fraction and every partial sum has magnitude below 4, so the float sums
    are exact.
    """
    turns = np.zeros(1)
    for angle in schedule.angles:
        # The indices with bit p set are the ones below 2^p, plus angle p.
        turns = np.concatenate([turns, turns + float(angle)])
    return turns


def _branch_probability(state: Statevector, qubit: int, bit: int) -> float:
    return float(np.sum(np.abs(_branch(state, ((qubit, bit),))) ** 2))
