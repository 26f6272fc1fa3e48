"""QFT circuits and the ancilla-controlled modified-wavenumber rotation.

The forward QFT maps basis amplitudes with weights ``e^{+2 pi i j k / N}``
(so a lone ``|1>`` on two qubits transforms to ``(1, i, -1, -i)/2``); the
inverse applies the conjugate gates in reverse order. A controlled QFT is the
same gate sequence with one extra control on every gate, which is exactly the
controlled version of the register unitary.

The rotation cascade scales the spectrum element-wise: with the ancilla
initialized to ``|0>`` the ``|1>`` branch picks up ``i sin(2 pi k / N)``
(derivative mode); initialized to ``|1>`` the ``|1>`` branch keeps
``cos(2 pi k / N)`` (integral mode). Rotation angles are kept as exact dyadic
multiples of pi and converted to radians only at gate application time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .state import (
    GateOp,
    Statevector,
    _branch,
    apply_gate,
    hadamard,
    phase_gate,
    rx_gate,
    swap_gate,
)

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
    """Yield (payload, targets, controls) for the QFT on ``qubits``.

    ``qubits`` are ordered least significant first. Controlled-phase gates are
    emitted as single-qubit phase payloads with a control, so an outer control
    can always be stacked on top.
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

    With ``control=(qubit, polarity)`` every gate in the circuit gains that
    control, which is the simulator-level controlled-QFT.
    """
    qubits = state.layout.qubits(register)
    if control is not None and control[0] in qubits:
        raise ValueError("control qubit lies inside the transformed register")
    for payload, targets, controls in _qft_gate_sequence(qubits, inverse):
        if control is not None:
            controls = controls + (control,)
        apply_gate(state, GateOp(payload, targets, controls))
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
    for p, angle in enumerate(schedule.angles_in_radians()):
        apply_gate(state, GateOp(rx_gate(angle), (a_qubit,), ((k_qubits[p], 1),)))
    return state


def _branch_probability(state: Statevector, qubit: int, bit: int) -> float:
    return float(np.sum(np.abs(_branch(state, ((qubit, bit),))) ** 2))
