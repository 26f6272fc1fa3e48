"""QFT circuits and the ancilla-controlled modified-wavenumber rotation.

The forward QFT maps basis amplitudes with weights ``e^{+2 pi i j k / N}``
(so a lone ``|1>`` on two qubits transforms to ``(1, i, -1, -i)/2``); the
inverse applies the conjugate gates in reverse order. A controlled QFT is the
same gate sequence with one extra control on every gate, which is exactly the
controlled version of the register unitary.

On an ``m``-qubit register the whole circuit is the unitary DFT, so the
simulator runs it as one FFT over the register (Cooley & Tukey 1965): the
register's qubits, taken as the last axes of the controlled branch by
:func:`qftcalc.state._operand`, merge into one strided axis of length
``2^m``, still a view of the state, and the transform writes its result
back into that view (``out=``), so no ``2^m`` result array is allocated or
copied. The forward QFT is numpy's ``ifft`` and the inverse its ``fft``,
both with ``norm="ortho"``; it is numpy's FFT, not scipy's, so that
importing the CLI loads no scipy. ``gate_count`` still advances by the
circuit's gate count, ``m(m+1)/2 + m//2``. The gate-by-gate sequence,
:func:`_qft_gate_sequence`, stays as the oracle that the tests and
``validate`` replay.

The rotation cascade scales the spectrum element-wise: with the ancilla
initialized to ``|0>`` the ``|1>`` branch picks up ``i sin(2 pi k / N)``
(derivative mode); initialized to ``|1>`` the ``|1>`` branch keeps
``cos(2 pi k / N)`` (integral mode). The n controlled rotations commute, so
they amount to one Rx per value of k, ``[[c, -is], [-is, c]]`` with real
``c`` and ``s``. Those factors depend only on the schedule's angles, which
depend only on n, so :func:`_rotation_factors` builds them once per angle
tuple and process (1 MiB at n=16), checks their unitarity at build and
hands out read-only arrays; the derivative and integral schedules share the
entry. Both circuits run the cascade with the ancilla in a basis state, so
each call takes the start branch ``x`` and the other branch, k axes last,
from :func:`qftcalc.state._operand`, raises unless the other branch is
exactly zero, and then writes ``-i s x`` into it and ``c x`` over ``x`` in
place, with no branch-sized temporary. The gate-by-gate cascade stays as
the oracle that the tests and ``validate`` replay. Rotation angles are kept
as exact dyadic multiples of pi and converted to radians only when the
factors are built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .state import UNITARY_TOL, Statevector, _operand, hadamard, phase_gate, swap_gate

__all__ = [
    "SUCCESS_BIT",
    "WavenumberSchedule",
    "angle_schedule",
    "qft",
    "wavenumber_rotation",
    "reconstructed_rotation",
]

MODE_DERIVATIVE = "derivative"
MODE_INTEGRAL = "integral"
# The ancilla value whose branch carries the result in both modes.
SUCCESS_BIT = 1


@dataclass(frozen=True)
class WavenumberSchedule:
    """Controlled-Rx angles implementing the trigonometric wavenumber factor.

    ``angles[p]`` is the Rx argument, as an exact multiple of pi, controlled by
    the k-register qubit of significance ``p``; there is one angle per k
    qubit, so the register width ``n`` is ``len(angles)``. Each equals
    ``-2^(p-n+2)`` (in units of pi), i.e. minus twice the rotation
    ``theta_p = 2^(p-n+1) pi`` that the Rx convention requires.
    ``ancilla_init`` is the ancilla's basis state before the cascade: 0 for
    the derivative, 1 for the integral. Either way the result lands on the
    ``SUCCESS_BIT`` branch.
    """

    angles: tuple[Fraction, ...]
    ancilla_init: int

    @property
    def n(self) -> int:
        return len(self.angles)


def angle_schedule(n: int, mode: str) -> WavenumberSchedule:
    """Build the rotation schedule for an ``n``-qubit k-register."""
    if n < 1:
        raise ValueError("schedule needs at least one k-register qubit")
    if mode not in (MODE_DERIVATIVE, MODE_INTEGRAL):
        raise ValueError(f"unknown mode {mode!r}")
    angles = tuple(Fraction(-(1 << (p + 2)), 1 << n) for p in range(n))
    return WavenumberSchedule(angles=angles, ancilla_init=0 if mode == MODE_DERIVATIVE else 1)


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
    m = len(qubits)
    view = _operand(state, qubits[::-1], () if control is None else (control,))
    # A register's qubits are consecutive, so their axes have strides in
    # ratio 2 and merge into one strided axis without a copy: the transform
    # writes through to the state.
    flat = view.reshape(*view.shape[:-m], -1)
    # The e^{+2 pi i jk/N} convention makes the forward QFT numpy's ifft.
    transform = np.fft.fft if inverse else np.fft.ifft
    transform(flat, axis=-1, norm="ortho", out=flat)
    state.gate_count += m * (m + 1) // 2 + m // 2
    return state


def wavenumber_rotation(state: Statevector, schedule: WavenumberSchedule) -> Statevector:
    """Run the controlled-Rx cascade against the ``a``/``k`` registers.

    Requires the ancilla to sit in the schedule's initialization basis state:
    unless the complementary branch is exactly zero, ``ValueError`` is raised
    and the state is left untouched. Afterwards the amplitude of ``|k>`` on
    the ``SUCCESS_BIT`` branch carries ``i sin(2 pi k/N)`` (derivative) or
    ``cos(2 pi k/N)`` (integral) times the spectrum component.
    """
    layout = state.layout
    k_qubits = layout.qubits("k")
    if schedule.n != len(k_qubits):
        raise ValueError(
            f"schedule built for {schedule.n} qubits, k register has {len(k_qubits)}"
        )
    (a_qubit,) = layout.qubits("a")
    init = schedule.ancilla_init
    start, other = (_operand(state, k_qubits[::-1], ((a_qubit, bit),)) for bit in (init, 1 - init))
    if other.any():
        raise ValueError(f"ancilla is not in the basis state |{init}>: complementary branch holds non-zero amplitude")
    c, s = _rotation_factors(schedule.angles)
    # other = -i s start, then start = c start, in real arithmetic.
    np.multiply(s, start.imag, out=other.real)
    np.multiply(s, start.real, out=other.imag)
    np.negative(other.imag, out=other.imag)
    start *= c
    state.gate_count += schedule.n
    return state


@functools.cache
def _rotation_factors(angles: tuple[Fraction, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``c`` and ``s`` of every block ``[[c, -is], [-is, c]]``, shaped ``(2,) * n``.

    ``c`` and ``s`` are the cosine and sine of half the Rx angle of each k;
    the k axes, most significant first, index them as the value of k does.
    They depend on the angles alone, so they are built once per process for
    each angle tuple (the derivative and integral schedules share one entry),
    and the unitarity check runs here, on the arrays every later call reads.
    """
    phi = _rotation_turns(angles) * math.pi
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    # Block k is [[c, -is], [-is, c]] with real c and s: U†U - I is diagonal.
    defect = float(np.max(np.abs(c * c + s * s - 1.0)))
    if defect > UNITARY_TOL:
        raise ValueError(f"payload is not unitary: max|U†U - I| = {defect:.3e}")
    c.setflags(write=False)
    s.setflags(write=False)
    return c.reshape((2,) * len(angles)), s.reshape((2,) * len(angles))


def _rotation_turns(angles: tuple[Fraction, ...]) -> np.ndarray:
    """Rx angle, in units of pi, for every spectrum index k.

    The sum of the schedule ``angles`` over the set bits of k, i.e.
    ``-2 * reconstructed_rotation(schedule, k)``. Each angle is a dyadic
    fraction and every partial sum has magnitude below 4, so the float sums
    are exact.
    """
    turns = np.zeros(1)
    for angle in angles:
        # The indices with bit p set are the ones below 2^p, plus angle p.
        turns = np.concatenate([turns, turns + float(angle)])
    return turns
