"""The QFT of the k register and the ancilla-controlled modified-wavenumber rotation.

The forward QFT maps basis amplitudes with weights ``e^{+2 pi i j k / N}``
(so a lone ``|1>`` on two qubits transforms to ``(1, i, -1, -i)/2``); the
inverse applies the conjugate gates in reverse order. A controlled QFT is the
same gate sequence with one extra control on every gate, which is exactly the
controlled version of the register unitary.

On an ``m``-qubit register the whole circuit is the unitary DFT, so the
simulator runs it as one FFT (Cooley & Tukey 1965) along the k axis of the
controlled branch, a strided view of the state taken by
:func:`qftcalc.state._branch`, and writes the result back into that view
(``out=``), so no ``2^m`` result array is allocated or copied. The forward
QFT is numpy's ``ifft`` and the inverse its ``fft``, both with
``norm="ortho"``; numpy is the package's only runtime dependency.
``gate_count`` still advances by the circuit's gate count,
``m(m+1)/2 + m//2``.

The rotation cascade scales the spectrum element-wise: with the ancilla in
``|0>`` the ``|1>`` branch picks up ``i sin(2 pi k / N)`` (the derivative);
with the ancilla in ``|1>`` the ``|1>`` branch keeps ``cos(2 pi k / N)``
(the integral). The cascade is the same unitary in both circuits; only the
ancilla branch that holds the spectrum differs. The n controlled rotations
commute, so they amount to one Rx per value of k, ``[[c, -is], [-is, c]]``
with real ``c`` and ``s``. Those factors depend only on the k width, so
:func:`_rotation_factors` builds them once per width and process (1 MiB at
n=16), checks their unitarity at build and hands out read-only arrays
indexed by k. Each call takes the start branch from the state: ``a = 1``
if it holds any amplitude, else ``a = 0``, each scanned at most once. It
raises when both branches hold amplitude, and otherwise writes ``-i s x``
into the other branch and ``c x`` over the start branch ``x`` in place,
with no branch-sized temporary. The factors take their angles in closed
form, ``-4k/N`` in units of pi.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .state import UNITARY_TOL, Statevector, _branch

__all__ = [
    "MAX_QUBITS",
    "SUCCESS_BIT",
    "qft",
    "wavenumber_rotation",
]

# Widest k register that either pipeline runs and a block encoding is built for.
MAX_QUBITS = 16
# The ancilla value whose branch carries the result in both modes.
SUCCESS_BIT = 1


def qft(state: Statevector, inverse: bool = False, *, control: tuple[str, int] | None = None) -> Statevector:
    """Apply the (inverse) QFT to the ``k`` register, optionally controlled.

    With ``control=(register, value)`` the transform acts only on the branch
    where that register holds the value, which is the gate-level circuit
    with the control added to every gate. The transform is one FFT over the
    register's axis; ``gate_count`` advances as for the gate-by-gate circuit.
    """
    m = state.layout.width("k")
    view = _branch(state, {} if control is None else dict([control]), "k")
    # The e^{+2 pi i jk/N} convention makes the forward QFT numpy's ifft.
    transform = np.fft.fft if inverse else np.fft.ifft
    transform(view, axis=-1, norm="ortho", out=view)
    state.gate_count += m * (m + 1) // 2 + m // 2
    return state


def wavenumber_rotation(state: Statevector) -> Statevector:
    """Run the controlled-Rx cascade against the one-qubit ``a`` and the ``k`` register.

    The start branch is ancilla ``|1>`` if that holds any amplitude, else
    ``|0>``; if both hold amplitude, ``ValueError`` is raised and the state
    is left untouched, as it is when ``a`` is not one qubit wide. Afterwards
    the amplitude of ``|k>`` on the ``SUCCESS_BIT`` branch carries
    ``i sin(2 pi k/N)`` (from ``|0>``, the derivative) or ``cos(2 pi k/N)``
    (from ``|1>``, the integral) times the spectrum component.
    """
    layout = state.layout
    if layout.width("a") != 1:
        raise ValueError(f"ancilla register 'a' must be one qubit wide, not {layout.width('a')}")
    zero, one = (_branch(state, {"a": bit}, "k") for bit in (0, 1))
    # Each branch is scanned at most once; a QFTD run scans only its empty |1> branch.
    if one.any():
        if zero.any():
            raise ValueError("ancilla is not in a basis state: both of its branches hold non-zero amplitude")
        start, other = one, zero
    else:
        start, other = zero, one
    n = layout.width("k")
    c, s = _rotation_factors(n)
    # other = -i s start, then start = c start, in real arithmetic.
    np.multiply(s, start.imag, out=other.real)
    np.multiply(s, start.real, out=other.imag)
    np.negative(other.imag, out=other.imag)
    start *= c
    state.gate_count += n
    return state


@functools.cache
def _rotation_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``c`` and ``s`` of every block ``[[c, -is], [-is, c]]``, indexed by k.

    ``c`` and ``s`` are the cosine and sine of half the Rx angle of each k.
    They depend on the k width alone, so they are built once per process for
    each width, and the unitarity check runs here, on the arrays every later
    call reads.
    """
    phi = _rotation_turns(n) * math.pi
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    # Block k is [[c, -is], [-is, c]] with real c and s: U†U - I is diagonal.
    defect = float(np.max(np.abs(c * c + s * s - 1.0)))
    if defect > UNITARY_TOL:
        raise ValueError(f"payload is not unitary: max|U†U - I| = {defect:.3e}")
    c.setflags(write=False)
    s.setflags(write=False)
    return c, s


def _rotation_turns(n: int) -> np.ndarray:
    """Sum of the cascade's Rx angles over the set bits of every k, in closed form: exact, +0.0 at k = 0."""
    return -4 * np.arange(1 << n) / (1 << n)
