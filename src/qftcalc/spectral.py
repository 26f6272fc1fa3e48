"""The QFT of the k register and the ancilla-controlled modified-wavenumber rotation.

The forward QFT maps basis amplitudes with weights ``e^{+2 pi i j k / N}``
(so a lone ``|1>`` on two qubits transforms to ``(1, i, -1, -i)/2``); the
inverse applies the conjugate gates in reverse order. A QFT controlled on a
branch, a register mapping such as ``{"a": 1}``, is the same gate sequence
with one control per qubit of each fixed register on every gate.

On an ``m``-qubit register the whole circuit is the unitary DFT, so the
simulator runs it as one FFT (Cooley & Tukey 1965) along the k axis of the
controlled branch, a strided view of the state taken by
:func:`qftcalc.state._branch`, and writes the result back into that view.
numpy is the package's only runtime dependency, and every FFT is numpy's,
with ``norm="ortho"``. Which FFT runs depends on the exact symmetry of the
branch, tested bit for bit and never to a tolerance (Sorensen, Jones,
Heideman & Burrus 1987):

- a real branch takes one half-length ``rfft``. Its e^{-2 pi i jk/N} sign
  makes it the inverse QFT on k = 0..N/2 and its conjugate the forward one;
  entry N - k of the result is the conjugate of entry k;
- a Hermitian branch, with real entries 0 and N/2 and entry N - k the
  conjugate of entry k in every row, takes one ``irfft`` of its entries
  0..N/2 (conjugated for the inverse), whose result is real;
- any other branch takes the complex FFT in place (``out=``): the forward
  QFT is numpy's ``ifft`` and the inverse its ``fft``.

A QFTD run's input branch is real and its success branch Hermitian, and so
are QFTI's, so each run does one ``rfft`` and one ``irfft`` and no complex
FFT. ``gate_count`` advances by the circuit's gate count, ``m(m+1)/2 +
m//2``, whichever FFT runs.

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
form, ``-4k/N`` in units of pi, for k <= N/2, and mirror them above: ``c``
is even in k and ``s`` odd, bit for bit, with ``s = 0`` at k = 0 and N/2.
So the rotation keeps a Hermitian spectrum exactly Hermitian, and the
controlled inverse QFT after it takes the ``irfft``.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping

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


def qft(state: Statevector, inverse: bool = False, *, control: Mapping[str, int] | None = None) -> Statevector:
    """Apply the (inverse) QFT to the ``k`` register, optionally controlled.

    With ``control``, a register mapping such as ``{"a": 1}``, the transform
    acts only on that branch: the gate-level circuit with one control per
    fixed qubit on every gate. The transform is one FFT over the register's
    axis, a half-length real one when the branch is exactly real or
    Hermitian; ``gate_count`` advances as for the gate-by-gate circuit.
    """
    m = state.layout.width("k")
    view = _branch(state, {} if control is None else control, "k")
    half = 1 << (m - 1)
    if not view.imag.any():
        # rfft is the inverse QFT on k <= N/2 and its conjugate the forward one; entry N - k
        # of a real branch's transform is the conjugate of entry k.
        spectrum = np.fft.rfft(view.real, axis=-1, norm="ortho")
        mirror = spectrum[..., half - 1 : 0 : -1]
        if inverse:
            view[..., : half + 1] = spectrum
            np.conjugate(mirror, out=view[..., half + 1 :])
        else:
            np.conjugate(spectrum, out=view[..., : half + 1])
            view[..., half + 1 :] = mirror
    elif _is_hermitian(view, half):
        # A Hermitian branch transforms to a real one from its entries 0..N/2. irfft's
        # e^{+2 pi i jk/N} is the forward QFT; the inverse transforms the conjugate.
        lower = view[..., : half + 1]
        np.fft.irfft(lower.conj() if inverse else lower, n=2 * half, axis=-1, norm="ortho", out=view.real)
        view.imag[...] = 0.0
    else:
        # The e^{+2 pi i jk/N} convention makes the forward QFT numpy's ifft.
        transform = np.fft.fft if inverse else np.fft.ifft
        transform(view, axis=-1, norm="ortho", out=view)
    state.gate_count += m * (m + 1) // 2 + m // 2
    return state


def _is_hermitian(view: np.ndarray, half: int) -> bool:
    """Whether every row of ``view`` is bitwise Hermitian: entries 0 and N/2 real, entry N - k the conjugate of k."""
    lower, upper = view[..., 1:half], view[..., : half : -1]
    return not (
        view.imag[..., 0].any()
        or view.imag[..., half].any()
        or (lower.real != upper.real).any()
        or (lower.imag + upper.imag).any()
    )


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

    ``c`` and ``s`` are the cosine and sine of half the Rx angle of each
    k <= N/2, mirrored above N/2 (``c`` even and ``s`` odd). They depend on the k width alone, so they are built once per process for
    each width, and the unitarity check runs here, on the arrays every later
    call reads.
    """
    phi = _rotation_turns(n) * math.pi
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    # Above N/2 the factors mirror those below, c even and s odd in k, so the rotation
    # keeps a Hermitian spectrum Hermitian bit for bit; sin(-pi) reads -1.2e-16, not 0.
    half = 1 << (n - 1)
    s[half] = 0.0
    c[half + 1 :] = c[half - 1 : 0 : -1]
    s[half + 1 :] = -s[half - 1 : 0 : -1]
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
