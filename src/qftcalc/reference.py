"""Independent oracles that ``validate`` (:mod:`qftcalc.checks`) and the tests replay against the run path.

A run executes each layer as one fast kernel; no run imports this module,
which keeps the paper's circuits and matrices:
- the gate payloads and :func:`branch_controls`, for ``state.apply_gate``;
- :func:`qft_gate_sequence`, the gate-level circuit of ``spectral.qft``;
- :func:`rotation_angles` and :func:`reconstructed_rotation`, the exact
  controlled-Rx cascade of ``spectral.wavenumber_rotation``;
- :func:`summation_svd`, :func:`block_encode_dimension` and
  :func:`materialise`, the dense ``U_H`` of ``psmpo.BlockEncoding``, and
  :func:`summation_eigenpairs`, which holds ``BlockEncoding.half`` to Yueh's
  closed forms at any width;
- :func:`exact_stencils`, both pipelines' stencils computed exactly and
  rounded once, the reference of the accuracy ledger.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .psmpo import BLOCK_TOL, BlockEncoding, _factored_weights, _singular_values, spectral_norm
from .state import RegisterLayout

__all__ = [
    "hadamard",
    "pauli_x",
    "phase_gate",
    "rx_gate",
    "swap_gate",
    "qft_gate_sequence",
    "branch_controls",
    "rotation_angles",
    "reconstructed_rotation",
    "summation_svd",
    "block_encode_dimension",
    "materialise",
    "summation_eigenpairs",
    "exact_stencils",
]


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


def qft_gate_sequence(qubits: tuple[int, ...], inverse: bool):
    """Yield (payload, targets, controls) for the QFT on ``qubits``, gate by gate.

    The oracle that the tests replay against :func:`qftcalc.spectral.qft`.
    ``qubits`` are ordered least significant first. Controlled-phase gates
    are emitted as single-qubit phase payloads with a control, so an outer
    control can always be stacked on top.
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


def branch_controls(layout: RegisterLayout, branch: Mapping[str, int]) -> tuple[tuple[int, int], ...]:
    """One ``(qubit, bit)`` gate control per qubit of each register ``branch`` fixes, with its bit of the value."""
    return tuple((q, v >> i & 1) for r, v in branch.items() for i, q in enumerate(layout.qubits(r)))


def rotation_angles(n: int) -> tuple[Fraction, ...]:
    """Controlled-Rx angles of the cascade on an ``n``-qubit k register, as exact multiples of pi.

    ``angles[p]`` is the Rx argument controlled by the k-register qubit of
    significance ``p``: ``-2^(p-n+2)``, i.e. minus twice the rotation
    ``theta_p = 2^(p-n+1) pi`` that the Rx convention requires.
    """
    if n < 1:
        raise ValueError("the cascade needs at least one k-register qubit")
    return tuple(Fraction(-(1 << (p + 2)), 1 << n) for p in range(n))


def reconstructed_rotation(angles: tuple[Fraction, ...], k: int) -> Fraction:
    """Total rotation theta_k (in units of pi) accumulated for spectrum index k.

    Summing the per-qubit rotations over the set bits of ``k`` must give
    ``2 k / 2^n`` exactly; this is the invariant the validation suite checks.
    """
    total = Fraction(0)
    for p, angle in enumerate(angles):
        if (k >> p) & 1:
            total += -angle / 2
    return total


def summation_svd(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form SVD ``S = U diag(sigma) V^T`` of the N x N summation matrix.

    Returns ``(U, sigma, V^T)`` with ``sigma`` in descending order, as in the
    :mod:`qftcalc.psmpo` docstring.
    """
    if N < 1:
        raise ValueError("dimension must be >= 1")
    theta = (2 * np.arange(1, N + 1) - 1) * np.pi / (2 * N + 1)
    s = _singular_values(N)
    u = np.sin(np.outer(np.arange(1, N + 1), theta))
    u /= np.linalg.norm(u, axis=0)
    vt = (u.T @ np.tril(np.ones((N, N)))) / s[:, None]
    return u, s, vt


def block_encode_dimension(N: int) -> tuple[np.ndarray, float]:
    """Construct the dense ``(U_H, eta)`` for an N x N summation operator.

    The independent oracle for :class:`qftcalc.psmpo.BlockEncoding`: it
    follows the closed-form SVD and Hermitian dilation of the
    :mod:`qftcalc.psmpo` docstring with dense matrices. ``sigma^2/eta^2`` is
    clamped to [0, 1] before the square root so round-off at the extreme
    singular value cannot produce NaNs.
    """
    u, s, vt = summation_svd(N)
    v = vt.T
    dense = np.tril(np.ones((N, N)))
    eta = spectral_norm(N)
    g = np.sqrt(np.clip(1.0 - (s / eta) ** 2, 0.0, 1.0))
    zeros = np.zeros((N, N))
    a = np.block([[zeros, dense.T], [dense, zeros]]) / eta
    c = np.block([[(v * g) @ v.T, zeros], [zeros, (u * g) @ u.T]])
    unitary = np.block([[a, c], [c, -a]])
    defect = float(np.max(np.abs(unitary.T @ unitary - np.eye(4 * N))))
    if defect > BLOCK_TOL:
        raise RuntimeError(f"constructed U_H deviates from orthogonality by {defect:.3e}")
    return unitary, eta


def materialise(enc: BlockEncoding) -> np.ndarray:
    """``U_H`` of ``enc`` as a read-only real 4N x 4N matrix, built column by column by ``enc.apply``.

    The columns go through ``apply`` N at a time, one (b, c) block each,
    which bounds the FFT work arrays at a quarter of a single batch.
    """
    N = enc.dimension
    dim = 4 * N
    blocks = [enc.apply(np.eye(N, dim, b * N).reshape(N, 2, 2, N)).reshape(N, dim) for b in range(4)]
    matrix = np.concatenate(blocks).T
    imaginary = float(np.max(np.abs(matrix.imag)))
    if imaginary > BLOCK_TOL:
        raise RuntimeError(f"materialised U_H has an imaginary part of {imaginary:.3e}")
    real = np.ascontiguousarray(matrix.real)
    real.setflags(write=False)
    return real


def summation_eigenpairs(N: int, ks: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Yueh's closed-form singular triplets of the N x N summation matrix, with their completion weights.

    For each 1-based ``k`` in ``ks``, with ``M = 2N+1`` and
    ``theta_k = (2k-1) pi / M``, row ``i`` of ``u`` and ``v`` holds the unit
    vectors ``u_k(j) = 2/sqrt(M) sin((j+1) theta_k)`` and
    ``v_k(j) = 2/sqrt(M) cos((j+1/2) theta_k)``, and ``sigma[i]`` and
    ``g[i]`` are ``sigma_k = 1 / (2 sin(theta_k / 2))`` and the factored
    weight ``g_k = sqrt(sin((theta_k-theta_1)/2) sin((theta_k+theta_1)/2)) /
    sin(theta_k/2)``. So ``S v_k = sigma_k u_k`` and ``C_V v_k = g_k v_k``:
    ``half(v_k) = (sigma_k/eta u_k, g_k v_k)``. Each vector costs O(N).
    """
    k = np.asarray(ks)
    M = 2 * N + 1
    theta = ((2 * k - 1) * np.pi / M)[:, None]
    j = np.arange(N)
    u = 2 / math.sqrt(M) * np.sin((j + 1) * theta)
    v = 2 / math.sqrt(M) * np.cos((j + 0.5) * theta)
    return u, v, _singular_values(N)[k - 1], _factored_weights(N)[k - 1]


def exact_stencils(samples: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """The periodic central difference and the cumulative trapezoid of float samples, each correctly rounded.

    The exact twins of :func:`qftcalc.oracles.central_difference_periodic`
    and :func:`qftcalc.oracles.trapezoid_partial_sums`, computed in dyadic
    integers rather than one ``Fraction`` per element: sample j is
    ``I_j 2^E`` with one exponent ``E`` and a Python integer ``I_j``, and
    ``dx`` is ``D 2^e``. The differences ``I_{j+1} - I_{j-1}`` and the
    running sums of ``I_{j+1} + I_{j-1}`` are exact, and each output is
    rounded to float once, by Python's correctly rounded integer division.
    """
    samples = np.asarray(samples, dtype=float)
    mantissas, exponents = np.frexp(samples)
    low = int(exponents.min())
    ints = np.ldexp(mantissas, 53).astype(np.int64).astype(object) << (exponents - low).astype(object)
    scale = low - 53  # sample j is ints[j] * 2^scale
    d_mantissa, d_exponent = math.frexp(dx)
    d_int, d_scale = int(math.ldexp(d_mantissa, 53)), d_exponent - 53  # dx = d_int * 2^d_scale
    ahead, behind = np.roll(ints, -1), np.roll(ints, 1)
    # (f_{j+1} - f_{j-1}) / (2 dx) and dx * sum_{i<=j} (f_{i+1} + f_{i-1}) / 2.
    central = _rounded(ahead - behind, d_int, scale - 1 - d_scale)
    trapezoid = _rounded(np.cumsum(ahead + behind) * d_int, 1, scale - 1 + d_scale)
    return central, trapezoid


def _rounded(numerators: np.ndarray, denominator: int, exponent: int) -> np.ndarray:
    """``numerators * 2^exponent / denominator`` over an object array of integers, each rounded to float once."""
    if exponent >= 0:
        return ((numerators << exponent) / denominator).astype(float)
    return (numerators / (denominator << -exponent)).astype(float)
