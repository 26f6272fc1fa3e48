"""Block encoding of the cumulative-sum operator.

The unit lower-triangular matrix ``S`` (ones on and below the diagonal) turns a
vector of section areas into running totals. It is not unitary, so it is
embedded in the real symmetric ``H = [[0, S^T], [S, 0]]`` and then in a unitary
dilation whose top-left block is ``H/eta``.

``S`` has a closed-form SVD ``S = U diag(sigma) V^T``: ``(S S^T)^-1`` is the
tridiagonal matrix with 2 on the diagonal (1 in the last entry) and -1 beside
it, whose eigenpairs are known (Yueh, "Eigenvalues of several tridiagonal
matrices", AMEN 2005). With ``M = 2N+1`` and ``theta_k = (2k-1) pi / M``,
k = 1..N::

    sigma_k = 1 / (2 sin(theta_k / 2)),     eta = sigma_1,
    u_k(j) = 2/sqrt(M) sin((j+1) theta_k),  v_k(j) = 2/sqrt(M) cos((j+1/2) theta_k),

the cosines being the suffix sums of the sines (``v_k = S^T u_k / sigma_k``);
both bases have norm ``2/sqrt(M)`` since ``sum sin^2 = sum cos^2 = M/4``.

With ``A = H/eta`` and ``C = sqrt(I - A^2) = blockdiag(C_V, C_U)``,
``C_V = V g V^T``, ``C_U = U g U^T``, ``g = sqrt(1 - sigma^2/eta^2)``, ``A``
and ``C`` commute, so the Hermitian dilation ``U_H = [[A, C], [C, -A]]`` is a
symmetric orthogonal involution (Gilyen, Su, Low & Wiebe, "Quantum singular
value transformation and beyond", STOC 2019). ``S/eta`` is the lower-left
block of ``A``, which fixes ``SUCCESS_PREFIX``.

``U_H`` is never built on the pipeline path. :func:`apply_partial_sum`
takes its operand from :func:`qftcalc.state._operand`: the controlled branch
with the b, c and k qubits as its last axes, read as ``(..., 2, 2, N)``. On
an operand whose index is ``k + N c + 2N b`` it maps the four (b, c) blocks
to::

    y00 = S^T x01 / eta + C_V x10        y10 = C_V x00 - S^T x11 / eta
    y01 = S x00 / eta   + C_U x11        y11 = C_U x01 - S x10 / eta

``S`` and ``S^T`` are prefix and suffix sums. ``C_U = (4/M) T g T^T`` with
the sine basis ``T[m, k] = sin(m (2k-1) pi / M)``, so ``T^T`` and ``T`` are
sine sums, each one numpy FFT of length 2M (Makhoul, "A fast cosine transform
in one and two dimensions", IEEE TASSP 1980). The amplitudes are complex, so
the sums are read two-sided, ``(W[-q] - W[q]) / 2i``. ``C_V`` needs no
transform of its own: ``C_U S = U g sigma V^T = S C_V``, so
``C_V = S^-1 C_U S``, where ``S^-1`` is a first difference and ``S x00`` is
the prefix sum the success block needs anyway. One apply costs O(N log N) and
holds O(N) weights. numpy's FFT, not scipy's, keeps scipy out of
``import qftcalc.cli``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import SUCCESS_BIT
from .state import Statevector, _operand

__all__ = [
    "BLOCK_TOL",
    "SUCCESS_PREFIX",
    "BlockEncoding",
    "spectral_norm",
    "summation_svd",
    "block_encode_dimension",
    "build_block_encoding",
    "apply_partial_sum",
]

# Orthogonality tolerance for constructed encodings.
BLOCK_TOL = 1e-10
# Largest k register with an encoding: the FFT length 2(2N+1) is not a power
# of two, so past n_k = 12 the build and the apply need measuring.
MAX_N_K = 12
# The (a, b, c) bits of the output block that carries ``S @ A / eta``: S/eta
# is the lower-left block of H/eta, row block (b, c) = (0, 1) of the first
# block column, on the ancilla branch where the rotation cascade leaves the
# result.
SUCCESS_PREFIX = (SUCCESS_BIT, 0, 1)


def _sine_sum(x: np.ndarray, slots: np.ndarray, bins: np.ndarray, length: int) -> np.ndarray:
    """``sum_p x[..., p] sin(2 pi slots[p] bins[q] / length)`` for every q, by one FFT.

    With ``x`` placed at ``slots`` of a zero array ``z`` and ``W = fft(z)``,
    the sum is ``(W[-q] - W[q]) / 2i``; ``bins`` must lie in 1..length-1.
    """
    z = np.zeros(x.shape[:-1] + (length,), dtype=complex)
    z[..., slots] = x
    w = np.fft.fft(z, axis=-1)
    return (w[..., -bins] - w[..., bins]) / 2j


@dataclass(frozen=True)
class BlockEncoding:
    """Matrix-free unitary embedding of the summation operator for an ``n_k``-qubit register.

    ``weights`` holds ``g``, the N completion weights of ``C`` in the module
    docstring. They fix everything else: ``dimension`` is N and ``eta`` is
    ``spectral_norm(N)``. The output block that carries ``S @ A / eta`` is at
    ``SUCCESS_PREFIX``.
    """

    weights: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.weights)

    @property
    def eta(self) -> float:
        return spectral_norm(self.dimension)

    def apply(self, operand: np.ndarray) -> np.ndarray:
        """``U_H`` applied to ``operand`` of shape ``(..., 2, 2, N)``, indexed ``[..., b, c, k]``."""
        N = self.dimension
        M = 2 * N + 1
        natural = np.arange(1, N + 1)
        odd = 2 * natural - 1
        c0, c1 = operand[..., 0, :], operand[..., 1, :]  # each (..., 2, N), indexed by b
        prefix = np.cumsum(c0, axis=-1)  # S c0
        # C_U on S c0 and c1 in one batch; C_V c0 = S^-1 C_U S c0 is a first difference.
        both = np.stack((prefix, c1))
        cu_prefix, cu = _sine_sum(self.weights * _sine_sum(both, natural, odd, 2 * M), odd, natural, 2 * M) * (4 / M)
        cv = np.diff(cu_prefix, axis=-1, prepend=0)
        eta = self.eta
        s = prefix / eta
        st = np.cumsum(c1[..., ::-1], axis=-1)[..., ::-1] / eta  # S^T: suffix sums
        out = np.empty(operand.shape, dtype=complex)
        out[..., 0, 0, :] = st[..., 0, :] + cv[..., 1, :]
        out[..., 0, 1, :] = s[..., 0, :] + cu[..., 1, :]
        out[..., 1, 0, :] = cv[..., 0, :] - st[..., 1, :]
        out[..., 1, 1, :] = cu[..., 0, :] - s[..., 1, :]
        return out

    @property
    def unitary(self) -> np.ndarray:
        """``U_H`` as a read-only real 4N x 4N matrix, built column by column by :meth:`apply`.

        For tests and the validation suite; the pipeline never builds it. The
        columns go through :meth:`apply` N at a time, one (b, c) block each,
        which bounds the FFT work arrays at a quarter of a single batch.
        """
        N = self.dimension
        dim = 4 * N
        blocks = [self.apply(np.eye(N, dim, b * N).reshape(N, 2, 2, N)).reshape(N, dim) for b in range(4)]
        matrix = np.concatenate(blocks).T
        imaginary = float(np.max(np.abs(matrix.imag)))
        if imaginary > BLOCK_TOL:
            raise RuntimeError(f"materialised U_H has an imaginary part of {imaginary:.3e}")
        real = np.ascontiguousarray(matrix.real)
        real.setflags(write=False)
        return real


def spectral_norm(N: int) -> float:
    """Largest singular value of the N x N unit lower-triangular matrix (closed form)."""
    if N < 1:
        raise ValueError("dimension must be >= 1")
    if N == 1:
        return 1.0
    return 1.0 / (2.0 * math.sin(math.pi / (2 * (2 * N + 1))))


def _singular_values(N: int) -> np.ndarray:
    """``sigma_k`` of the module docstring, in descending order."""
    theta = (2 * np.arange(1, N + 1) - 1) * np.pi / (2 * N + 1)
    return 0.5 / np.sin(theta / 2)


def _completion_weights(N: int, eta: float) -> np.ndarray:
    """``g = sqrt(1 - sigma^2/eta^2)``, clamped so round-off at sigma_1 cannot give NaN."""
    return np.sqrt(np.clip(1.0 - (_singular_values(N) / eta) ** 2, 0.0, 1.0))


def summation_svd(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form SVD ``S = U diag(sigma) V^T`` of the N x N summation matrix.

    Returns ``(U, sigma, V^T)`` with ``sigma`` in descending order, as in the
    module docstring.
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

    The independent oracle for :class:`BlockEncoding`: it follows the
    closed-form SVD and Hermitian dilation in the module docstring with dense
    matrices. ``sigma^2/eta^2`` is clamped to [0, 1] before the square root
    so round-off at the extreme singular value cannot produce NaNs.
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


@functools.cache
def build_block_encoding(n_k: int) -> BlockEncoding:
    """Build (or fetch) the block encoding for an ``n_k``-qubit register.

    ``U_H`` is a symmetric orthogonal involution, so the build applies it to a
    fixed seeded probe and raises ``RuntimeError`` unless the norm is kept and
    a second application returns the probe, both to ``BLOCK_TOL``.
    Encodings are memoized per process; a width that raises is not.
    """
    if not 1 <= n_k <= MAX_N_K:
        raise ValueError(f"n_k must lie in 1..{MAX_N_K}")
    N = 1 << n_k
    weights = _completion_weights(N, spectral_norm(N))
    weights.setflags(write=False)
    enc = BlockEncoding(weights)
    rng = np.random.default_rng(0)
    probe = rng.normal(size=(2, 2, N)) + 1j * rng.normal(size=(2, 2, N))
    # Plain numpy norms: np.linalg.norm is a BLAS dot, which wakes the thread pool.
    probe /= np.sqrt(np.sum(np.abs(probe) ** 2))
    image = enc.apply(probe)
    norm_defect = abs(np.sqrt(np.sum(np.abs(image) ** 2)) - 1.0)
    defect = max(norm_defect, float(np.max(np.abs(enc.apply(image) - probe))))
    if defect > BLOCK_TOL:
        raise RuntimeError(f"U_H is not an orthogonal involution: defect {defect:.3e} on the probe")
    return enc


def apply_partial_sum(state: Statevector, control: tuple[int, int]) -> Statevector:
    """Apply the encoded summation to the (b, c, k) registers under a control.

    The encoding is :func:`build_block_encoding` for the width of the k
    register. The b and c registers must still be in |0>: unless every
    amplitude off the b = c = 0 block is exactly zero, ``ValueError`` is
    raised and the state is left untouched. On the controlled branch the
    amplitudes at ``SUCCESS_PREFIX`` become ``S @ A / eta`` for the incoming
    k-register coefficients A; everything else is untouched. One gate.
    """
    layout = state.layout
    k_qubits = layout.qubits("k")
    enc = build_block_encoding(len(k_qubits))
    (b_qubit,) = layout.qubits("b")
    (c_qubit,) = layout.qubits("c")
    if control[1] != SUCCESS_PREFIX[0]:
        raise ValueError("control polarity does not match the success prefix")
    operand = (b_qubit, c_qubit, *k_qubits[::-1])  # last axes read [b, c, k]
    view = _operand(state, operand, (control,))
    # Off the b = c = 0 block: b = 1, or b = 0 with c = 1.
    off_block = (((b_qubit, 1),), ((b_qubit, 0), (c_qubit, 1)))
    if any(_operand(state, (), fixed).any() for fixed in off_block):
        raise ValueError("registers b/c are not in |0>: amplitude off the b = c = 0 block is non-zero")
    view[...] = enc.apply(view.reshape(*view.shape[: -len(operand)], 2, 2, enc.dimension)).reshape(view.shape)
    state.gate_count += 1
    return state
