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
block of ``A``, which fixes the success prefix.

``U_H`` is never built on the pipeline path. On an operand whose index is
``k + N c + 2N b`` it maps the four (b, c) blocks to::

    y00 = S^T x01 / eta + C_V x10        y10 = C_V x00 - S^T x11 / eta
    y01 = S x00 / eta   + C_U x11        y11 = C_U x01 - S x10 / eta

``S`` and ``S^T`` are prefix and suffix sums. The bases are trigonometric
transforms (Makhoul, "A fast cosine transform in one and two dimensions",
IEEE TASSP 1980), each one numpy FFT: ``C_V = (4/M) T g T`` with the symmetric
``T[j, k] = cos((2j+1)(2k+1) pi / (2M))``, an FFT of length 4M with the input
at odd slots read at odd bins; ``U^T`` and ``U`` are sine sums
``sum_m x_m sin(m (2k-1) pi / M)``, an FFT of length 2M. The amplitudes are
complex, so the sums are read two-sided, ``(W[q] + W[-q]) / 2`` and
``(W[-q] - W[q]) / 2i``. One apply costs O(N log N) and holds O(N) weights.
numpy's FFT, not scipy's, keeps scipy out of ``import qftcalc.cli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import Statevector, _branch

__all__ = [
    "BLOCK_TOL",
    "PartialSumMatrix",
    "BlockEncoding",
    "spectral_norm",
    "summation_svd",
    "block_encode_dimension",
    "build_block_encoding",
    "apply_partial_sum",
]

# Orthogonality tolerance for constructed encodings.
BLOCK_TOL = 1e-10
# Residual amplitude allowed on the b/c registers before the summation gate.
ANCILLA_ZERO_TOL = 1e-10
# Largest k register with an encoding: FFT lengths 2(2N+1) and 4(2N+1) are
# not powers of two, so past n_k = 12 the build and the apply need measuring.
MAX_N_K = 12

_memo: dict[int, "BlockEncoding"] = {}


@dataclass(frozen=True)
class PartialSumMatrix:
    """The N x N unit lower-triangular summation operator, held implicitly.

    ``matvec`` and ``rmatvec`` act along the last axis of their argument.
    """

    dimension: int

    def dense(self) -> np.ndarray:
        return np.tril(np.ones((self.dimension, self.dimension)))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return np.cumsum(v, axis=-1)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Transpose action: suffix sums."""
        return np.cumsum(v[..., ::-1], axis=-1)[..., ::-1]


def _trig_sum(x: np.ndarray, slots: np.ndarray, bins: np.ndarray, length: int, sine: bool) -> np.ndarray:
    """``sum_p x[..., p] trig(2 pi slots[p] bins[q] / length)`` for every q, by one FFT.

    With ``x`` placed at ``slots`` of a zero array ``z`` and
    ``W = fft(z)``, the cosine sum is ``(W[q] + W[-q]) / 2`` and the sine sum
    ``(W[-q] - W[q]) / 2i``; ``bins`` must lie in 1..length-1.
    """
    z = np.zeros(x.shape[:-1] + (length,), dtype=complex)
    z[..., slots] = x
    w = np.fft.fft(z, axis=-1)
    if sine:
        return (w[..., -bins] - w[..., bins]) / 2j
    return (w[..., bins] + w[..., -bins]) / 2


@dataclass(frozen=True)
class BlockEncoding:
    """Matrix-free unitary embedding of the summation operator for an ``n_k``-qubit register.

    ``weights`` holds ``g``, the N completion weights of ``C`` in the module
    docstring; ``success_prefix`` is the (a, b, c) bit pattern marking the
    output block that carries ``S @ A / eta``, assuming the summation gate is
    controlled on the ancilla's success polarity.
    """

    weights: np.ndarray
    eta: float
    n_k: int
    success_prefix: tuple[int, int, int]

    @property
    def dimension(self) -> int:
        return 1 << self.n_k

    def apply(self, operand: np.ndarray) -> np.ndarray:
        """``U_H`` applied to ``operand`` of shape ``(..., 2, 2, N)``, indexed ``[..., b, c, k]``."""
        N = self.dimension
        M = 2 * N + 1
        odd = 2 * np.arange(N) + 1
        natural = np.arange(1, N + 1)
        c0, c1 = operand[..., 0, :], operand[..., 1, :]  # each (..., 2, N), indexed by b
        cv = _trig_sum(self.weights * _trig_sum(c0, odd, odd, 4 * M, False), odd, odd, 4 * M, False) * (4 / M)
        cu = _trig_sum(self.weights * _trig_sum(c1, natural, odd, 2 * M, True), odd, natural, 2 * M, True) * (4 / M)
        s = PartialSumMatrix(N).matvec(c0) / self.eta
        st = PartialSumMatrix(N).rmatvec(c1) / self.eta
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
    vt = (u.T @ PartialSumMatrix(N).dense()) / s[:, None]
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
    dense = PartialSumMatrix(N).dense()
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


def build_block_encoding(n_k: int) -> BlockEncoding:
    """Build (or fetch) the block encoding for an ``n_k``-qubit register.

    ``U_H`` is a symmetric orthogonal involution, so the build applies it to a
    fixed seeded probe and raises ``RuntimeError`` unless the norm is kept and
    a second application returns the probe, both to ``BLOCK_TOL``.
    Encodings are memoized per process.
    """
    if not 1 <= n_k <= MAX_N_K:
        raise ValueError(f"n_k must lie in 1..{MAX_N_K}")
    if n_k in _memo:
        return _memo[n_k]
    N = 1 << n_k
    eta = spectral_norm(N)
    weights = _completion_weights(N, eta)
    weights.setflags(write=False)
    # S/eta is the lower-left block of H/eta, i.e. row block (b, c) = (0, 1) of
    # the first block column; the rotation cascade leaves the wanted branch on
    # ancilla 1.
    enc = BlockEncoding(weights=weights, eta=eta, n_k=n_k, success_prefix=(1, 0, 1))
    rng = np.random.default_rng(0)
    probe = rng.normal(size=(2, 2, N)) + 1j * rng.normal(size=(2, 2, N))
    probe /= np.linalg.norm(probe)
    image = enc.apply(probe)
    defect = max(abs(np.linalg.norm(image) - 1.0), float(np.max(np.abs(enc.apply(image) - probe))))
    if defect > BLOCK_TOL:
        raise RuntimeError(f"U_H is not an orthogonal involution: defect {defect:.3e} on the probe")
    _memo[n_k] = enc
    return enc


def apply_partial_sum(
    state: Statevector, enc: BlockEncoding, control: tuple[int, int]
) -> Statevector:
    """Apply the encoded summation to the (b, c, k) registers under a control.

    The b and c registers must still be in |0>; on the controlled branch the
    amplitudes at the encoding's success prefix become ``S @ A / eta`` for the
    incoming k-register coefficients A. Everything off the controlled branch is
    untouched. Counts as one gate.
    """
    layout = state.layout
    k_qubits = layout.qubits("k")
    if len(k_qubits) != enc.n_k:
        raise ValueError(f"encoding built for {enc.n_k} qubits, k register has {len(k_qubits)}")
    (b_qubit,) = layout.qubits("b")
    (c_qubit,) = layout.qubits("c")
    if control[1] != enc.success_prefix[0]:
        raise ValueError(
            "control polarity does not match the encoding's success prefix"
        )
    operand = (b_qubit, c_qubit, *k_qubits[::-1])  # most significant first
    if control[0] in operand or not 0 <= control[0] < state.n_qubits:
        raise ValueError(f"control qubit {control[0]} is out of range or inside the operand")
    # Off the b = c = 0 block: b = 1, or b = 0 with c = 1.
    off_block = (((b_qubit, 1),), ((b_qubit, 0), (c_qubit, 1)))
    residual = max(float(np.max(np.abs(_branch(state, fixed)))) for fixed in off_block)
    if residual > ANCILLA_ZERO_TOL:
        raise ValueError(
            f"registers b/c are not in |0>: residual amplitude {residual:.3e}"
        )
    # The branch's axes are its free qubits, most significant first; move the
    # operand's to the end so the last axes read [b, c, k].
    free = [q for q in range(state.n_qubits - 1, -1, -1) if q != control[0]]
    view = np.moveaxis(
        _branch(state, (control,)), [free.index(q) for q in operand], range(-len(operand), 0)
    )
    view[...] = enc.apply(view.reshape(view.shape[: -len(operand)] + (2, 2, enc.dimension))).reshape(view.shape)
    state.gate_count += 1
    return state
