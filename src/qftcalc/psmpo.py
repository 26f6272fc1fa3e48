"""Block encoding of the cumulative-sum operator.

The unit lower-triangular matrix ``S`` (ones on and below the diagonal) turns a
vector of section areas into running totals. It is not unitary, so it is
embedded in the real symmetric ``H = [[0, S^T], [S, 0]]`` and then in a unitary
dilation whose top-left block is ``H/eta``.

``S`` has a closed-form SVD ``S = U diag(sigma) V^T``: ``(S S^T)^-1`` is the
tridiagonal matrix with 2 on the diagonal (1 in the last entry) and -1 beside
it, whose eigenpairs are known (Yueh, "Eigenvalues of several tridiagonal
matrices", AMEN 2005). With ``theta_k = (2k-1) pi / (2N+1)``, k = 1..N::

    sigma_k = 1 / (2 sin(theta_k / 2)),   u_k(j) ~ sin((j+1) theta_k),
    v_k = S^T u_k / sigma_k,              eta = sigma_1.

With ``A = H/eta`` and ``C = sqrt(I - A^2) = blockdiag(V g V^T, U g U^T)``,
``g = sqrt(1 - sigma^2/eta^2)``, ``A`` and ``C`` commute, so the Hermitian
dilation ``U_H = [[A, C], [C, -A]]`` is orthogonal (Gilyen, Su, Low & Wiebe,
"Quantum singular value transformation and beyond", STOC 2019). ``S/eta`` is
the lower-left block of ``A``, which fixes the success prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import Statevector, _branch, apply_register_unitary

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

_memo: dict[int, "BlockEncoding"] = {}


@dataclass(frozen=True)
class PartialSumMatrix:
    """The N x N unit lower-triangular summation operator, held implicitly."""

    dimension: int

    def dense(self) -> np.ndarray:
        return np.tril(np.ones((self.dimension, self.dimension)))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return np.cumsum(v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Transpose action: suffix sums."""
        return np.cumsum(v[::-1])[::-1]


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary embedding of the summation operator for an ``n_k``-qubit register.

    ``unitary`` is the 4N x 4N real matrix whose top-left 2N x 2N block equals
    ``H/eta``; ``success_prefix`` is the (a, b, c) bit pattern marking the
    output block that carries ``S @ A / eta``, assuming the summation gate is
    controlled on the ancilla's success polarity.
    """

    unitary: np.ndarray
    eta: float
    n_k: int
    success_prefix: tuple[int, int, int]

    @property
    def dimension(self) -> int:
        return 1 << self.n_k


def spectral_norm(N: int) -> float:
    """Largest singular value of the N x N unit lower-triangular matrix (closed form)."""
    if N < 1:
        raise ValueError("dimension must be >= 1")
    if N == 1:
        return 1.0
    return 1.0 / (2.0 * math.sin(math.pi / (2 * (2 * N + 1))))


def summation_svd(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form SVD ``S = U diag(sigma) V^T`` of the N x N summation matrix.

    Returns ``(U, sigma, V^T)`` with ``sigma`` in descending order, as in the
    module docstring.
    """
    if N < 1:
        raise ValueError("dimension must be >= 1")
    theta = (2 * np.arange(1, N + 1) - 1) * np.pi / (2 * N + 1)
    s = 0.5 / np.sin(theta / 2)
    u = np.sin(np.outer(np.arange(1, N + 1), theta))
    u /= np.linalg.norm(u, axis=0)
    vt = (u.T @ PartialSumMatrix(N).dense()) / s[:, None]
    return u, s, vt


def block_encode_dimension(N: int) -> tuple[np.ndarray, float]:
    """Construct ``(U_H, eta)`` for an N x N summation operator.

    Follows the closed-form SVD and Hermitian dilation in the module
    docstring. ``sigma^2/eta^2`` is clamped to [0, 1] before the square root
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

    Encodings are memoized per process.
    """
    if not 1 <= n_k <= 8:
        raise ValueError("n_k must lie in 1..8 (dense construction budget)")
    if n_k in _memo:
        return _memo[n_k]
    unitary, eta = block_encode_dimension(1 << n_k)
    unitary.setflags(write=False)
    # S/eta is the lower-left block of H/eta, i.e. row block (b, c) = (0, 1) of
    # the first block column; the rotation cascade leaves the wanted branch on
    # ancilla 1.
    enc = BlockEncoding(unitary=unitary, eta=eta, n_k=n_k, success_prefix=(1, 0, 1))
    _memo[n_k] = enc
    return enc


def apply_partial_sum(
    state: Statevector, enc: BlockEncoding, control: tuple[int, int]
) -> Statevector:
    """Apply the encoded summation to the (b, c, k) registers under a control.

    The b and c registers must still be in |0>; on the controlled branch the
    amplitudes at the encoding's success prefix become ``S @ A / eta`` for the
    incoming k-register coefficients A. Everything off the controlled branch is
    untouched.
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
    # Off the b = c = 0 block: b = 1, or b = 0 with c = 1.
    off_block = (((b_qubit, 1),), ((b_qubit, 0), (c_qubit, 1)))
    residual = max(float(np.max(np.abs(_branch(state, fixed)))) for fixed in off_block)
    if residual > ANCILLA_ZERO_TOL:
        raise ValueError(
            f"registers b/c are not in |0>: residual amplitude {residual:.3e}"
        )
    operand = tuple(k_qubits) + (c_qubit, b_qubit)
    return apply_register_unitary(state, enc.unitary, operand, control=control)
