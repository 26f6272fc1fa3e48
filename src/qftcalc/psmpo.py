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
block of ``A``, which fixes ``SUCCESS_BLOCK``, the (b, c) block
``{"b": 0, "c": 1}`` where ``U_H`` puts ``S x / eta``.

``U_H`` is never built as a matrix. On an operand of shape
``(..., 2, 2, N)`` whose index is ``k + N c + 2N b`` it maps the four
(b, c) blocks to::

    y00 = S^T x01 / eta + C_V x10        y10 = C_V x00 - S^T x11 / eta
    y01 = S x00 / eta   + C_U x11        y11 = C_U x01 - S x10 / eta

Two primitive maps make all four. :meth:`BlockEncoding.half` is where
``U_H`` sends a c = 0 block, ``half(x) = (S x / eta, C_V x)``. ``S x`` is a
prefix sum. ``C_U = (4/M) T g T^T`` with the sine basis
``T[m, k] = sin(m (2k-1) pi / M)``, so ``T^T`` and ``T`` are sine sums, each
one numpy FFT of length 2M (Makhoul, "A fast cosine transform in one and two
dimensions", IEEE TASSP 1980), read two-sided, ``(W[-q] - W[q]) / 2i``, as
the amplitudes are complex. ``C_U S = U g sigma V^T = S C_V``, so
``C_V x = S^-1 C_U S x`` is the first difference of ``C_U`` on the prefix
sum. The c = 1 blocks need no map of their own. With ``J`` the k reversal
``j -> N-1-j``, ``J S J = S^T``, and ``J u_k = (-1)^(k+1) v_k`` since
``sin((N-j) theta_k) = (-1)^(k+1) cos((j+1/2) theta_k)``, so
``J C_U J = C_V``; hence ``(S^T x / eta, C_U x) = J half(J x)``.
:meth:`BlockEncoding.apply` sends the c = 0 blocks and the reversed c = 1
blocks through one stacked ``half`` call. :func:`apply_partial_sum` calls
``half`` on the b = c = 0 block alone, the only one a pipeline populates,
each block a view of the state with k last (:func:`qftcalc.state._branch`).
One apply costs O(N log N) through numpy's FFT (numpy is the package's
only runtime dependency) and holds O(N) weights. The build's chirp probe
keeps ``numpy.random`` out of an exact run.

Encodings are built for k registers of up to ``spectral.MAX_QUBITS`` (16)
qubits, the cap QFTD has too. The length 2M is not a power of two, and at
some widths numpy's FFT falls back to Bluestein's algorithm (2M = 2*3*2731
at n_k = 12), so the cap rests on measurement: the README tabulates the
cold build, QFTI run times and peak memory at n_k = 13..16.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .spectral import MAX_QUBITS
from .state import Statevector, _branch

__all__ = [
    "BLOCK_TOL",
    "WEIGHT_TOL",
    "SUCCESS_BLOCK",
    "BlockEncoding",
    "spectral_norm",
    "build_block_encoding",
    "apply_partial_sum",
]

# Orthogonality tolerance for constructed encodings.
BLOCK_TOL = 1e-10
# Largest |g - g_factored| a build accepts; the two closed forms agree to 2 ulps at n_k = 1..16.
WEIGHT_TOL = 1e-13
# The (b, c) block where U_H puts ``S x / eta``: S/eta is the lower-left block
# of H/eta, row block (b, c) = (0, 1) of the first block column.
SUCCESS_BLOCK = MappingProxyType({"b": 0, "c": 1})


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
    ``SUCCESS_BLOCK``.
    """

    weights: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.weights)

    @property
    def eta(self) -> float:
        return spectral_norm(self.dimension)

    def half(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(S x / eta, C_V x)`` for ``x`` of shape ``(..., N)``: where ``U_H`` sends a c = 0 block.

        ``S x`` is the prefix sum and ``C_V x = S^-1 C_U S x`` the first
        difference of ``C_U`` on it, one pair of sine sums.
        """
        natural = np.arange(1, self.dimension + 1)
        odd = 2 * natural - 1
        M = 2 * self.dimension + 1
        prefix = np.cumsum(x, axis=-1)
        cu_prefix = _sine_sum(self.weights * _sine_sum(prefix, natural, odd, 2 * M), odd, natural, 2 * M) * (4 / M)
        return prefix / self.eta, np.diff(cu_prefix, axis=-1, prepend=0)

    def apply(self, operand: np.ndarray) -> np.ndarray:
        """``U_H`` applied to ``operand`` of shape ``(..., 2, 2, N)``, indexed ``[..., b, c, k]``."""
        c0, c1 = operand[..., 0, :], operand[..., 1, :]  # each (..., 2, N), indexed by b
        # J S J = S^T and J C_V J = C_U for the k reversal J, so c1 goes through half reversed.
        (s, st), (cv, cu) = ((h[0], h[1, ..., ::-1]) for h in self.half(np.stack((c0, c1[..., ::-1]))))
        out = np.empty(operand.shape, dtype=complex)
        out[..., 0, 0, :] = st[..., 0, :] + cv[..., 1, :]
        out[..., 0, 1, :] = s[..., 0, :] + cu[..., 1, :]
        out[..., 1, 0, :] = cv[..., 0, :] - st[..., 1, :]
        out[..., 1, 1, :] = cu[..., 0, :] - s[..., 1, :]
        return out


def spectral_norm(N: int) -> float:
    """Largest singular value of the N x N unit lower-triangular matrix (closed form)."""
    if N < 1:
        raise ValueError("dimension must be >= 1")
    if N == 1:
        return 1.0
    return 1.0 / (2.0 * math.sin(math.pi / (2 * (2 * N + 1))))


def _angles(N: int) -> np.ndarray:
    """``theta_k`` of the module docstring, k = 1..N."""
    return (2 * np.arange(1, N + 1) - 1) * np.pi / (2 * N + 1)


def _singular_values(N: int) -> np.ndarray:
    """``sigma_k`` of the module docstring, in descending order."""
    return 0.5 / np.sin(_angles(N) / 2)


def _completion_weights(N: int, eta: float) -> np.ndarray:
    """``g = sqrt(1 - sigma^2/eta^2)``, clamped so round-off at sigma_1 cannot give NaN."""
    return np.sqrt(np.clip(1.0 - (_singular_values(N) / eta) ** 2, 0.0, 1.0))


def _factored_weights(N: int) -> np.ndarray:
    """``g`` in a second closed form, ``sqrt(sin((theta_k-theta_1)/2) sin((theta_k+theta_1)/2)) / sin(theta_k/2)``.

    ``1 - sigma_k^2/eta^2 = 1 - sin^2(theta_1/2)/sin^2(theta_k/2)``, and the
    difference of squared sines factors into the product above, so no
    difference of nearly equal numbers is taken and ``g_1`` is exactly 0.
    """
    theta = _angles(N)
    return np.sqrt(np.sin((theta - theta[0]) / 2) * np.sin((theta + theta[0]) / 2)) / np.sin(theta / 2)


@functools.cache
def build_block_encoding(n_k: int) -> BlockEncoding:
    """Build (or fetch) the block encoding for an ``n_k``-qubit register.

    ``U_H`` is a symmetric orthogonal involution, so the build applies it to
    the chirp ``exp(i pi j^2 / 4N) / sqrt(4N)`` on the 4N operand entries j
    and raises ``RuntimeError`` unless the norm is kept and a second
    application returns the chirp, both to ``BLOCK_TOL``, and unless the
    first weight is exactly 0 (``sigma_1 = eta``; a 1e-3 error there moves
    the probe by less than ``BLOCK_TOL`` from n_k = 14 on). It also raises
    unless every weight is within ``WEIGHT_TOL`` of :func:`_factored_weights`,
    which sees an error in any one weight that the probe, whose margin thins
    as N grows, can miss. Encodings are memoized per process; a width that
    raises is not.
    """
    if not 1 <= n_k <= MAX_QUBITS:
        raise ValueError(f"n_k must lie in 1..{MAX_QUBITS}")
    N = 1 << n_k
    weights = _completion_weights(N, spectral_norm(N))
    weights.setflags(write=False)
    enc = BlockEncoding(weights)
    j = np.arange(4 * N)
    probe = (np.exp(1j * np.pi / (4 * N) * j * j) / math.sqrt(4 * N)).reshape(2, 2, N)
    image = enc.apply(probe)
    # Plain numpy norms: np.linalg.norm is a BLAS dot, which wakes the thread pool.
    norm_defect = abs(np.sqrt(np.sum(np.abs(image) ** 2)) - 1.0)
    defect = max(norm_defect, float(np.max(np.abs(enc.apply(image) - probe))))
    if defect > BLOCK_TOL or weights[0] != 0.0:
        raise RuntimeError(f"U_H is not an orthogonal involution: probe defect {defect:.3e}, g_1 = {weights[0]:.3e}")
    deviation = float(np.max(np.abs(weights - _factored_weights(N))))
    if deviation > WEIGHT_TOL:
        raise RuntimeError(f"completion weights deviate from their factored closed form by {deviation:.3e}")
    return enc


def apply_partial_sum(state: Statevector, control: Mapping[str, int]) -> Statevector:
    """Apply the encoded summation to the (b, c, k) registers of the branch ``control``.

    ``control`` maps any registers but b, c and k to values, such as
    ``{"a": 1}``. The encoding is :func:`build_block_encoding` for the width
    of the k register; b and c must be one qubit wide. The b and c registers
    must still be in |0>: unless every amplitude off the b = c = 0 block is
    exactly zero, ``ValueError`` is raised and the state is left untouched.
    ``U_H`` then sends the controlled branch's k-register coefficients A,
    its only populated block, to ``half(A)``: ``S @ A / eta`` at
    ``SUCCESS_BLOCK`` and ``C_V A`` at (b, c) = (1, 0), leaving zeros at
    b = c = 0. Everything else is untouched. One gate.
    """
    layout = state.layout
    if not {"b", "c", "k"}.isdisjoint(control):
        raise ValueError(f"a control register of {dict(control)} is an operand of the summation")
    if layout.width("b") != 1 or layout.width("c") != 1:
        raise ValueError("registers b and c must be one qubit wide")

    def block(b: int, c: int) -> np.ndarray:  # a (b, c) block of the controlled branch, k on its last axis
        return _branch(state, {**control, "b": b, "c": c}, "k")

    x00 = block(0, 0)
    # Off the b = c = 0 block: b = 1, or b = 0 with c = 1.
    if _branch(state, {"b": 1}).any() or _branch(state, {"b": 0, "c": 1}).any():
        raise ValueError("registers b/c are not in |0>: amplitude off the b = c = 0 block is non-zero")
    block(0, 1)[...], block(1, 0)[...] = build_block_encoding(layout.width("k")).half(x00)
    x00[...] = 0.0
    state.gate_count += 1
    return state
