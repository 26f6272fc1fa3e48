"""Shared test oracles: explicit full-matrix gate embedding, the direct DFT
derivative, and random inputs.

The embedding here is deliberately element-wise and index-based so it shares
no code path with the package's view-based gate kernel; the spectral
derivative is a direct O(N^2) DFT so it stays independent of both numpy's FFT
and the quantum path it is used to check.
"""

from __future__ import annotations

import numpy as np
import pytest


def embed_full(n_qubits: int, payload: np.ndarray, targets, controls=()) -> np.ndarray:
    """Build the full 2^n x 2^n matrix of a (controlled) gate, element by element.

    ``targets`` are least significant first with respect to the payload index;
    ``controls`` are (qubit, polarity) pairs.
    """
    dim = 1 << n_qubits
    targets = list(targets)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if not all(((col >> q) & 1) == pol for q, pol in controls):
            full[col, col] = 1.0
            continue
        col_sub = 0
        base = col
        for pos, t in enumerate(targets):
            col_sub |= ((col >> t) & 1) << pos
            base &= ~(1 << t)
        for row_sub in range(payload.shape[0]):
            row = base
            for pos, t in enumerate(targets):
                row |= ((row_sub >> pos) & 1) << t
            full[row, col] = payload[row_sub, col_sub]
    return full


def dft_derivative(samples: np.ndarray, dx: float) -> np.ndarray:
    """Spectral derivative via the sine-modified wavenumber.

    Computes ``IDFT[ i sin(2 pi k / N) / dx * DFT[f]_k ]`` with explicitly
    constructed transform matrices (O(N^2)); the imaginary residue of the
    result is discarded after checking it is numerically negligible.
    """
    f = np.asarray(samples, dtype=float)
    n = f.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"sample count {n} is not a power of two")
    j = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(j, j) / n)
    spectrum = dft @ f
    factor = 1j * np.sin(2.0 * np.pi * j / n) / dx
    back = np.exp(2j * np.pi * np.outer(j, j) / n) / n
    result = back @ (factor * spectrum)
    residue = float(np.max(np.abs(result.imag)))
    if residue > 1e-9 * max(np.linalg.norm(f), 1.0):
        raise RuntimeError(f"imaginary residue {residue:.3e} in spectral derivative")
    return result.real


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state_vector(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def fft_calls(monkeypatch) -> list[str]:
    """Record, by name, every call of numpy's four one-dimensional FFTs from here on."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):

        def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
