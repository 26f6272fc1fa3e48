"""Shared test oracles: explicit full-matrix gate embedding and random inputs.

The embedding here is deliberately element-wise and index-based so it shares
no code path with the package's view-based gate kernel.
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
