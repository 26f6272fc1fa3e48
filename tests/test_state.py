import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qftcalc.state import (
    GateOp,
    RegisterLayout,
    Statevector,
    amplitude_encode,
    apply_gate,
    apply_register_unitary,
    exact_probabilities,
    pauli_x,
    rx_gate,
    sample,
    swap_gate,
)

from conftest import embed_full, random_state_vector, random_unitary


def two_qubit_layout():
    return RegisterLayout((("k", 2),))


class TestRegisterLayout:
    def test_partition_and_offsets(self):
        layout = RegisterLayout((("a", 1), ("b", 1), ("c", 1), ("k", 3)))
        assert layout.n_qubits == 6
        assert layout.qubits("k") == (0, 1, 2)
        assert layout.qubits("c") == (3,)
        assert layout.qubits("b") == (4,)
        assert layout.qubits("a") == (5,)

    def test_index_roundtrip(self):
        layout = RegisterLayout((("a", 1), ("k", 3)))
        for a in (0, 1):
            for k in range(8):
                index = layout.index_for({"a": a, "k": k})
                assert layout.value_of(index, "a") == a
                assert layout.value_of(index, "k") == k

    def test_ancilla_must_be_most_significant(self):
        with pytest.raises(ValueError):
            RegisterLayout((("k", 2), ("a", 1)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout((("k", 2), ("k", 1)))

    def test_unknown_register(self):
        with pytest.raises(KeyError):
            two_qubit_layout().qubits("zz")


class TestAmplitudeEncode:
    def test_single_basis_state(self):
        state, norm = amplitude_encode([1, 0, 0, 0], two_qubit_layout())
        assert_allclose(state.amplitudes, [1, 0, 0, 0])
        assert norm == 1.0

    def test_uniform(self):
        state, norm = amplitude_encode([1, 1, 1, 1], two_qubit_layout())
        assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5])
        assert norm == 2.0

    def test_cos_norm_against_direct_summation(self):
        # Independent oracle: accumulate sum of squares with math.fsum.
        xs = [-2.0 + 4.0 * j / 256 for j in range(256)]
        samples = [math.cos(2.0 * math.pi * x) for x in xs]
        expected_norm = math.sqrt(math.fsum(v * v for v in samples))
        state, norm = amplitude_encode(samples, RegisterLayout((("k", 8),)))
        assert_allclose(norm, expected_norm, rtol=1e-14)
        assert_allclose(state.amplitudes, np.array(samples) / expected_norm, atol=1e-14)
        assert abs(state.norm() - 1.0) <= 1e-12

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="all-zero"):
            amplitude_encode([0.0, 0.0, 0.0, 0.0], two_qubit_layout())

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            amplitude_encode([1.0, 2.0, 3.0], two_qubit_layout())

    def test_rejects_layout_mismatch(self):
        with pytest.raises(ValueError):
            amplitude_encode([1.0, 0.0], two_qubit_layout())


class TestApplyGate:
    def test_x_flips_qubit_zero(self):
        state = Statevector(2, [1, 0, 0, 0], two_qubit_layout())
        apply_gate(state, GateOp(pauli_x(), (0,)))
        assert_allclose(state.amplitudes, [0, 1, 0, 0])

    def test_rx_rotation_on_zero(self):
        # Rx(-2*theta)|0> = cos(theta)|0> + i sin(theta)|1>, checked at pi/4.
        theta = math.pi / 4.0
        state = Statevector(1, [1, 0], RegisterLayout((("k", 1),)))
        apply_gate(state, GateOp(rx_gate(-2.0 * theta), (0,)))
        assert_allclose(state.amplitudes, [math.cos(theta), 1j * math.sin(theta)], atol=1e-15)

    def test_cnot_truth_table(self):
        state = Statevector(2, [0, 0, 1, 0], two_qubit_layout())  # |10>
        apply_gate(state, GateOp(pauli_x(), (0,), controls=((1, 1),)))
        assert_allclose(state.amplitudes, [0, 0, 0, 1])  # |11>

    def test_rejects_non_unitary(self):
        state = Statevector(1, [1, 0], RegisterLayout((("k", 1),)))
        with pytest.raises(ValueError, match="not unitary"):
            apply_gate(state, GateOp(np.array([[1.0, 0.0], [0.0, 2.0]]), (0,)))

    def test_rejects_target_control_collision(self):
        with pytest.raises(ValueError, match="collision"):
            GateOp(pauli_x(), (0,), controls=((0, 1),))

    def test_rejects_out_of_range_qubit(self):
        state = Statevector(2, [1, 0, 0, 0], two_qubit_layout())
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(state, GateOp(pauli_x(), (5,)))


class TestRegisterUnitary:
    def test_identity_leaves_state(self, rng):
        amps = random_state_vector(3, rng)
        state = Statevector(3, amps.copy(), RegisterLayout((("k", 3),)))
        apply_register_unitary(state, np.eye(4), (0, 1))
        assert_allclose(state.amplitudes, amps, atol=1e-15)

    def test_swap_truth_table(self):
        state = Statevector(2, [0, 1, 0, 0], two_qubit_layout())  # |01>
        apply_register_unitary(state, swap_gate(), (0, 1))
        assert_allclose(state.amplitudes, [0, 0, 1, 0])  # |10>

    def test_control_polarity_zero_skips_one_branch(self, rng):
        # Control on |0> while the control qubit sits in |1>: exact no-op.
        layout = RegisterLayout((("a", 1), ("k", 2)))
        amps = np.zeros(8, dtype=complex)
        amps[4:] = random_state_vector(2, rng)  # a = 1 block
        state = Statevector(3, amps.copy(), layout)
        apply_register_unitary(state, random_unitary(4, rng), (0, 1), control=(2, 0))
        assert np.array_equal(state.amplitudes, amps)

    def test_rejects_dimension_mismatch(self):
        state = Statevector(2, [1, 0, 0, 0], two_qubit_layout())
        with pytest.raises(ValueError, match="does not act"):
            apply_register_unitary(state, np.eye(8), (0, 1))

    def test_rejects_control_inside_register(self):
        state = Statevector(2, [1, 0, 0, 0], two_qubit_layout())
        with pytest.raises(ValueError, match="collides"):
            apply_register_unitary(state, np.eye(4), (0, 1), control=(1, 1))


class TestEmbeddingEquivalence:
    """The view-based gate kernel agrees with the explicit embedding, n <= 5."""

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_single_qubit_gates(self, n_qubits, rng):
        for _ in range(12):
            amps = random_state_vector(n_qubits, rng)
            target = int(rng.integers(n_qubits))
            others = [q for q in range(n_qubits) if q != target]
            rng.shuffle(others)
            n_controls = int(rng.integers(0, min(2, len(others)) + 1))
            controls = tuple((q, int(rng.integers(2))) for q in others[:n_controls])
            payload = random_unitary(2, rng)
            state = Statevector(n_qubits, amps.copy(), RegisterLayout((("k", n_qubits),)))
            apply_gate(state, GateOp(payload, (target,), controls))
            expected = embed_full(n_qubits, payload, (target,), controls) @ amps
            assert_allclose(state.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("n_controls", [0, 1, 2])
    @pytest.mark.parametrize("n_qubits", [4, 5])
    def test_two_qubit_gates(self, n_qubits, n_controls, rng):
        for _ in range(8):
            amps = random_state_vector(n_qubits, rng)
            order = [int(q) for q in rng.permutation(n_qubits)]
            targets = tuple(order[:2])
            controls = tuple((q, int(rng.integers(2))) for q in order[2 : 2 + n_controls])
            payload = random_unitary(4, rng)
            state = Statevector(n_qubits, amps.copy(), RegisterLayout((("k", n_qubits),)))
            apply_gate(state, GateOp(payload, targets, controls))
            expected = embed_full(n_qubits, payload, targets, controls) @ amps
            assert_allclose(state.amplitudes, expected, atol=1e-12)
            assert state.gate_count == 1

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_register_unitaries(self, n_qubits, rng):
        for _ in range(8):
            amps = random_state_vector(n_qubits, rng)
            qubits = list(rng.permutation(n_qubits))[:2]
            remaining = [q for q in range(n_qubits) if q not in qubits]
            control = (remaining[0], int(rng.integers(2))) if remaining and rng.random() < 0.7 else None
            payload = random_unitary(4, rng)
            state = Statevector(n_qubits, amps.copy(), RegisterLayout((("k", n_qubits),)))
            apply_register_unitary(state, payload, qubits, control=control)
            expected = embed_full(n_qubits, payload, qubits, (control,) if control else ()) @ amps
            assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_norm_preserved_over_random_sequences(self, rng):
        n_qubits = 5
        amps = random_state_vector(n_qubits, rng)
        state = Statevector(n_qubits, amps, RegisterLayout((("k", n_qubits),)))
        for _ in range(60):
            target = int(rng.integers(n_qubits))
            payload = random_unitary(2, rng)
            others = [q for q in range(n_qubits) if q != target]
            controls = ((others[0], int(rng.integers(2))),) if rng.random() < 0.5 else ()
            apply_gate(state, GateOp(payload, (target,), controls))
        assert abs(state.norm() - 1.0) <= 1e-12


class TestProbabilitiesAndSampling:
    def test_probabilities_basis_state(self):
        state = Statevector(2, [1, 0, 0, 0], two_qubit_layout())
        assert_allclose(exact_probabilities(state), [1, 0, 0, 0])

    def test_probabilities_uniform(self):
        state, _ = amplitude_encode([1, 1, 1, 1], two_qubit_layout())
        probs = exact_probabilities(state)
        assert_allclose(probs, [0.25] * 4)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_sample_degenerate_distribution(self):
        state = Statevector(2, [0, 0, 1, 0], two_qubit_layout())
        hist = sample(state, shots=1000, seed=5)
        assert hist.counts == {2: 1000}
        assert hist.total_shots == 1000

    def test_sample_binomial_moments(self):
        state, _ = amplitude_encode([1, 1, 1, 1], two_qubit_layout())
        shots = 10**6
        sigma = math.sqrt(shots * 0.25 * 0.75)
        for seed in (0, 1, 2):
            hist = sample(state, shots, seed)
            for index in range(4):
                assert abs(hist.counts[index] - shots * 0.25) < 5.0 * sigma

    def test_sample_deterministic_for_seed(self):
        state, _ = amplitude_encode([3, 1, 4, 1], two_qubit_layout())
        assert sample(state, 4096, seed=42).counts == sample(state, 4096, seed=42).counts

    def test_sample_rejects_zero_shots(self):
        state = Statevector(1, [1, 0], RegisterLayout((("k", 1),)))
        with pytest.raises(ValueError):
            sample(state, 0, seed=0)

    def test_histogram_merge_monoid(self):
        state, _ = amplitude_encode([3, 1, 4, 1], two_qubit_layout())
        a = sample(state, 1000, seed=1)
        b = sample(state, 500, seed=2)
        merged = a.merge(b)
        assert merged.total_shots == 1500
        for index in set(a.counts) | set(b.counts):
            assert merged.counts[index] == a.counts.get(index, 0) + b.counts.get(index, 0)
