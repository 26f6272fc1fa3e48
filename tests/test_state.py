import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qftcalc.reference import pauli_x, phase_gate, rx_gate, swap_gate
from qftcalc.state import (
    RegisterLayout,
    Statevector,
    amplitude_encode,
    apply_gate,
    apply_register_unitary,
    exact_probabilities,
    sample_counts,
    sample_l2_norm,
)

from conftest import embed_full, random_state_vector, random_unitary


def two_qubit_layout():
    return RegisterLayout((("k", 2),))


def encode(samples, layout, block=0):
    """``amplitude_encode`` with the norm its callers pass: the samples' ``sample_l2_norm``."""
    return amplitude_encode(samples, sample_l2_norm(np.asarray(samples, dtype=float)), layout, block)


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
                assert (index >> layout.offset("a")) & 1 == a
                assert (index >> layout.offset("k")) & 7 == k

    def test_ancilla_must_be_most_significant(self):
        with pytest.raises(ValueError):
            RegisterLayout((("k", 2), ("a", 1)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout((("k", 2), ("k", 1)))

    def test_unknown_register(self):
        with pytest.raises(KeyError):
            two_qubit_layout().qubits("zz")


class TestStatevector:
    @pytest.mark.parametrize("size", [2, 8])
    def test_rejects_amplitudes_of_another_width(self, size):
        with pytest.raises(ValueError, match="does not match"):
            Statevector(np.eye(size)[0], two_qubit_layout())


class TestAmplitudeEncode:
    def test_single_basis_state(self):
        norm = sample_l2_norm(np.array([1.0, 0.0, 0.0, 0.0]))
        state = amplitude_encode([1, 0, 0, 0], norm, two_qubit_layout())
        assert_allclose(state.amplitudes, [1, 0, 0, 0])
        assert norm == 1.0

    def test_uniform(self):
        norm = sample_l2_norm(np.ones(4))
        state = amplitude_encode([1, 1, 1, 1], norm, two_qubit_layout())
        assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5])
        assert norm == 2.0

    def test_cos_norm_against_direct_summation(self):
        # Independent oracle: accumulate sum of squares with math.fsum.
        xs = [-2.0 + 4.0 * j / 256 for j in range(256)]
        samples = [math.cos(2.0 * math.pi * x) for x in xs]
        expected_norm = math.sqrt(math.fsum(v * v for v in samples))
        norm = sample_l2_norm(np.array(samples))
        state = amplitude_encode(samples, norm, RegisterLayout((("k", 8),)))
        assert_allclose(norm, expected_norm, rtol=1e-14)
        assert_allclose(state.amplitudes, np.array(samples) / expected_norm, atol=1e-14)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="all-zero"):
            encode([0.0, 0.0, 0.0, 0.0], two_qubit_layout())

    @pytest.mark.parametrize("l2", [-1.0, math.inf, math.nan])
    def test_rejects_a_norm_that_is_not_positive_and_finite(self, l2):
        with pytest.raises(ValueError, match="not positive and finite"):
            amplitude_encode([1.0, 0.0, 0.0, 0.0], l2, two_qubit_layout())

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            encode([1.0, 2.0, 3.0], two_qubit_layout())

    def test_fills_one_block(self):
        layout = RegisterLayout((("a", 1), ("k", 2)))
        for block in (0, 1):
            norm = sample_l2_norm(np.array([3.0, 0.0, 0.0, 4.0]))
            state = amplitude_encode([3.0, 0.0, 0.0, 4.0], norm, layout, block=block)
            expected = np.zeros(8, dtype=complex)
            expected[4 * block : 4 * block + 4] = [0.6, 0.0, 0.0, 0.8]
            assert np.array_equal(state.amplitudes, expected)
            assert norm == 5.0

    def test_rejects_layout_mismatch(self):
        # Too many samples, then blocks outside the 2 (or 1) blocks the layout holds.
        for samples, block in (([1.0] * 8, 0), ([1.0, 0.0], 2), ([1.0, 0.0], -1), ([1.0] * 4, 1)):
            with pytest.raises(ValueError, match="do not fit"):
                encode(samples, two_qubit_layout(), block=block)


class TestApplyGate:
    def test_x_flips_qubit_zero(self):
        state = Statevector([1, 0, 0, 0], two_qubit_layout())
        apply_gate(state, pauli_x(), (0,))
        assert_allclose(state.amplitudes, [0, 1, 0, 0])

    def test_rx_rotation_on_zero(self):
        # Rx(-2*theta)|0> = cos(theta)|0> + i sin(theta)|1>, checked at pi/4.
        theta = math.pi / 4.0
        state = Statevector([1, 0], RegisterLayout((("k", 1),)))
        apply_gate(state, rx_gate(-2.0 * theta), (0,))
        assert_allclose(state.amplitudes, [math.cos(theta), 1j * math.sin(theta)], atol=1e-15)

    def test_cnot_truth_table(self):
        state = Statevector([0, 0, 1, 0], two_qubit_layout())  # |10>
        apply_gate(state, pauli_x(), (0,), controls=((1, 1),))
        assert_allclose(state.amplitudes, [0, 0, 0, 1])  # |11>

    def test_rejects_non_unitary(self):
        state = Statevector([1, 0], RegisterLayout((("k", 1),)))
        with pytest.raises(ValueError, match="not unitary"):
            apply_gate(state, np.array([[1.0, 0.0], [0.0, 2.0]]), (0,))

    def test_rejects_target_control_collision(self):
        state = Statevector([1, 0, 0, 0], two_qubit_layout())
        with pytest.raises(ValueError, match="collides"):
            apply_gate(state, pauli_x(), (0,), controls=((0, 1),))
        assert np.array_equal(state.amplitudes, [1, 0, 0, 0])

    def test_rejects_out_of_range_qubit(self):
        state = Statevector([1, 0, 0, 0], two_qubit_layout())
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(state, pauli_x(), (5,))


class TestRegisterUnitary:
    def test_identity_leaves_state(self, rng):
        amps = random_state_vector(3, rng)
        state = Statevector(amps.copy(), RegisterLayout((("k", 3),)))
        apply_register_unitary(state, np.eye(4), (0, 1))
        assert_allclose(state.amplitudes, amps, atol=1e-15)

    def test_swap_truth_table(self):
        state = Statevector([0, 1, 0, 0], two_qubit_layout())  # |01>
        apply_register_unitary(state, swap_gate(), (0, 1))
        assert_allclose(state.amplitudes, [0, 0, 1, 0])  # |10>

    def test_control_polarity_zero_skips_one_branch(self, rng):
        # Control on |0> while the control qubit sits in |1>: exact no-op.
        layout = RegisterLayout((("a", 1), ("k", 2)))
        amps = np.zeros(8, dtype=complex)
        amps[4:] = random_state_vector(2, rng)  # a = 1 block
        state = Statevector(amps.copy(), layout)
        apply_register_unitary(state, random_unitary(4, rng), (0, 1), control=(2, 0))
        assert np.array_equal(state.amplitudes, amps)

    def test_rejects_dimension_mismatch(self):
        state = Statevector([1, 0, 0, 0], two_qubit_layout())
        with pytest.raises(ValueError, match="does not act"):
            apply_register_unitary(state, np.eye(8), (0, 1))

    def test_rejects_control_inside_register(self):
        state = Statevector([1, 0, 0, 0], two_qubit_layout())
        with pytest.raises(ValueError, match="collides"):
            apply_register_unitary(state, np.eye(4), (0, 1), control=(1, 1))


class TestEmbeddingEquivalence:
    """The view-based gate kernel agrees with the explicit embedding, n <= 5."""

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_single_qubit_gates(self, n_qubits, rng):
        payloads = [random_unitary(2, rng) for _ in range(12)] + [phase_gate(0.7), np.diag(np.exp([0.3j, -1.1j]))]
        for payload in payloads:
            amps = random_state_vector(n_qubits, rng)
            target = int(rng.integers(n_qubits))
            others = [q for q in range(n_qubits) if q != target]
            rng.shuffle(others)
            n_controls = int(rng.integers(0, min(2, len(others)) + 1))
            controls = tuple((q, int(rng.integers(2))) for q in others[:n_controls])
            state = Statevector(amps.copy(), RegisterLayout((("k", n_qubits),)))
            apply_gate(state, payload, (target,), controls)
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
            state = Statevector(amps.copy(), RegisterLayout((("k", n_qubits),)))
            apply_gate(state, payload, targets, controls)
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
            state = Statevector(amps.copy(), RegisterLayout((("k", n_qubits),)))
            apply_register_unitary(state, payload, qubits, control=control)
            expected = embed_full(n_qubits, payload, qubits, (control,) if control else ()) @ amps
            assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_norm_preserved_over_random_sequences(self, rng):
        n_qubits = 5
        amps = random_state_vector(n_qubits, rng)
        state = Statevector(amps, RegisterLayout((("k", n_qubits),)))
        for _ in range(60):
            target = int(rng.integers(n_qubits))
            payload = random_unitary(2, rng)
            others = [q for q in range(n_qubits) if q != target]
            controls = ((others[0], int(rng.integers(2))),) if rng.random() < 0.5 else ()
            apply_gate(state, payload, (target,), controls)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


class TestReverseQubits:
    """The QFT circuit's closing swap network reverses the register's qubits.

    ``spectral.qft`` returns the FFT's natural-order output, which is the
    circuit's output only because that swap network is the bit reversal.
    """

    @pytest.mark.parametrize("control", [None, (0, 1), (0, 0)])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_equals_swap_network(self, width, control, rng):
        n_qubits = width + 1
        amps = random_state_vector(n_qubits, rng)
        qubits = tuple(range(1, n_qubits))
        controls = (control,) if control else ()
        swaps = Statevector(amps.copy(), RegisterLayout((("k", n_qubits),)))
        for i in range(width // 2):
            apply_gate(swaps, swap_gate(), (qubits[i], qubits[-1 - i]), controls)
        # The register is qubits 1..width: reverse the bits of index >> 1
        # wherever the control holds.
        expected = amps.copy()
        for index in range(1 << n_qubits):
            if control is None or (index >> control[0]) & 1 == control[1]:
                mirrored = int(format(index >> 1, f"0{width}b")[::-1], 2)
                expected[(mirrored << 1) | (index & 1)] = amps[index]
        assert np.array_equal(swaps.amplitudes, expected)
        assert swaps.gate_count == width // 2


class TestSampleL2Norm:
    def test_representable_norm_keeps_its_bits(self, rng):
        samples = rng.normal(size=64)
        assert sample_l2_norm(samples) == float(np.linalg.norm(samples))

    @pytest.mark.parametrize("scale", [1e-300, 1e-320, 1e200, 1e300])
    def test_no_under_or_overflow(self, scale):
        samples = scale * np.arange(1.0, 17.0)
        expected = scale * math.sqrt(sum(k * k for k in range(1, 17)))
        assert math.isfinite(sample_l2_norm(samples))
        assert_allclose(sample_l2_norm(samples), expected, rtol=1e-6 if scale < 1e-310 else 1e-15)

    def test_zero_stays_zero(self):
        assert sample_l2_norm(np.zeros(4)) == 0.0

    def test_within_two_ulps_of_the_blas_norm(self):
        samples = np.random.default_rng(17).standard_normal(1 << 17)
        expected = float(np.linalg.norm(samples))
        assert abs(sample_l2_norm(samples) - expected) <= 2 * np.spacing(expected)

    def test_tiny_samples_encode(self):
        samples = np.array([1e-300, 2e-300, 3e-300, 4e-300])
        l2 = sample_l2_norm(samples)
        state = amplitude_encode(samples, l2, two_qubit_layout())
        assert_allclose(l2, math.sqrt(30.0) * 1e-300, rtol=1e-15)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


class TestProbabilitiesAndSampling:
    def test_probabilities_basis_state(self):
        state = Statevector([1, 0, 0, 0], two_qubit_layout())
        assert_allclose(exact_probabilities(state), [1, 0, 0, 0])

    def test_probabilities_uniform(self):
        state = encode([1, 1, 1, 1], two_qubit_layout())
        probs = exact_probabilities(state)
        assert_allclose(probs, [0.25] * 4)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_sample_degenerate_distribution(self):
        state = Statevector([0, 0, 1, 0], two_qubit_layout())
        assert sample_counts(state, shots=1000, seed=5).tolist() == [0, 0, 1000, 0]

    def test_sample_binomial_moments(self):
        state = encode([1, 1, 1, 1], two_qubit_layout())
        shots = 10**6
        sigma = math.sqrt(shots * 0.25 * 0.75)
        for seed in (0, 1, 2):
            counts = sample_counts(state, shots, seed)
            for index in range(4):
                assert abs(counts[index] - shots * 0.25) < 5.0 * sigma

    def test_sample_deterministic_for_seed(self):
        state = encode([3, 1, 4, 1], two_qubit_layout())
        assert np.array_equal(sample_counts(state, 4096, seed=42), sample_counts(state, 4096, seed=42))

    def test_sample_counts_are_the_histogram(self):
        # One int64 count per basis index, summing to the shots, zero where the probability is.
        state = encode([3, 1, 4, 0, 5, 9, 2, 6], RegisterLayout((("k", 3),)))
        counts = sample_counts(state, 10**5, seed=11)
        assert counts.dtype == np.int64 and counts.shape == (8,)
        assert counts.sum() == 10**5 and np.all(counts >= 0) and counts[3] == 0

    def test_sample_rejects_zero_shots(self):
        state = Statevector([1, 0], RegisterLayout((("k", 1),)))
        with pytest.raises(ValueError):
            sample_counts(state, 0, seed=0)


class TestBlockSampling:
    """``sample_counts`` over a slice of outcomes: the slice's marginal of a full draw."""

    SHOTS = 10**6
    BLOCK = slice(16, 48)

    @pytest.fixture
    def state(self, rng):
        return Statevector(random_state_vector(6, rng), RegisterLayout((("k", 6),)))

    def test_block_counts_pass_chi_square(self, state):
        from scipy import stats

        probs = exact_probabilities(state)
        counts = sample_counts(state, self.SHOTS, 3, self.BLOCK)
        assert counts.shape == (32,)
        # The shots that miss the block form one more outcome of the multinomial.
        observed = np.append(counts, self.SHOTS - counts.sum())
        expected = self.SHOTS * np.append(probs[self.BLOCK], 1.0 - probs[self.BLOCK].sum())
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        assert stats.chi2.sf(statistic, df=observed.size - 1) > 1e-6

    def test_hits_are_binomial(self, state):
        share = float(exact_probabilities(state)[self.BLOCK].sum())
        sigma = math.sqrt(self.SHOTS * share * (1.0 - share))
        for seed in range(5):
            hits = int(sample_counts(state, self.SHOTS, seed, self.BLOCK).sum())
            assert abs(hits - self.SHOTS * share) < 5.0 * sigma

    def test_full_range_is_one_multinomial_draw(self, state):
        probs = exact_probabilities(state)
        expected = np.random.default_rng(8).multinomial(self.SHOTS, probs / probs.sum())
        assert np.array_equal(sample_counts(state, self.SHOTS, 8), expected)
        assert np.array_equal(sample_counts(state, self.SHOTS, 8, slice(0, 64)), expected)

    def test_zero_probability_block_gives_zeros(self):
        state = Statevector([0.6, 0.8, 0, 0], two_qubit_layout())
        counts = sample_counts(state, 1000, 5, slice(2, 4))
        assert counts.dtype == np.int64 and counts.tolist() == [0, 0]

    def test_block_holding_all_mass_gets_every_shot(self):
        state = Statevector([0, 0, 0, 0, 0.6, 0, 0.8, 0], RegisterLayout((("k", 3),)))
        counts = sample_counts(state, 1000, 5, slice(4, 8))
        assert counts.dtype == np.int64 and counts.sum() == 1000 and counts[[1, 3]].tolist() == [0, 0]
