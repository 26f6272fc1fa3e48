import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qftcalc
from qftcalc import checks, experiments, psmpo, spectral, state as state_module
from qftcalc.reference import pauli_x, phase_gate, rx_gate, swap_gate
from qftcalc.state import (
    MAX_SHOTS,
    RegisterLayout,
    Statevector,
    _branch,
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


def encode(samples, layout, branch={}):
    """``amplitude_encode`` with the norm its callers pass: the samples' ``sample_l2_norm``."""
    return amplitude_encode(samples, sample_l2_norm(np.asarray(samples, dtype=float)), layout, branch)


class TestRegisterLayout:
    def test_partition_and_offsets(self):
        layout = RegisterLayout((("a", 1), ("b", 1), ("c", 1), ("k", 3)))
        assert layout.n_qubits == 6
        assert layout.qubits("k") == (0, 1, 2)
        assert layout.qubits("c") == (3,)
        assert layout.qubits("b") == (4,)
        assert layout.qubits("a") == (5,)

    def test_index_roundtrip(self):
        # One axis per register, most significant first: the flat index of
        # (a, k) in the register shape carries a and k at their offsets.
        layout = RegisterLayout((("a", 1), ("k", 3)))
        assert layout.shape == (2, 8)
        for a in (0, 1):
            for k in range(8):
                index = int(np.ravel_multi_index((a, k), layout.shape))
                assert (index >> layout.offset("a")) & 1 == a
                assert (index >> layout.offset("k")) & 7 == k

    def test_any_register_order_is_accepted(self):
        # The run path names registers, so no order is refused; k on top puts a at qubit 0.
        layout = RegisterLayout((("k", 2), ("a", 1)))
        assert layout.qubits("a") == (0,) and layout.qubits("k") == (1, 2)

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
        with pytest.raises(ValueError, match="do not fill"):
            encode([1.0, 2.0, 3.0], two_qubit_layout())

    def test_fills_one_block(self):
        # Sample j lands at the basis index whose a bits hold the branch value and whose k bits hold j,
        # with a on top and at the bottom.
        for layout, a in itertools.product(
            (RegisterLayout((("a", 1), ("k", 2))), RegisterLayout((("k", 2), ("a", 1)))), (0, 1)
        ):
            norm = sample_l2_norm(np.array([3.0, 0.0, 0.0, 4.0]))
            state = amplitude_encode([3.0, 0.0, 0.0, 4.0], norm, layout, {"a": a})
            expected = np.zeros(8, dtype=complex)
            for j, value in enumerate([0.6, 0.0, 0.0, 0.8]):
                expected[(a << layout.offset("a")) | (j << layout.offset("k"))] = value
            assert np.array_equal(state.amplitudes, expected)
            assert norm == 5.0

    def test_rejects_layout_mismatch(self):
        # Samples that do not fill k, then branch values outside the register.
        layout = RegisterLayout((("a", 1), ("k", 2)))
        for samples, branch, message in (
            ([1.0] * 8, {"a": 0}, "do not fill"),
            ([1.0, 0.0], {"a": 0}, "do not fill"),
            ([1.0] * 4, {"a": 2}, "out of range"),
            ([1.0] * 4, {"a": -1}, "out of range"),
        ):
            with pytest.raises(ValueError, match=message):
                encode(samples, layout, branch)

    def test_rejects_a_branch_that_leaves_another_register_free(self):
        layout = RegisterLayout((("a", 1), ("k", 2), ("x", 1)))
        for branch in ({}, {"a": 0}, {"x": 1}):
            with pytest.raises(ValueError, match="leaves a register other than 'k' free"):
                encode([1.0] * 4, layout, branch)
        with pytest.raises(ValueError, match="both the operand and fixed"):
            encode([1.0] * 4, layout, {"a": 0, "x": 0, "k": 1})
        with pytest.raises(KeyError):
            encode([1.0] * 4, layout, {"a": 0, "x": 0, "zz": 0})


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

    @pytest.mark.parametrize("control", [(0, 2), (7, 1), (-1, 1), (0, 5)])
    def test_rejects_bad_control(self, control, rng):
        # A polarity other than 0 or 1, or a control qubit out of range.
        layout = RegisterLayout((("k", 3), ("x", 1)))
        state = Statevector(random_state_vector(4, rng), layout)
        before = state.amplitudes.copy()
        with pytest.raises(ValueError):
            apply_register_unitary(state, np.eye(8), layout.qubits("k"), control=control)
        assert np.array_equal(state.amplitudes, before)


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


class TestRegisterViews:
    """The run path's one-axis-per-register views and their refusals."""

    def test_views_write_through_with_k_in_the_middle(self):
        # Bit arithmetic, not a reshape, locates each amplitude: index = y << 5 | k << 2 | x.
        layout = RegisterLayout((("y", 1), ("k", 3), ("x", 2)))
        state = Statevector(np.zeros(64), layout)
        amplitudes = state.amplitudes
        view = _branch(state, {"x": 2}, "k")
        assert view.shape == (2, 8) and np.shares_memory(view, amplitudes)
        view[...] = np.arange(16).reshape(2, 8) + 1
        expected = np.zeros(64, dtype=complex)
        for y in range(2):
            for k in range(8):
                expected[y << 5 | k << 2 | 2] = 8 * y + k + 1
        assert np.array_equal(state.amplitudes, expected)
        # A transform through the controlled view lands in the same entries.
        spectral.qft(state, control={"x": 2})
        assert state.amplitudes is amplitudes
        touched = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
        assert set(touched) <= {y << 5 | k << 2 | 2 for y in range(2) for k in range(8)}
        assert_allclose(_branch(state, {"y": 1, "x": 2})[...], np.fft.ifft(np.arange(9, 17), norm="ortho"))

    @staticmethod
    def refused(state, call, error):
        """``call`` raises ``error`` and leaves the amplitudes and the gate count bitwise as they were."""
        before = state.amplitudes.copy()
        with pytest.raises(error):
            call()
        assert np.array_equal(state.amplitudes, before) and state.gate_count == 0

    @pytest.mark.parametrize(
        "control, error",
        [({"a": -1}, ValueError), ({"a": 2}, ValueError), ({"z": 1}, KeyError), ({"k": 0}, ValueError)],
        ids=["negative", "too-large", "unknown", "on-k"],
    )
    def test_qft_refuses_a_bad_control(self, control, error, rng):
        layout = RegisterLayout((("a", 1), ("k", 3)))
        state = Statevector(random_state_vector(4, rng), layout)
        for inverse in (False, True):
            self.refused(state, lambda: spectral.qft(state, inverse, control=control), error)

    @pytest.mark.parametrize(
        "control, error",
        [
            ({"a": -1}, ValueError),
            ({"a": 2}, ValueError),
            ({"z": 1}, KeyError),
            ({"b": 1}, ValueError),
            ({"c": 1}, ValueError),
            ({"k": 1}, ValueError),
        ],
        ids=["negative", "too-large", "unknown", "on-b", "on-c", "on-k"],
    )
    def test_partial_sum_refuses_a_bad_control(self, control, error):
        layout = RegisterLayout((("a", 1), ("b", 1), ("c", 1), ("k", 2)))
        amps = np.zeros(32, dtype=complex)
        amps.reshape(layout.shape)[1, 0, 0] = 0.5  # the populated a = 1, b = c = 0 block
        state = Statevector(amps, layout)
        self.refused(state, lambda: psmpo.apply_partial_sum(state, control=control), error)

    def test_rotation_refuses_a_two_qubit_ancilla(self):
        # Amplitude at a = 2 lies in neither the a = 0 nor the a = 1 branch,
        # so without the width check a rotation from a = 0 would be a silent no-op.
        layout = RegisterLayout((("a", 2), ("k", 3)))
        amps = np.zeros(32, dtype=complex)
        amps.reshape(layout.shape)[2] = 1 / math.sqrt(8)
        state = Statevector(amps, layout)
        self.refused(state, lambda: spectral.wavenumber_rotation(state, {"a": 0}), ValueError)

    @pytest.mark.parametrize("wide", ["b", "c"])
    def test_partial_sum_refuses_a_two_qubit_block_register(self, wide):
        layout = RegisterLayout(tuple((name, 2 if name == wide else 1) for name in "abc") + (("k", 2),))
        amps = np.zeros(1 << layout.n_qubits, dtype=complex)
        amps.reshape(layout.shape)[1, 0, 0] = 0.5
        # b = 2 (or c = 2) lies off every block the b/c check reads.
        amps.reshape(layout.shape)[(1, 2, 0) if wide == "b" else (1, 0, 2)] = 0.5
        state = Statevector(amps, layout)
        self.refused(state, lambda: psmpo.apply_partial_sum(state, control={"a": 1}), ValueError)


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

    @pytest.mark.parametrize("shots", [2**63, 2**64])
    def test_sample_rejects_shots_beyond_the_int64_cap(self, shots):
        # numpy's int64 draws would end in OverflowError; the sampler names its range.
        state = Statevector([1, 0], RegisterLayout((("k", 1),)))
        with pytest.raises(ValueError, match=f"1[.][.]{MAX_SHOTS}, got {shots}"):
            sample_counts(state, shots, seed=0)

    def test_experiments_reads_the_samplers_cap(self):
        assert experiments.MAX_SHOTS is MAX_SHOTS == 2**63 - 1


def branch_indices(layout, branch):
    """Basis indices whose register bits hold the branch's values, ascending: a flat oracle for a branch."""
    index = np.arange(1 << layout.n_qubits)
    inside = np.ones(index.size, dtype=bool)
    for name, value in branch.items():
        inside &= (index >> layout.offset(name)) & ((1 << layout.width(name)) - 1) == value
    return np.flatnonzero(inside)


class TestBlockSampling:
    """``sample_counts`` over one branch of registers: the branch's marginal of a full draw."""

    SHOTS = 10**6
    # h on top and l below k: {"h": 1} is one contiguous index range, the branches that fix l are not.
    LAYOUT = RegisterLayout((("h", 1), ("k", 4), ("l", 1)))
    BRANCHES = [{"h": 1}, {"l": 1}, {"h": 0, "l": 1}]

    @pytest.fixture
    def state(self, rng):
        return Statevector(random_state_vector(6, rng), self.LAYOUT)

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_probabilities_are_the_branch_in_index_order(self, state, branch):
        expected = exact_probabilities(state)[branch_indices(self.LAYOUT, branch)]
        assert np.array_equal(exact_probabilities(state, branch), expected)

    def test_block_counts_pass_chi_square(self, state):
        from scipy import stats

        for branch in self.BRANCHES:
            probs = exact_probabilities(state)[branch_indices(self.LAYOUT, branch)]
            counts = sample_counts(state, self.SHOTS, 3, branch)
            assert counts.shape == probs.shape
            # The shots that miss the branch form one more outcome of the multinomial.
            observed = np.append(counts, self.SHOTS - counts.sum())
            expected = self.SHOTS * np.append(probs, 1.0 - probs.sum())
            statistic = float(np.sum((observed - expected) ** 2 / expected))
            assert stats.chi2.sf(statistic, df=observed.size - 1) > 1e-6, branch

    def test_hits_are_binomial(self, state):
        for branch in self.BRANCHES:
            share = float(exact_probabilities(state, branch).sum())
            sigma = math.sqrt(self.SHOTS * share * (1.0 - share))
            for seed in range(5):
                hits = int(sample_counts(state, self.SHOTS, seed, branch).sum())
                assert abs(hits - self.SHOTS * share) < 5.0 * sigma, branch

    def test_branch_holding_all_mass_spends_the_stream_as_the_full_range(self, rng):
        # All the probability at h = 1: the branch draws no binomial, so its counts are the full draw's upper
        # half. Both blocks lie within 4c^2 outcomes, so their levels stop at the same shot count.
        layout = RegisterLayout((("h", 1), ("k", 4)))
        state = Statevector(np.concatenate((np.zeros(16), random_state_vector(4, rng))), layout)
        full = sample_counts(state, self.SHOTS, 8)
        assert not full[:16].any()
        assert np.array_equal(sample_counts(state, self.SHOTS, 8, {"h": 1}), full[16:])

    def test_zero_probability_block_gives_zeros(self):
        state = Statevector([0.6, 0.8, 0, 0], RegisterLayout((("h", 1), ("k", 1))))
        counts = sample_counts(state, 1000, 5, {"h": 1})
        assert counts.dtype == np.int64 and counts.tolist() == [0, 0]

    def test_block_holding_all_mass_gets_every_shot(self):
        state = Statevector([0, 0, 0, 0, 0.6, 0, 0.8, 0], RegisterLayout((("h", 1), ("k", 2))))
        counts = sample_counts(state, 1000, 5, {"h": 1})
        assert counts.dtype == np.int64 and counts.sum() == 1000 and counts[[1, 3]].tolist() == [0, 0]


class TestPoissonizedReadout:
    """``sample_counts`` spreads its hits by Poisson levels and a categorical completion: the law is
    ``Multinomial(hits, p)`` in each regime, the draw returns at every shot count, and it never counts
    an outcome of zero probability."""

    P = np.array([0.2, 0.3, 0.5, 0.0])

    @pytest.fixture
    def three_outcomes(self):
        # The full range of two qubits, so hits == shots; the zero-probability outcome is the last.
        return Statevector(np.sqrt(self.P), two_qubit_layout())

    def test_level_and_completion_follow_the_pmf(self):
        # 4c^2 + 4 shots: one Poisson level, then about c sqrt(shots) categorical shots.
        result = checks.check_sampling_small_counts(seeds=20_000)
        assert result.passed, result.detail

    def test_covariance_is_multinomial(self, three_outcomes):
        # Independent Poisson counts would have covariance 0; the multinomial's is -hits p_i p_j.
        shots, seeds = 10**4, 1000
        draws = np.array([sample_counts(three_outcomes, shots, seed)[:3] for seed in range(seeds)], dtype=float)
        assert np.all(draws.sum(axis=1) == shots)
        p = self.P[:3]
        expected = shots * (np.diag(p) - np.outer(p, p))
        observed = np.cov(draws, rowvar=False)
        # Standard error of a sample covariance of near-normal counts.
        sigma = np.sqrt((np.outer(np.diag(expected), np.diag(expected)) + expected**2) / (seeds - 1))
        assert np.all(np.abs(observed - expected) < 5.0 * sigma)
        # The bound excludes a covariance of 0: each one lies more than 8 standard errors below it.
        assert np.all(expected[np.triu_indices(3, 1)] < -8.0 * sigma[np.triu_indices(3, 1)])

    def test_rejected_levels_keep_the_law(self, monkeypatch):
        # A negative margin sets each level's mean above the shots left, so most Poisson totals overshoot
        # and are drawn again; the sums stay exact and the pmf holds.
        levels = []
        real_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self.rng, self.totals = real_rng(seed), []
                levels.append(self.totals)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def poisson(self, lam):
                draw = self.rng.poisson(lam)
                self.totals.append(int(draw.sum()))
                return draw

        monkeypatch.setattr(state_module, "POISSON_MARGIN", -1.0)
        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        shots = 40
        result = checks.check_sampling_small_counts(shots)
        assert result.passed, result.detail
        accepted = rejected = 0
        for totals in levels:
            left = shots  # every call of the check is a full-range draw
            for total in totals:
                if total <= left:
                    left, accepted = left - total, accepted + 1
                else:
                    rejected += 1
        assert rejected > accepted > 0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=1, max_size=8).filter(any),
        st.integers(1, 200),
        st.integers(0, 2**32 - 1),
    )
    @example([0.3, 0.7], 9, 0)  # a loop that ran while left > block size would draw level means of 9 - 3 sqrt(9) = 0
    @example([0.3, 0.7, 0.0], 200, 1)
    @example([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 37, 2)
    def test_every_draw_returns_with_exact_sums(self, weights, shots, seed):
        # 1-8 weights padded with zeros to the 3-qubit k register of the branch h = 0, which holds all
        # the probability. The levels run while more than max(block size, 4c^2) = 36 shots are left.
        weights = np.pad(np.array(weights), (0, 8 - len(weights)))
        amplitudes = np.zeros(16)
        amplitudes[:8] = np.sqrt(weights / weights.sum())
        state = Statevector(amplitudes, RegisterLayout((("h", 1), ("k", 3))))
        counts = sample_counts(state, shots, seed, {"h": 0})
        assert counts.dtype == np.int64 and counts.shape == (8,)
        assert counts.sum() == shots and np.all(counts >= 0)
        assert np.all(counts[weights == 0.0] == 0)

    def test_max_shots_is_exact_in_bounded_memory(self):
        # 2^63 - 1 shots take a handful of Poisson levels; a single completion would need ~c 2^31.5 uniforms.
        # On [0, 1] the level mean is the whole of lam, which numpy's Poisson range admits only below ~9.2e18.
        src = str(Path(qftcalc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = (
            "import json, resource, sys, numpy as np; "
            "from qftcalc.state import RegisterLayout, Statevector, exact_probabilities, sample_counts; "
            "shots = int(sys.argv[1]); out = []\n"
            "for amps in ([0.6, 0.8], [0.0, 1.0], np.sqrt([0.1, 0.2, 0.3, 0.4])):\n"
            "    state = Statevector(amps, RegisterLayout((('k', len(amps).bit_length() - 1),)))\n"
            "    sample_counts(state, 10**6, 0)  # loads numpy.random and pages in its code\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    counts = sample_counts(state, shots, 7)\n"
            "    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "    out.append([[int(c) for c in counts], exact_probabilities(state).tolist(), grown])\n"
            "print(json.dumps(out))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, str(MAX_SHOTS)], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        for counts, probs, grown_kib in json.loads(result.stdout):
            p = np.array(probs) / sum(probs)
            assert sum(counts) == MAX_SHOTS
            sigma = np.sqrt(MAX_SHOTS * p * (1.0 - p))
            assert np.all(np.abs(np.array(counts, dtype=float) - MAX_SHOTS * p) <= 6.0 * sigma)
            assert grown_kib < 5 * 1024
