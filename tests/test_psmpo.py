import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qftcalc import checks, psmpo
from qftcalc.psmpo import SUCCESS_BLOCK, BlockEncoding, apply_partial_sum, build_block_encoding, spectral_norm
from qftcalc.oracles import sample_catalog
from qftcalc.reference import block_encode_dimension, materialise, summation_eigenpairs, summation_svd
from qftcalc.pipelines import qfti_run
from qftcalc.state import RegisterLayout, Statevector, apply_register_unitary

from conftest import random_state_vector


def hermitian_embedding(N):
    sigma = np.tril(np.ones((N, N)))
    return np.block([[np.zeros((N, N)), sigma.T], [sigma, np.zeros((N, N))]])


def qfti_state(n_k, k_amplitudes, ancilla_bit=1):
    layout = RegisterLayout((("a", 1), ("b", 1), ("c", 1), ("k", n_k)))
    amps = np.zeros(1 << (n_k + 3), dtype=complex)
    amps.reshape(layout.shape)[ancilla_bit, 0, 0] = k_amplitudes
    return Statevector(amps, layout), layout


def success_block(state, layout):
    """The k amplitudes at a = 1 and ``SUCCESS_BLOCK`` of a ``qfti_state`` layout, indexed in its (a, b, c) order."""
    return state.amplitudes.reshape(layout.shape)[(1, *(SUCCESS_BLOCK[name] for name in ("b", "c")))]


class TestSpectralNorm:
    def test_dimension_one(self):
        assert spectral_norm(1) == 1.0

    def test_dimension_two_closed_form(self):
        assert_allclose(spectral_norm(2), (1.0 + math.sqrt(5.0)) / 2.0, atol=1e-12)

    @pytest.mark.parametrize("N", [4, 16, 64])
    def test_against_dense_svd(self, N):
        dense = np.tril(np.ones((N, N)))
        expected = np.linalg.svd(dense, compute_uv=False)[0]
        assert abs(spectral_norm(N) - expected) <= 1e-9


class TestClosedFormSvd:
    """The closed-form SVD of S, held to the checks of a numerical SVD."""

    @pytest.mark.parametrize("N", [2, 7, 32])
    def test_against_numpy(self, N):
        a = np.tril(np.ones((N, N)))
        u, s, vt = summation_svd(N)
        assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-11)
        assert np.max(np.abs(u.T @ u - np.eye(N))) <= 1e-12
        assert np.max(np.abs(vt @ vt.T - np.eye(N))) <= 1e-12
        assert_allclose(s, np.linalg.svd(a, compute_uv=False), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-12)  # descending


class TestBlockEncoding:
    def test_dimension_one_conceptual_case(self):
        # Sigma = [1]; H = [[0,1],[1,0]] is already unitary, eta = 1.
        unitary, eta = block_encode_dimension(1)
        assert_allclose(eta, 1.0, atol=1e-12)
        assert_allclose(unitary[:2, :2], np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)
        assert np.max(np.abs(unitary.T @ unitary - np.eye(4))) <= 1e-10

    def test_n2_eta_golden_ratio(self):
        enc = build_block_encoding(1)  # N = 2
        assert_allclose(enc.eta, (1.0 + math.sqrt(5.0)) / 2.0, atol=1e-10)

    @pytest.mark.parametrize("n_k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_validity_and_block_fidelity(self, n_k):
        enc = build_block_encoding(n_k)
        N = enc.dimension
        dim = 4 * N
        unitary = materialise(enc)
        assert np.max(np.abs(unitary.T @ unitary - np.eye(dim))) <= 1e-10
        assert np.max(np.abs(unitary[: 2 * N, : 2 * N] - hermitian_embedding(N) / enc.eta)) <= 1e-10
        expected_eta = np.linalg.svd(np.tril(np.ones((N, N))), compute_uv=False)[0]
        assert abs(enc.eta - expected_eta) <= 1e-10

    @pytest.mark.parametrize("n_k", [2, 4, 8])
    def test_completion_block_row_isometry(self, n_k):
        # The completed top-right block B of U_H satisfies B B^T = I - H H^T / eta^2.
        enc = build_block_encoding(n_k)
        N = enc.dimension
        h_scaled = hermitian_embedding(N) / enc.eta
        b_block = materialise(enc)[: 2 * N, 2 * N :]
        assert np.max(np.abs(b_block @ b_block.T - (np.eye(2 * N) - h_scaled @ h_scaled.T))) <= 1e-9

    def test_completion_blocks_are_conjugate(self):
        # C_U S = U g sigma V^T = S C_V on the dense oracle: the identity the apply uses for C_V.
        for N in range(2, 65):
            unitary, _ = block_encode_dimension(N)
            c_v = unitary[:N, 2 * N : 3 * N]
            c_u = unitary[N : 2 * N, 3 * N :]
            s = np.tril(np.ones((N, N)))
            assert np.max(np.abs(c_v - np.linalg.inv(s) @ c_u @ s)) <= 1e-12, N

    def test_success_block(self):
        assert SUCCESS_BLOCK == {"b": 0, "c": 1}

    def test_rejects_out_of_budget(self):
        with pytest.raises(ValueError):
            build_block_encoding(0)
        with pytest.raises(ValueError):
            build_block_encoding(17)

    def test_unitary_is_frozen(self):
        enc = build_block_encoding(2)
        with pytest.raises(ValueError):
            materialise(enc)[0, 0] = 5.0


class TestMatrixFree:
    """The matrix-free apply against the dense oracle ``block_encode_dimension``."""

    @pytest.mark.parametrize("n_k", [1, 2, 3, 4, 5, 6])
    def test_apply_equals_dense(self, n_k, rng):
        enc = build_block_encoding(n_k)
        N = enc.dimension
        dense, _ = block_encode_dimension(N)
        # A batch of three operands with all four (b, c) blocks set.
        x = rng.normal(size=(3, 4 * N)) + 1j * rng.normal(size=(3, 4 * N))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        got = enc.apply(x.reshape(3, 2, 2, N)).reshape(3, 4 * N)
        assert np.max(np.abs(got - x @ dense.T)) <= 1e-12

    @pytest.mark.parametrize("n_k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "registers",
        [("f", "g", "b", "c", "k"), ("c", "g", "k", "f", "b")],
        ids=["free-above-control", "scrambled"],
    )
    def test_partial_sum_equals_dense_gate(self, n_k, registers, rng):
        # "g" is the one-qubit control register, "f" a free one; b = c = 0 everywhere.
        layout = RegisterLayout(tuple((name, n_k if name == "k" else 1) for name in registers))
        n = n_k + 4
        amps = random_state_vector(n, rng)
        index = np.arange(1 << n)
        for name in ("b", "c"):
            amps[(index >> layout.offset(name)) & 1 == 1] = 0.0
        state = Statevector(amps.copy(), layout)
        expected = dataclasses.replace(state, amplitudes=state.amplitudes.copy())
        apply_partial_sum(state, control={"g": 1})
        operand = layout.qubits("k") + layout.qubits("c") + layout.qubits("b")
        dense = block_encode_dimension(1 << n_k)[0]
        apply_register_unitary(expected, dense, operand, control=(layout.offset("g"), 1))
        assert np.max(np.abs(state.amplitudes - expected.amplitudes)) <= 1e-12
        assert state.gate_count == expected.gate_count == 1
        off = (index >> layout.offset("g")) & 1 == 0
        assert np.array_equal(state.amplitudes[off], amps[off])

    @pytest.mark.parametrize("n_k, k", [(1, 0), (3, 0), (3, 5), (6, 63), (12, 2048)])
    def test_build_rejects_corrupted_weight(self, n_k, k, monkeypatch):
        weights = psmpo._completion_weights

        def corrupted(N, eta):
            g = weights(N, eta)
            g[k] += 1e-3
            return g

        build_block_encoding.cache_clear()
        monkeypatch.setattr(psmpo, "_completion_weights", corrupted)
        with pytest.raises(RuntimeError, match="involution"):
            build_block_encoding(n_k)
        assert build_block_encoding.cache_info().currsize == 0  # a failed build is not cached

    @pytest.mark.parametrize("n_k", [14, 15, 16])
    def test_build_rejects_corrupted_first_weight_at_large_widths(self, n_k, monkeypatch):
        # g_1 = 0 since sigma_1 = eta, so its error reaches the probe only at second
        # order and falls below BLOCK_TOL from n_k = 14 on; the build checks it directly.
        weights = psmpo._completion_weights
        assert all(weights(1 << m, spectral_norm(1 << m))[0] == 0.0 for m in range(1, 17))

        def corrupted(N, eta):
            g = weights(N, eta)
            g[0] += 1e-3
            return g

        build_block_encoding.cache_clear()
        monkeypatch.setattr(psmpo, "_completion_weights", corrupted)
        with pytest.raises(RuntimeError, match="involution"):
            build_block_encoding(n_k)
        assert build_block_encoding.cache_info().currsize == 0

    @pytest.mark.parametrize("n_k", range(1, 7))
    def test_build_rejects_every_corrupted_weight(self, n_k, monkeypatch):
        # The probe must see a 1e-3 error in any one of the N weights.
        weights = psmpo._completion_weights
        for k in range(1 << n_k):
            error = np.zeros(1 << n_k)
            error[k] = 1e-3
            monkeypatch.setattr(psmpo, "_completion_weights", lambda N, eta: weights(N, eta) + error)
            build_block_encoding.cache_clear()
            with pytest.raises(RuntimeError, match="involution"):
                build_block_encoding(n_k)

    @pytest.mark.parametrize("n_k, k, error", [(3, 5, 1e-12), (8, 100, 1e-11), (12, 2048, 1e-9)])
    def test_build_rejects_a_weight_the_probe_misses(self, n_k, k, error, monkeypatch):
        # Errors far below BLOCK_TOL pass the probe; the factored closed form sees them.
        weights = psmpo._completion_weights

        def corrupted(N, eta):
            g = weights(N, eta)
            g[k] += error
            return g

        build_block_encoding.cache_clear()
        monkeypatch.setattr(psmpo, "_completion_weights", corrupted)
        with pytest.raises(RuntimeError, match="factored closed form"):
            build_block_encoding(n_k)
        assert build_block_encoding.cache_info().currsize == 0

    @pytest.mark.parametrize("n_k", range(1, 17))
    def test_weights_match_their_factored_form(self, n_k):
        N = 1 << n_k
        g = psmpo._factored_weights(N)
        assert g[0] == 0.0
        assert np.max(np.abs(psmpo._completion_weights(N, spectral_norm(N)) - g)) <= psmpo.WEIGHT_TOL

    @pytest.mark.parametrize("n_k", range(1, 9))
    def test_half_is_the_c0_column_of_the_dense_oracle(self, n_k, rng):
        # half(x) = (S x / eta, C_V x): the (b, c) = (0, 1) and (1, 0) rows of U_H's c = 0 blocks.
        enc = build_block_encoding(n_k)
        N = enc.dimension
        dense, _ = block_encode_dimension(N)
        x = rng.normal(size=(3, N)) + 1j * rng.normal(size=(3, N))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        s, cv = enc.half(x)
        assert np.max(np.abs(s - x @ dense[N : 2 * N, :N].T)) <= 1e-12
        assert np.max(np.abs(cv - x @ dense[:N, 2 * N : 3 * N].T)) <= 1e-12

    @pytest.mark.parametrize("n_k", range(1, 13))
    @pytest.mark.parametrize(
        "registers",
        [("f", "g", "b", "c", "k", "e"), ("c", "g", "k", "f", "b")],
        ids=["free-above-and-below", "scrambled"],
    )
    def test_partial_sum_equals_four_block_apply_bitwise(self, n_k, registers, rng):
        # Only b = c = 0 is populated, so applying half to that block alone is U_H exactly.
        layout = RegisterLayout(tuple((name, n_k if name == "k" else 1) for name in registers))
        n = layout.n_qubits
        amps = random_state_vector(n, rng)
        index = np.arange(1 << n)
        for name in ("b", "c"):
            amps[(index >> layout.offset(name)) & 1 == 1] = 0.0
        state = Statevector(amps.copy(), layout)
        # The g = 1 branch as [free registers..., b, c, k], by moving the register axes.
        shaped = state.amplitudes.reshape(layout.shape)
        operand = np.moveaxis(shaped, [registers.index(name) for name in "gbck"], [0, -3, -2, -1])[1]
        expected = build_block_encoding(n_k).apply(operand)
        apply_partial_sum(state, control={"g": 1})
        assert np.array_equal(operand, expected)
        off = (index >> layout.offset("g")) & 1 == 0
        assert np.array_equal(state.amplitudes[off], amps[off])

    def test_run_path_sine_sums_see_one_row(self, monkeypatch):
        # An exact QFTI run sums over the populated block alone: one length-N row per sine sum.
        n = 8
        build_block_encoding(n)
        shapes = []
        sine_sum = psmpo._sine_sum

        def recording(x, *args):
            shapes.append(x.shape)
            return sine_sum(x, *args)

        monkeypatch.setattr(psmpo, "_sine_sum", recording)
        qfti_run(sample_catalog("poly", n), shots=None)
        assert shapes == [(1 << n,)] * 2

    def test_materialised_imaginary_part_rejected(self):
        enc = build_block_encoding(2)
        with pytest.raises(RuntimeError, match="imaginary"):
            materialise(dataclasses.replace(enc, weights=enc.weights * (1 + 1e-6j)))

    def test_control_inside_operand_rejected(self, rng):
        state, _ = qfti_state(2, random_state_vector(2, rng))
        before = state.amplitudes.copy()
        for register in ("b", "c", "k"):
            with pytest.raises(ValueError, match="control register"):
                apply_partial_sum(state, control={register: 1})
        assert np.array_equal(state.amplitudes, before)


class TestSummationEigenpairs:
    """``half`` against Yueh's closed-form eigenpairs (``checks.check_summation_eigenpairs``)."""

    @pytest.mark.parametrize("N", [2, 7, 32])
    def test_closed_forms_are_singular_triplets(self, N):
        ks = list(range(1, N + 1))
        u, v, sigma, g = summation_eigenpairs(N, ks)
        s = np.tril(np.ones((N, N)))
        assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(v @ s.T - sigma[:, None] * u)) <= 1e-11
        assert np.max(np.abs(u @ s - sigma[:, None] * v)) <= 1e-11
        assert_allclose(g, np.sqrt(np.clip(1.0 - (sigma / spectral_norm(N)) ** 2, 0.0, 1.0)), atol=1e-13)

    @pytest.mark.parametrize("n_k", range(1, 13))
    def test_check_passes(self, n_k):
        result = checks.check_summation_eigenpairs(n_k)
        assert result.passed, result.detail

    @pytest.mark.parametrize("k", [1, 2048])
    def test_check_sees_one_weight_off(self, k, monkeypatch):
        # The build would refuse these weights, so the encoding is constructed directly.
        n_k = 12
        weights = psmpo._completion_weights(1 << n_k, spectral_norm(1 << n_k))
        weights[k] += 1e-3
        monkeypatch.setattr(psmpo, "build_block_encoding", lambda n: BlockEncoding(weights))
        result = checks.check_summation_eigenpairs(n_k)
        assert not result.passed
        assert float(result.detail.split()[2]) > 1e-5, result.detail

    def test_check_sees_swapped_inner_sine_sum(self, monkeypatch):
        # half's inner sine sum with its slots and bins exchanged: the build's probe
        # refuses it too, so the encoding is constructed directly.
        n_k = 12
        N = 1 << n_k
        sine_sum = psmpo._sine_sum

        def swapped(x, slots, bins, length):
            if slots[-1] == N:  # the inner call sums over slots 1..N
                slots, bins = bins, slots
            return sine_sum(x, slots, bins, length)

        monkeypatch.setattr(psmpo, "_sine_sum", swapped)
        enc = BlockEncoding(psmpo._completion_weights(N, spectral_norm(N)))
        monkeypatch.setattr(psmpo, "build_block_encoding", lambda n: enc)
        result = checks.check_summation_eigenpairs(n_k)
        assert not result.passed
        assert float(result.detail.split()[2]) > 1.0, result.detail


class TestApplyPartialSum:
    def test_first_basis_vector_gives_all_ones_column(self):
        n_k = 3
        N = 1 << n_k
        enc = build_block_encoding(n_k)
        amplitudes = np.zeros(N)
        amplitudes[0] = 1.0
        state, layout = qfti_state(n_k, amplitudes)
        apply_partial_sum(state, control={"a": 1})
        got = success_block(state, layout)
        assert_allclose(got, np.ones(N) / enc.eta, atol=1e-10)

    def test_uniform_input_gives_ramp(self):
        n_k = 3
        N = 1 << n_k
        enc = build_block_encoding(n_k)
        state, layout = qfti_state(n_k, np.full(N, 1.0 / math.sqrt(N)))
        apply_partial_sum(state, control={"a": 1})
        got = success_block(state, layout)
        expected = np.cumsum(np.full(N, 1.0 / math.sqrt(N))) / enc.eta
        assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("basis", [1, 3, 6])
    def test_basis_vectors_reproduce_matrix_columns(self, basis):
        n_k = 3
        N = 1 << n_k
        enc = build_block_encoding(n_k)
        amplitudes = np.zeros(N)
        amplitudes[basis] = 1.0
        state, layout = qfti_state(n_k, amplitudes)
        apply_partial_sum(state, control={"a": 1})
        got = success_block(state, layout)
        assert_allclose(got, np.tril(np.ones((N, N)))[:, basis] / enc.eta, atol=1e-10)

    def test_zero_controlled_branch_stays_zero(self, rng):
        # All amplitude on a=0 while the gate is controlled on a=1.
        n_k = 2
        state, layout = qfti_state(n_k, random_state_vector(n_k, rng), ancilla_bit=0)
        before = state.amplitudes.copy()
        apply_partial_sum(state, control={"a": 1})
        assert np.array_equal(state.amplitudes, before)
        success = success_block(state, layout)
        assert np.max(np.abs(success)) == 0.0

    def test_success_probability_conservation(self, rng):
        n_k = 4
        N = 1 << n_k
        enc = build_block_encoding(n_k)
        amplitudes = random_state_vector(n_k, rng).real
        amplitudes /= np.linalg.norm(amplitudes)
        state, layout = qfti_state(n_k, amplitudes)
        apply_partial_sum(state, control={"a": 1})
        got = success_block(state, layout)
        expected = np.linalg.norm(np.cumsum(amplitudes)) ** 2 / enc.eta**2
        assert abs(np.sum(np.abs(got) ** 2) - expected) <= 1e-10

    def test_rejects_occupied_bc_registers(self, rng):
        # The check is exact: a unit amplitude at b = 1 and a 1e-20 one beside
        # the populated b = c = 0 block are both refused, with the state untouched.
        n_k = 2
        layout = RegisterLayout((("a", 1), ("b", 1), ("c", 1), ("k", n_k)))
        occupied = np.zeros(1 << (n_k + 3), dtype=complex)
        occupied.reshape(layout.shape)[1, 1, 0, 0] = 1.0
        stray = qfti_state(n_k, random_state_vector(n_k, rng))[0].amplitudes
        stray.reshape(layout.shape)[1, 1, 0, 1] = 1e-20
        for amps in (occupied, stray):
            state = Statevector(amps.copy(), layout)
            with pytest.raises(ValueError, match="b/c"):
                apply_partial_sum(state, control={"a": 1})
            assert np.array_equal(state.amplitudes, amps)

    def test_bc_check_reads_only_the_controlled_branch(self, rng):
        # (b, c) = (1, 0) amplitude on the a = 0 branch lies outside control={"a": 1}, which the
        # summation leaves alone: it runs, writes half bitwise and keeps a = 0 bitwise.
        n_k = 3
        state, layout = qfti_state(n_k, random_state_vector(n_k, rng))
        amps = state.amplitudes.reshape(layout.shape)
        amps[0, 1, 0] = random_state_vector(n_k, rng)
        before = amps.copy()
        apply_partial_sum(state, control={"a": 1})
        s, cv = build_block_encoding(n_k).half(before[1, 0, 0])
        assert np.array_equal(amps[1, 0, 1], s) and np.array_equal(amps[1, 1, 0], cv)
        assert not amps[1, 0, 0].any() and not amps[1, 1, 1].any()
        assert np.array_equal(amps[0], before[0])
        assert state.gate_count == 1

    def test_summation_under_a_zero_control(self, rng):
        # The summation is the same unitary under any control value: {"a": 0} writes half of
        # the a = 0 block and leaves the a = 1 branch bitwise untouched.
        n_k = 3
        layout = RegisterLayout((("a", 1), ("b", 1), ("c", 1), ("k", n_k)))
        amps = np.zeros(layout.shape, dtype=complex)
        amps[:, 0, 0] = random_state_vector(n_k + 1, rng).reshape(2, -1)
        state = Statevector(amps.reshape(-1).copy(), layout)
        apply_partial_sum(state, control={"a": 0})
        got = state.amplitudes.reshape(layout.shape)
        s, cv = build_block_encoding(n_k).half(amps[0, 0, 0])
        assert np.array_equal(got[0, 0, 1], s) and np.array_equal(got[0, 1, 0], cv)
        assert not got[0, 0, 0].any() and not got[0, 1, 1].any()
        assert np.array_equal(got[1], amps[1])
        assert state.gate_count == 1
