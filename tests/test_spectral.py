import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qftcalc import spectral
from qftcalc.pipelines import MODE_DERIVATIVE, MODE_INTEGRAL
from qftcalc.reference import qft_gate_sequence, reconstructed_rotation, rotation_angles, rx_gate
from qftcalc.spectral import SUCCESS_BIT, _rotation_factors, _rotation_turns, qft, wavenumber_rotation
from qftcalc.state import RegisterLayout, Statevector, apply_gate, apply_register_unitary

from conftest import embed_full, random_state_vector


def k_state(n, amplitudes=None):
    layout = RegisterLayout((("k", n),))
    if amplitudes is None:
        amplitudes = np.zeros(1 << n)
        amplitudes[0] = 1.0
    return Statevector(amplitudes, layout)


def ak_state(n, spectrum, ancilla_bit):
    """Ancilla+register state with the given spectrum on the ancilla branch."""
    layout = RegisterLayout((("a", 1), ("k", n)))
    amps = np.zeros(2 << n, dtype=complex)
    offset = ancilla_bit << n
    amps[offset : offset + (1 << n)] = spectrum
    return Statevector(amps, layout), layout


def dft_matrix(n):
    dim = 1 << n
    k = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)


class TestQft:
    def test_delta_to_uniform(self):
        for n in (1, 2, 4):
            state = qft(k_state(n))
            assert_allclose(state.amplitudes, np.full(1 << n, 1.0 / math.sqrt(1 << n)), atol=1e-14)

    def test_basis_one_two_qubits(self):
        amps = np.zeros(4)
        amps[1] = 1.0
        state = qft(k_state(2, amps))
        assert_allclose(state.amplitudes, np.array([1, 1j, -1, -1j]) / 2.0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dft_matrix(self, n):
        dim = 1 << n
        built = np.zeros((dim, dim), dtype=complex)
        inverse = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            amps = np.zeros(dim)
            amps[j] = 1.0
            built[:, j] = qft(k_state(n, amps.copy())).amplitudes
            inverse[:, j] = qft(k_state(n, amps), inverse=True).amplitudes
        expected = dft_matrix(n)
        assert np.max(np.abs(built - expected)) <= 1e-12
        assert np.max(np.abs(inverse - expected.conj().T)) <= 1e-12

    def test_roundtrip_identity(self, rng):
        amps = random_state_vector(6, rng)
        state = k_state(6, amps.copy())
        qft(state)
        qft(state, inverse=True)
        assert np.max(np.abs(state.amplitudes - amps)) <= 1e-12
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12

    def test_layout_without_k_register_rejected(self):
        with pytest.raises(KeyError):
            qft(Statevector(np.eye(4)[0], RegisterLayout((("x", 2),))))

    def test_controlled_qft_acts_blockwise(self, rng):
        # Control on the ancilla: a=0 branch untouched, a=1 branch transformed.
        n = 3
        spectrum = random_state_vector(n, rng)
        layout = RegisterLayout((("a", 1), ("k", n)))
        amps = np.zeros(2 << n, dtype=complex)
        amps[: 1 << n] = spectrum / np.sqrt(2.0)
        amps[1 << n :] = spectrum / np.sqrt(2.0)
        state = Statevector(amps.copy(), layout)
        qft(state, control=(layout.qubits("a")[0], 1))
        assert np.array_equal(state.amplitudes[: 1 << n], amps[: 1 << n])
        assert_allclose(state.amplitudes[1 << n :], dft_matrix(n) @ amps[1 << n :], atol=1e-12)

    def test_control_is_keyword_only(self):
        # perfbench/tracer.py reads a controlled call's control from its keywords.
        layout = RegisterLayout((("a", 1), ("k", 2)))
        with pytest.raises(TypeError):
            qft(Statevector(np.eye(8)[0], layout), False, (2, 1))

    def test_control_inside_register_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            qft(k_state(3), control=(1, 1))

    @pytest.mark.parametrize("registers", [(("a", 1), ("k", 5)), (("a", 1), ("b", 1), ("c", 1), ("k", 5))])
    def test_pipeline_layout_keeps_the_amplitude_array(self, registers, rng):
        # The transform writes into the state's own array: no result array replaces it.
        layout = RegisterLayout(registers)
        state = Statevector(random_state_vector(layout.n_qubits, rng), layout)
        amplitudes = state.amplitudes
        (a_qubit,) = layout.qubits("a")
        qft(state, control=(a_qubit, 0))
        qft(state, inverse=True, control=(a_qubit, 1))
        assert state.amplitudes is amplitudes


# Widths of the free registers y (above k) and x (below k), and the control
# as (register, polarity) on that register's lowest qubit.
FREE_QUBIT_LAYOUTS = {
    "control-above": (1, 1, ("y", 1)),
    "control-below": (2, 2, ("x", 0)),
    "no-control": (1, 1, None),
}


def check_against_replay(layout, inverse, control, rng):
    """``qft`` on register k within 1e-13 of a gate-by-gate replay, with equal gate counts."""
    width, n = layout.n_qubits, layout.width("k")
    amps = random_state_vector(width, rng)
    transformed = qft(Statevector(amps.copy(), layout), inverse=inverse, control=control)
    replay = Statevector(amps.copy(), layout)
    outer = (control,) if control else ()
    for payload, targets, controls in qft_gate_sequence(layout.qubits("k"), inverse):
        apply_gate(replay, payload, targets, controls + outer)
    assert np.max(np.abs(transformed.amplitudes - replay.amplitudes)) <= 1e-13
    assert transformed.gate_count == replay.gate_count == n * (n + 1) // 2 + n // 2


class TestFusedQft:
    """The FFT-based QFT against a gate-by-gate replay of ``qft_gate_sequence``."""

    @pytest.mark.parametrize("control", [None, (0, 1), (0, 0)])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_gate_replay(self, n, inverse, control, rng):
        # The k register sits above a spare qubit 0 that carries the control.
        check_against_replay(RegisterLayout((("k", n), ("x", 1))), inverse, control, rng)

    @pytest.mark.parametrize(
        "n, layout",
        [(n, layout) for n in range(1, 7) for layout in FREE_QUBIT_LAYOUTS] + [(10, "control-above")],
    )
    @pytest.mark.parametrize("inverse", [False, True])
    def test_register_between_free_qubits(self, n, layout, inverse, rng):
        above, below, control = FREE_QUBIT_LAYOUTS[layout]
        layout = RegisterLayout((("y", above), ("k", n), ("x", below)))
        if control is not None:
            control = (layout.qubits(control[0])[0], control[1])
        check_against_replay(layout, inverse, control, rng)

    @pytest.mark.parametrize("control", [(0, 2), (7, 1), (-1, 1), (0, 5)])
    def test_bad_control_rejected(self, control, rng):
        # The QFT and a register unitary on the same qubits share one control check.
        layout = RegisterLayout((("k", 3), ("x", 1)))
        state = Statevector(random_state_vector(4, rng), layout)
        before = state.amplitudes.copy()
        with pytest.raises(ValueError):
            qft(state, control=control)
        with pytest.raises(ValueError):
            apply_register_unitary(state, np.eye(8), layout.qubits("k"), control=control)
        assert np.array_equal(state.amplitudes, before)


class TestAngleSchedule:
    def test_n1_rotation_is_pi(self):
        assert reconstructed_rotation(rotation_angles(1), 1) == Fraction(1)  # theta_1 = pi

    def test_n3_angles_quarter_half_full(self):
        angles = rotation_angles(3)
        assert angles == (Fraction(-1, 2), Fraction(-1), Fraction(-2))
        assert tuple(float(a) * math.pi for a in angles) == (-math.pi / 2.0, -math.pi, -2.0 * math.pi)

    @pytest.mark.parametrize("n", [3, 8])
    def test_reconstruction_exhaustive(self, n):
        angles = rotation_angles(n)
        for k in range(1 << n):
            assert reconstructed_rotation(angles, k) == Fraction(2 * k, 1 << n)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_fused_turns_are_the_exact_rotations(self, n):
        angles = rotation_angles(n)
        expected = [float(-2 * reconstructed_rotation(angles, k)) for k in range(1 << n)]
        assert _rotation_turns(n).tolist() == expected

    @pytest.mark.parametrize("n", range(1, 17))
    def test_closed_form_turns_are_the_oracle_bytes(self, n):
        # Bit for bit, the sign of zero at k = 0 included: the factors built
        # from these turns must not move in the last place. The oracle sums
        # the exact angles over the set bits of every k, one bit at a time
        # (the indices with bit p set are those below 2^p, plus angle p).
        sums = [Fraction(0)]
        for angle in rotation_angles(n):
            sums += [total + angle for total in sums]
        assert _rotation_turns(n).tobytes() == np.array([float(total) for total in sums]).tobytes()

    def test_n8_top_value(self):
        assert reconstructed_rotation(rotation_angles(8), 255) == Fraction(2 * 255, 256)

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            rotation_angles(0)


def check_against_cascade(state):
    """``wavenumber_rotation`` within 1e-13 of a gate-by-gate controlled-Rx replay, with equal gate counts."""
    layout = state.layout
    k_qubits = layout.qubits("k")
    cascade = dataclasses.replace(state, amplitudes=state.amplitudes.copy())
    wavenumber_rotation(state)
    (a_qubit,) = layout.qubits("a")
    for k_qubit, angle in zip(k_qubits, rotation_angles(len(k_qubits))):
        apply_gate(cascade, rx_gate(float(angle) * math.pi), (a_qubit,), ((k_qubit, 1),))
    assert np.max(np.abs(state.amplitudes - cascade.amplitudes)) <= 1e-13
    assert state.gate_count == cascade.gate_count == len(k_qubits)


def start_bit(mode):
    """The ancilla's basis state before the cascade: 0 for the derivative, 1 for the integral."""
    return int(mode == MODE_INTEGRAL)


def start_branch_state(registers, mode, rng):
    """A state on ``registers`` whose whole ancilla start branch for ``mode`` is random."""
    layout = RegisterLayout(registers)
    width = layout.n_qubits
    amps = np.zeros(1 << width, dtype=complex)
    half = 1 << (width - 1)
    amps[start_bit(mode) * half :][:half] = random_state_vector(width - 1, rng)
    return Statevector(amps, layout)


class TestRotationFactors:
    def test_factors_are_read_only(self):
        for factor in _rotation_factors(4):
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0, 0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                factor.base[0] = 2.0

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_one_entry_per_register_width(self, n, rng):
        # Both circuits read the one entry of their k width.
        factors = _rotation_factors(n)
        misses = _rotation_factors.cache_info().misses
        assert _rotation_factors(n) is factors
        for mode in (MODE_DERIVATIVE, MODE_INTEGRAL):
            wavenumber_rotation(start_branch_state((("a", 1), ("k", n)), mode, rng))
        assert _rotation_factors.cache_info().misses == misses

    def test_unitarity_checked_at_build(self, monkeypatch, rng):
        # No dyadic angle misses the tolerance, so the test makes it negative
        # and empties the memo, so that this call builds its entry.
        state, _ = ak_state(1, random_state_vector(1, rng), ancilla_bit=0)
        before = state.amplitudes.copy()
        _rotation_factors.cache_clear()
        monkeypatch.setattr(spectral, "UNITARY_TOL", -1.0)
        with pytest.raises(ValueError, match="not unitary"):
            wavenumber_rotation(state)
        assert _rotation_factors.cache_info().currsize == 0
        assert np.array_equal(state.amplitudes, before)


class TestWavenumberRotation:
    def test_k0_derivative_success_amplitude_vanishes(self):
        n = 3
        spectrum = np.zeros(1 << n)
        spectrum[0] = 1.0
        state, layout = ak_state(n, spectrum, ancilla_bit=0)
        wavenumber_rotation(state)
        success = state.amplitudes[layout.index_for({"a": 1, "k": 0})]
        assert abs(success) <= 1e-15

    def test_k0_integral_success_amplitude_unchanged(self):
        n = 3
        spectrum = np.zeros(1 << n)
        spectrum[0] = 1.0
        state, layout = ak_state(n, spectrum, ancilla_bit=1)
        wavenumber_rotation(state)
        success = state.amplitudes[layout.index_for({"a": 1, "k": 0})]
        assert_allclose(success, 1.0, atol=1e-15)

    def test_success_amplitudes_match_dense_cascade(self, rng):
        # Two oracles: the Kronecker-embedded controlled-Rx product, and the
        # analytic i*sin(2 pi k/N) law it should realize.
        n = 3
        spectrum = random_state_vector(n, rng)
        state, layout = ak_state(n, spectrum, ancilla_bit=0)
        initial = state.amplitudes.copy()
        wavenumber_rotation(state)

        cascade = np.eye(2 << n, dtype=complex)
        a_qubit = layout.qubits("a")[0]
        for p, angle in enumerate(float(a) * math.pi for a in rotation_angles(n)):
            gate = embed_full(n + 1, rx_gate(angle), (a_qubit,), ((layout.qubits("k")[p], 1),))
            cascade = gate @ cascade
        assert_allclose(state.amplitudes, cascade @ initial, atol=1e-12)

        k = np.arange(1 << n)
        expected_success = 1j * np.sin(2.0 * np.pi * k / (1 << n)) * spectrum
        assert_allclose(state.amplitudes[1 << n :], expected_success, atol=1e-12)

    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_fused_matches_gate_cascade(self, mode, n, rng):
        state, _ = ak_state(n, random_state_vector(n, rng), ancilla_bit=start_bit(mode))
        check_against_cascade(state)

    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    @pytest.mark.parametrize(
        "registers",
        [
            (("a", 1), ("k", 4), ("b", 1)),
            (("a", 1), ("y", 2), ("k", 3), ("x", 2)),
            (("a", 1), ("b", 1), ("c", 1), ("k", 5)),
        ],
        ids=["k-above-b", "k-between-y-x", "qfti-abck"],
    )
    def test_matches_gate_cascade_on_other_layouts(self, registers, mode, rng):
        # Every register other than a carries amplitude, so the update has to
        # broadcast over the qubits above and below k.
        check_against_cascade(start_branch_state(registers, mode, rng))

    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_success_branch_law(self, mode, n, rng):
        spectrum = random_state_vector(n, rng)
        state, _ = ak_state(n, spectrum, ancilla_bit=start_bit(mode))
        wavenumber_rotation(state)
        success = state.amplitudes[SUCCESS_BIT << n :][: 1 << n]
        k = np.arange(1 << n)
        trig = np.sin if mode == MODE_DERIVATIVE else np.cos
        expected = np.abs(trig(2.0 * np.pi * k / (1 << n))) * np.abs(spectrum)
        assert np.max(np.abs(np.abs(success) - expected)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 5])
    def test_branch_completeness(self, n, rng):
        spectrum = random_state_vector(n, rng)
        state, _ = ak_state(n, spectrum, ancilla_bit=0)
        wavenumber_rotation(state)
        probs = np.abs(state.amplitudes) ** 2
        total = probs[: 1 << n] + probs[1 << n :]
        assert np.max(np.abs(total - np.abs(spectrum) ** 2)) <= 1e-12

    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    @pytest.mark.parametrize(
        "registers",
        [(("a", 1), ("k", 16)), (("a", 1), ("b", 1), ("c", 1), ("k", 14))],
        ids=["qftd-ak-16", "qfti-abck-14"],
    )
    def test_update_allocates_no_branch_sized_temporary(self, registers, mode, rng):
        # Each state is 2 MiB and each branch 1 MiB; with the factors already
        # built, only numpy's small casting buffers may be allocated.
        state = start_branch_state(registers, mode, rng)
        _rotation_factors(state.layout.width("k"))
        tracemalloc.start()
        try:
            wavenumber_rotation(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_rejects_superposed_ancilla(self, rng):
        # The check is exact: a uniform superposition and a single 1e-20
        # amplitude on either branch beside a populated other branch are
        # refused, with the state untouched and no gate counted.
        n = 2
        layout = RegisterLayout((("a", 1), ("k", n)))
        cases = [np.full(2 << n, 1.0 / math.sqrt(2 << n))]
        for populated in (0, 1):
            stray = np.zeros(2 << n, dtype=complex)
            stray[populated << n :][: 1 << n] = random_state_vector(n, rng)
            stray[layout.index_for({"a": 1 - populated, "k": 3})] = 1e-20
            cases.append(stray)
        for amps in cases:
            state = Statevector(amps.copy(), layout)
            with pytest.raises(ValueError, match="ancilla"):
                wavenumber_rotation(state)
            assert np.array_equal(state.amplitudes, amps)
            assert state.gate_count == 0

    @pytest.mark.parametrize("populated", [0, 1])
    def test_scans_each_branch_at_most_once(self, populated, monkeypatch, rng):
        # A state starting in |0> (QFTD) scans only its empty |1> branch; one
        # starting in |1> (QFTI) scans its |1> branch, then the empty |0> branch.
        state, _ = ak_state(3, random_state_vector(3, rng), ancilla_bit=populated)
        scans = []
        real_operand = spectral._operand

        class Branch(np.ndarray):
            def any(self, *args, **kwargs):
                scans.append(self.bit)
                return np.asarray(self).any(*args, **kwargs)

        def operand(state, qubits, controls=()):
            view = real_operand(state, qubits, controls).view(Branch)
            view.bit = controls[0][1]
            return view

        monkeypatch.setattr(spectral, "_operand", operand)
        wavenumber_rotation(state)
        assert scans == ([1] if populated == 0 else [1, 0])
