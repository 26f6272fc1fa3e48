import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qftcalc import spectral
from qftcalc.spectral import (
    MODE_DERIVATIVE,
    MODE_INTEGRAL,
    SUCCESS_BIT,
    WavenumberSchedule,
    _qft_gate_sequence,
    _rotation_factors,
    _rotation_turns,
    angle_schedule,
    qft,
    reconstructed_rotation,
    wavenumber_rotation,
)
from qftcalc.state import GateOp, RegisterLayout, Statevector, apply_gate, apply_register_unitary, rx_gate

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
            state = qft(k_state(n), "k")
            assert_allclose(state.amplitudes, np.full(1 << n, 1.0 / math.sqrt(1 << n)), atol=1e-14)

    def test_basis_one_two_qubits(self):
        amps = np.zeros(4)
        amps[1] = 1.0
        state = qft(k_state(2, amps), "k")
        assert_allclose(state.amplitudes, np.array([1, 1j, -1, -1j]) / 2.0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dft_matrix(self, n):
        dim = 1 << n
        built = np.zeros((dim, dim), dtype=complex)
        inverse = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            amps = np.zeros(dim)
            amps[j] = 1.0
            built[:, j] = qft(k_state(n, amps.copy()), "k").amplitudes
            inverse[:, j] = qft(k_state(n, amps), "k", inverse=True).amplitudes
        expected = dft_matrix(n)
        assert np.max(np.abs(built - expected)) <= 1e-12
        assert np.max(np.abs(inverse - expected.conj().T)) <= 1e-12

    def test_roundtrip_identity(self, rng):
        amps = random_state_vector(6, rng)
        state = k_state(6, amps.copy())
        qft(state, "k")
        qft(state, "k", inverse=True)
        assert np.max(np.abs(state.amplitudes - amps)) <= 1e-12
        assert abs(state.norm() - 1.0) <= 1e-12

    def test_unknown_register_rejected(self):
        with pytest.raises(KeyError):
            qft(k_state(2), "nope")

    def test_controlled_qft_acts_blockwise(self, rng):
        # Control on the ancilla: a=0 branch untouched, a=1 branch transformed.
        n = 3
        spectrum = random_state_vector(n, rng)
        layout = RegisterLayout((("a", 1), ("k", n)))
        amps = np.zeros(2 << n, dtype=complex)
        amps[: 1 << n] = spectrum / np.sqrt(2.0)
        amps[1 << n :] = spectrum / np.sqrt(2.0)
        state = Statevector(amps.copy(), layout)
        qft(state, "k", control=(layout.qubits("a")[0], 1))
        assert np.array_equal(state.amplitudes[: 1 << n], amps[: 1 << n])
        assert_allclose(state.amplitudes[1 << n :], dft_matrix(n) @ amps[1 << n :], atol=1e-12)

    def test_control_inside_register_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            qft(k_state(3), "k", control=(1, 1))

    @pytest.mark.parametrize("registers", [(("a", 1), ("k", 5)), (("a", 1), ("b", 1), ("c", 1), ("k", 5))])
    def test_pipeline_layout_keeps_the_amplitude_array(self, registers, rng):
        # The transform writes into the state's own array: no result array replaces it.
        layout = RegisterLayout(registers)
        state = Statevector(random_state_vector(layout.n_qubits, rng), layout)
        amplitudes = state.amplitudes
        (a_qubit,) = layout.qubits("a")
        qft(state, "k", control=(a_qubit, 0))
        qft(state, "k", inverse=True, control=(a_qubit, 1))
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
    transformed = qft(Statevector(amps.copy(), layout), "k", inverse=inverse, control=control)
    replay = Statevector(amps.copy(), layout)
    outer = (control,) if control else ()
    for payload, targets, controls in _qft_gate_sequence(layout.qubits("k"), inverse):
        apply_gate(replay, GateOp(payload, targets, controls + outer))
    assert np.max(np.abs(transformed.amplitudes - replay.amplitudes)) <= 1e-13
    assert transformed.gate_count == replay.gate_count == n * (n + 1) // 2 + n // 2


class TestFusedQft:
    """The FFT-based QFT against a gate-by-gate replay of ``_qft_gate_sequence``."""

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
            qft(state, "k", control=control)
        with pytest.raises(ValueError):
            apply_register_unitary(state, np.eye(8), layout.qubits("k"), control=control)
        assert np.array_equal(state.amplitudes, before)


class TestAngleSchedule:
    def test_n1_rotation_is_pi(self):
        schedule = angle_schedule(1, MODE_DERIVATIVE)
        assert reconstructed_rotation(schedule, 1) == Fraction(1)  # theta_1 = pi

    def test_n3_angles_quarter_half_full(self):
        schedule = angle_schedule(3, MODE_DERIVATIVE)
        assert schedule.angles == (Fraction(-1, 2), Fraction(-1), Fraction(-2))
        assert tuple(float(a) * math.pi for a in schedule.angles) == (-math.pi / 2.0, -math.pi, -2.0 * math.pi)

    @pytest.mark.parametrize("n", [3, 8])
    def test_reconstruction_exhaustive(self, n):
        schedule = angle_schedule(n, MODE_DERIVATIVE)
        for k in range(1 << n):
            assert reconstructed_rotation(schedule, k) == Fraction(2 * k, 1 << n)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_fused_turns_are_the_exact_rotations(self, n):
        schedule = angle_schedule(n, MODE_DERIVATIVE)
        expected = [float(-2 * reconstructed_rotation(schedule, k)) for k in range(1 << n)]
        assert _rotation_turns(schedule.angles).tolist() == expected

    def test_n8_top_value(self):
        schedule = angle_schedule(8, MODE_INTEGRAL)
        assert reconstructed_rotation(schedule, 255) == Fraction(2 * 255, 256)

    def test_mode_bits(self):
        assert angle_schedule(4, MODE_DERIVATIVE).ancilla_init == 0
        assert angle_schedule(4, MODE_INTEGRAL).ancilla_init == 1

    def test_rejects_n0_and_bad_mode(self):
        with pytest.raises(ValueError):
            angle_schedule(0, MODE_DERIVATIVE)
        with pytest.raises(ValueError):
            angle_schedule(3, "antiderivative")


def check_against_cascade(state, schedule):
    """``wavenumber_rotation`` within 1e-13 of a gate-by-gate controlled-Rx replay, with equal gate counts."""
    layout = state.layout
    cascade = dataclasses.replace(state, amplitudes=state.amplitudes.copy())
    wavenumber_rotation(state, schedule)
    (a_qubit,) = layout.qubits("a")
    for p, angle in enumerate(float(a) * math.pi for a in schedule.angles):
        apply_gate(cascade, GateOp(rx_gate(angle), (a_qubit,), ((layout.qubits("k")[p], 1),)))
    assert np.max(np.abs(state.amplitudes - cascade.amplitudes)) <= 1e-13
    assert state.gate_count == cascade.gate_count == schedule.n


def start_branch_state(registers, mode, rng):
    """A state on ``registers`` whose whole ancilla start branch is random, and its schedule."""
    layout = RegisterLayout(registers)
    width = layout.n_qubits
    schedule = angle_schedule(layout.width("k"), mode)
    amps = np.zeros(1 << width, dtype=complex)
    half = 1 << (width - 1)
    amps[schedule.ancilla_init * half :][:half] = random_state_vector(width - 1, rng)
    return Statevector(amps, layout), schedule


class TestRotationFactors:
    def test_factors_are_read_only(self):
        for factor in _rotation_factors(angle_schedule(4, MODE_DERIVATIVE).angles):
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0, 0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                factor.base[0] = 2.0

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_one_entry_per_register_width(self, n):
        factors = _rotation_factors(angle_schedule(n, MODE_DERIVATIVE).angles)
        misses = _rotation_factors.cache_info().misses
        assert _rotation_factors(angle_schedule(n, MODE_DERIVATIVE).angles) is factors
        assert _rotation_factors(angle_schedule(n, MODE_INTEGRAL).angles) is factors
        assert _rotation_factors.cache_info().misses == misses

    def test_unitarity_checked_at_build(self, monkeypatch, rng):
        # No dyadic angle misses the tolerance, so the test makes it negative.
        # The angle 1/3 appears in no schedule, so this call builds its entry.
        schedule = WavenumberSchedule(angles=(Fraction(1, 3),), ancilla_init=0)
        state, _ = ak_state(1, random_state_vector(1, rng), ancilla_bit=0)
        before = state.amplitudes.copy()
        entries = _rotation_factors.cache_info().currsize
        monkeypatch.setattr(spectral, "UNITARY_TOL", -1.0)
        with pytest.raises(ValueError, match="not unitary"):
            wavenumber_rotation(state, schedule)
        assert _rotation_factors.cache_info().currsize == entries
        assert np.array_equal(state.amplitudes, before)


class TestWavenumberRotation:
    def test_k0_derivative_success_amplitude_vanishes(self):
        n = 3
        spectrum = np.zeros(1 << n)
        spectrum[0] = 1.0
        state, layout = ak_state(n, spectrum, ancilla_bit=0)
        wavenumber_rotation(state, angle_schedule(n, MODE_DERIVATIVE))
        success = state.amplitudes[layout.index_for({"a": 1, "k": 0})]
        assert abs(success) <= 1e-15

    def test_k0_integral_success_amplitude_unchanged(self):
        n = 3
        spectrum = np.zeros(1 << n)
        spectrum[0] = 1.0
        state, layout = ak_state(n, spectrum, ancilla_bit=1)
        wavenumber_rotation(state, angle_schedule(n, MODE_INTEGRAL))
        success = state.amplitudes[layout.index_for({"a": 1, "k": 0})]
        assert_allclose(success, 1.0, atol=1e-15)

    def test_success_amplitudes_match_dense_cascade(self, rng):
        # Two oracles: the Kronecker-embedded controlled-Rx product, and the
        # analytic i*sin(2 pi k/N) law it should realize.
        n = 3
        spectrum = random_state_vector(n, rng)
        schedule = angle_schedule(n, MODE_DERIVATIVE)
        state, layout = ak_state(n, spectrum, ancilla_bit=0)
        initial = state.amplitudes.copy()
        wavenumber_rotation(state, schedule)

        cascade = np.eye(2 << n, dtype=complex)
        a_qubit = layout.qubits("a")[0]
        for p, angle in enumerate(float(a) * math.pi for a in schedule.angles):
            gate = embed_full(n + 1, rx_gate(angle), (a_qubit,), ((layout.qubits("k")[p], 1),))
            cascade = gate @ cascade
        assert_allclose(state.amplitudes, cascade @ initial, atol=1e-12)

        k = np.arange(1 << n)
        expected_success = 1j * np.sin(2.0 * np.pi * k / (1 << n)) * spectrum
        assert_allclose(state.amplitudes[1 << n :], expected_success, atol=1e-12)

    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_fused_matches_gate_cascade(self, mode, n, rng):
        schedule = angle_schedule(n, mode)
        state, _ = ak_state(n, random_state_vector(n, rng), ancilla_bit=schedule.ancilla_init)
        check_against_cascade(state, schedule)

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
        check_against_cascade(*start_branch_state(registers, mode, rng))

    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_success_branch_law(self, mode, n, rng):
        spectrum = random_state_vector(n, rng)
        schedule = angle_schedule(n, mode)
        state, _ = ak_state(n, spectrum, ancilla_bit=schedule.ancilla_init)
        wavenumber_rotation(state, schedule)
        success = state.amplitudes[SUCCESS_BIT << n :][: 1 << n]
        k = np.arange(1 << n)
        trig = np.sin if mode == MODE_DERIVATIVE else np.cos
        expected = np.abs(trig(2.0 * np.pi * k / (1 << n))) * np.abs(spectrum)
        assert np.max(np.abs(np.abs(success) - expected)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 5])
    def test_branch_completeness(self, n, rng):
        spectrum = random_state_vector(n, rng)
        state, _ = ak_state(n, spectrum, ancilla_bit=0)
        wavenumber_rotation(state, angle_schedule(n, MODE_DERIVATIVE))
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
        state, schedule = start_branch_state(registers, mode, rng)
        _rotation_factors(schedule.angles)
        tracemalloc.start()
        try:
            wavenumber_rotation(state, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_rejects_superposed_ancilla(self, rng):
        # The check is exact: a uniform superposition and a single 1e-20
        # amplitude on the |1> branch are both refused, with the state untouched.
        n = 2
        layout = RegisterLayout((("a", 1), ("k", n)))
        uniform = np.full(2 << n, 1.0 / math.sqrt(2 << n))
        stray = np.zeros(2 << n, dtype=complex)
        stray[: 1 << n] = random_state_vector(n, rng)
        stray[layout.index_for({"a": 1, "k": 3})] = 1e-20
        for amps in (uniform, stray):
            state = Statevector(amps.copy(), layout)
            with pytest.raises(ValueError, match="ancilla"):
                wavenumber_rotation(state, angle_schedule(n, MODE_DERIVATIVE))
            assert np.array_equal(state.amplitudes, amps)

    def test_rejects_wrong_init_bit(self, rng):
        n = 2
        spectrum = random_state_vector(n, rng)
        state, _ = ak_state(n, spectrum, ancilla_bit=0)
        # The memo entry exists, shared with the derivative schedule; the check still runs.
        _rotation_factors(angle_schedule(n, MODE_DERIVATIVE).angles)
        with pytest.raises(ValueError, match="ancilla"):
            wavenumber_rotation(state, angle_schedule(n, MODE_INTEGRAL))

    def test_rejects_width_mismatch(self, rng):
        # A schedule's width is its angle count: two angles on a 3-qubit k
        # register are refused, as is a schedule built for 4 qubits.
        state, _ = ak_state(3, random_state_vector(3, rng), ancilla_bit=0)
        before = state.amplitudes.copy()
        short = WavenumberSchedule(angles=angle_schedule(2, MODE_DERIVATIVE).angles, ancilla_init=0)
        for schedule in (angle_schedule(4, MODE_DERIVATIVE), short):
            with pytest.raises(ValueError, match="k register"):
                wavenumber_rotation(state, schedule)
        assert np.array_equal(state.amplitudes, before)
        assert state.gate_count == 0
