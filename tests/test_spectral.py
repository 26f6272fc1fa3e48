import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qftcalc import spectral
from qftcalc.checks import QFT_INPUT_KINDS, qft_input
from qftcalc.pipelines import MODE_DERIVATIVE, MODE_INTEGRAL
from qftcalc.reference import branch_controls, qft_gate_sequence, reconstructed_rotation, rotation_angles, rx_gate
from qftcalc.spectral import SUCCESS_BIT, _rotation_factors, _rotation_turns, qft, wavenumber_rotation
from qftcalc.state import RegisterLayout, Statevector, apply_gate

from conftest import embed_full, fft_calls, random_state_vector


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
        qft(state, control={"a": 1})
        assert np.array_equal(state.amplitudes[: 1 << n], amps[: 1 << n])
        assert_allclose(state.amplitudes[1 << n :], dft_matrix(n) @ amps[1 << n :], atol=1e-12)

    def test_control_is_keyword_only(self):
        # perfbench/tracer.py reads a controlled call's control from its keywords.
        layout = RegisterLayout((("a", 1), ("k", 2)))
        with pytest.raises(TypeError):
            qft(Statevector(np.eye(8)[0], layout), False, {"a": 1})

    def test_control_inside_register_rejected(self):
        with pytest.raises(ValueError, match="operand"):
            qft(k_state(3), control={"k": 1})

    @pytest.mark.parametrize("registers", [(("a", 1), ("k", 5)), (("a", 1), ("b", 1), ("c", 1), ("k", 5))])
    def test_pipeline_layout_keeps_the_amplitude_array(self, registers, rng):
        # The transform writes into the state's own array: no result array replaces it.
        layout = RegisterLayout(registers)
        state = Statevector(random_state_vector(layout.n_qubits, rng), layout)
        amplitudes = state.amplitudes
        qft(state, control={"a": 0})
        qft(state, inverse=True, control={"a": 1})
        assert state.amplitudes is amplitudes


# The registers above k and below it, and the control as a register mapping.
# "control-below" keeps a free register on each side of k: its qubits are
# those of a control on the lowest qubit of a 2-qubit x. "two-registers"
# fixes both sides of k, and "two-qubit-value" one value of a 2-qubit y, so
# the replay controls on both of its qubits with their bits.
FREE_REGISTER_LAYOUTS = {
    "control-above": ((("y", 1),), (("x", 1),), {"y": 1}),
    "control-below": ((("y", 2),), (("x", 1), ("w", 1)), {"w": 0}),
    "no-control": ((("y", 1),), (("x", 1),), None),
    "two-registers": ((("y", 1),), (("x", 1),), {"y": 1, "x": 0}),
    "two-qubit-value": ((("y", 2),), (("x", 1),), {"y": 2}),
}


def check_against_replay(layout, inverse, control, rng, kind=None):
    """``qft`` on register k within 1e-13 of a gate-by-gate replay, with equal gate counts.

    ``control`` is a register mapping; the replay puts one control on each
    qubit of every register it fixes, with that qubit's bit of the value.
    The input is a random state, or one whose rows along k are all of
    ``kind``.
    """
    width, n = layout.n_qubits, layout.width("k")
    amps = random_state_vector(width, rng) if kind is None else qft_input(rng, layout, kind)
    transformed = qft(Statevector(amps.copy(), layout), inverse=inverse, control=control)
    replay = Statevector(amps.copy(), layout)
    outer = branch_controls(layout, control or {})
    for payload, targets, controls in qft_gate_sequence(layout.qubits("k"), inverse):
        apply_gate(replay, payload, targets, controls + outer)
    assert np.max(np.abs(transformed.amplitudes - replay.amplitudes)) <= 1e-13
    assert transformed.gate_count == replay.gate_count == n * (n + 1) // 2 + n // 2


class TestFusedQft:
    """The FFT-based QFT against a gate-by-gate replay of ``qft_gate_sequence``."""

    @pytest.mark.parametrize("control", [None, {"x": 1}, {"x": 0}])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_gate_replay(self, n, inverse, control, rng):
        # The k register sits above a spare one-qubit register x that carries the control.
        check_against_replay(RegisterLayout((("k", n), ("x", 1))), inverse, control, rng)

    @pytest.mark.parametrize(
        "n, layout",
        [(n, layout) for n in range(1, 7) for layout in FREE_REGISTER_LAYOUTS] + [(10, "control-above")],
    )
    @pytest.mark.parametrize("inverse", [False, True])
    def test_register_between_free_qubits(self, n, layout, inverse, rng):
        # k is a middle axis of the register view.
        above, below, control = FREE_REGISTER_LAYOUTS[layout]
        check_against_replay(RegisterLayout((*above, ("k", n), *below)), inverse, control, rng)

    @pytest.mark.parametrize("kind", QFT_INPUT_KINDS)
    @pytest.mark.parametrize("n, layout", [(n, layout) for n in (1, 2, 5) for layout in FREE_REGISTER_LAYOUTS])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_every_input_kind_between_free_qubits(self, n, layout, inverse, kind, rng):
        # Each FFT that qft chooses, on branches of two or four rows with k a middle axis, N = 2 included.
        above, below, control = FREE_REGISTER_LAYOUTS[layout]
        check_against_replay(RegisterLayout((*above, ("k", n), *below)), inverse, control, rng, kind)

    @pytest.mark.parametrize("kind", QFT_INPUT_KINDS)
    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_every_input_kind_on_the_qfti_branch(self, n, inverse, kind, rng):
        # QFTI transforms its a = 1 branch, a (b, c, k) block of shape (2, 2, N).
        layout = RegisterLayout((("a", 1), ("b", 1), ("c", 1), ("k", n)))
        check_against_replay(layout, inverse, {"a": 1}, rng, kind)

    @pytest.mark.parametrize("control", [{"x": 2}, {"x": 1 << 40}, {"x": -1}, {"k": 0}])
    def test_bad_control_rejected(self, control, rng):
        # A value outside the register's range (a negative one, which numpy
        # would wrap, included) or a control on k itself.
        layout = RegisterLayout((("k", 3), ("x", 1)))
        state = Statevector(random_state_vector(4, rng), layout)
        before = state.amplitudes.copy()
        with pytest.raises(ValueError):
            qft(state, control=control)
        assert np.array_equal(state.amplitudes, before)
        assert state.gate_count == 0


class TestTransformChoice:
    """``qft`` picks its FFT from the branch's exact symmetry, and only that FFT runs."""

    @staticmethod
    def expected(kind, inverse, n):
        if kind == "real" or (n == 1 and kind in ("hermitian", "mixed")):  # at N = 2 those rows are real
            return ["rfft"]
        if kind == "hermitian":
            return ["irfft"]
        return ["fft" if inverse else "ifft"]

    @pytest.mark.parametrize("kind", QFT_INPUT_KINDS)
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("control", [None, {"y": 1}])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_one_fft_of_the_branch_kind(self, kind, n, control, inverse, monkeypatch, rng):
        layout = RegisterLayout((("y", 1), ("k", n), ("x", 1)))
        state = Statevector(qft_input(rng, layout, kind), layout)
        calls = fft_calls(monkeypatch)
        qft(state, inverse=inverse, control=control)
        assert calls == self.expected(kind, inverse, n)
        assert state.gate_count == n * (n + 1) // 2 + n // 2

    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_one_stray_entry_leaves_the_hermitian_path(self, part, monkeypatch, rng):
        # One row of four off by one ulp in one part of one entry above N/2.
        layout = RegisterLayout((("y", 1), ("k", 4), ("x", 1)))
        amps = qft_input(rng, layout, "hermitian")
        view = amps.reshape(layout.shape)
        entry = getattr(view[1, 11, 0:1], part)
        entry[...] = np.nextafter(entry, np.inf)
        state = Statevector(amps, layout)
        calls = fft_calls(monkeypatch)
        qft(state)
        assert calls == ["ifft"]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_real_and_hermitian_paths_write_the_symmetric_halves(self, n, rng):
        # The forward QFT of a real row is Hermitian bit for bit, and that of a Hermitian row real.
        layout = RegisterLayout((("k", n),))
        half = 1 << (n - 1)
        state = qft(Statevector(qft_input(rng, layout, "real"), layout))
        v = state.amplitudes
        assert v[0].imag == v[half].imag == 0.0
        assert np.array_equal(v[1:half], v[: half : -1].conj())
        state = qft(Statevector(qft_input(rng, layout, "hermitian"), layout))
        assert not state.amplitudes.imag.any()

    @pytest.mark.parametrize("n", range(1, 17))
    def test_fft_rows_are_independent_of_their_batch(self, n, rng):
        # A row transformed alone has the same bits as inside a strided (2, 2, N) batch, for each FFT
        # qft runs, as it calls them. A run's outputs stay bitwise whether qft transforms one row of a
        # branch (QFTI's forward QFT on its start branch) or all of them only while this holds.
        N, half = 1 << n, 1 << (n - 1)
        base = rng.normal(size=(2, 3, 2, N)) + 1j * rng.normal(size=(2, 3, 2, N))
        transforms = {
            "rfft": lambda x: np.fft.rfft(x.real, axis=-1, norm="ortho"),
            "irfft": lambda x: np.fft.irfft(x[..., : half + 1], n=N, axis=-1, norm="ortho", out=x.real),
            "fft": lambda x: np.fft.fft(x, axis=-1, norm="ortho", out=x),
            "ifft": lambda x: np.fft.ifft(x, axis=-1, norm="ortho", out=x),
        }
        for name, transform in transforms.items():
            together = transform(base.copy()[:, 1])  # rows N apart within a pair and 6N apart between pairs
            for row in np.ndindex(2, 2):
                assert np.array_equal(transform(base.copy()[:, 1][row]), together[row]), (name, row)


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
        # Bit for bit, the sign of zero at k = 0 included: the factors take
        # their lower half, k < N/2, from these turns and keep its bytes, and
        # mirror it above (test_factors_are_even_and_odd_in_k). The oracle sums
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


def check_against_cascade(state, start):
    """``wavenumber_rotation`` from ``start`` within 1e-13 of a controlled-Rx replay, with equal gate counts.

    The replay controls on every register ``start`` fixes but a; the rows
    off ``start`` and its partner come back bitwise.
    """
    layout = state.layout
    k_qubits = layout.qubits("k")
    before = state.amplitudes.copy()
    cascade = dataclasses.replace(state, amplitudes=before.copy())
    wavenumber_rotation(state, start)
    (a_qubit,) = layout.qubits("a")
    rest = {name: value for name, value in start.items() if name != "a"}
    outer = branch_controls(layout, rest)
    for k_qubit, angle in zip(k_qubits, rotation_angles(len(k_qubits))):
        apply_gate(cascade, rx_gate(float(angle) * math.pi), (a_qubit,), ((k_qubit, 1), *outer))
    assert np.max(np.abs(state.amplitudes - cascade.amplitudes)) <= 1e-13
    assert state.gate_count == cascade.gate_count == len(k_qubits)
    off = np.ones(layout.shape, dtype=bool)
    off[tuple(rest.get(name, slice(None)) for name in layout.names)] = False
    assert np.array_equal(state.amplitudes.reshape(layout.shape)[off], before.reshape(layout.shape)[off])


def start_bit(mode):
    """The ancilla's basis state before the cascade: 0 for the derivative, 1 for the integral."""
    return int(mode == MODE_INTEGRAL)


def start_of(mode):
    """The start branch of ``mode`` on a layout whose other registers the rotation leaves free."""
    return {"a": start_bit(mode)}


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
        # Flat arrays indexed by k that own their data: no writable base stands behind them.
        for factor in _rotation_factors(4):
            assert factor.shape == (16,) and factor.base is None
            with pytest.raises(ValueError, match="read-only"):
                factor[0] = 2.0

    @pytest.mark.parametrize("n", range(1, 17))
    def test_factors_are_even_and_odd_in_k(self, n):
        # c[N-k] = c[k] and s[N-k] = -s[k] bit for bit, s = 0 at k = 0 and N/2,
        # and below N/2 the bytes of cos and sin of the closed-form turns.
        c, s = _rotation_factors(n)
        N, half = 1 << n, 1 << (n - 1)
        k = np.arange(1, half)
        assert c[N - k].tobytes() == c[k].tobytes()
        assert s[N - k].tobytes() == (-s[k]).tobytes()
        assert s[0] == s[half] == 0.0
        phi = _rotation_turns(n) * math.pi
        assert c[:half].tobytes() == np.cos(phi / 2.0)[:half].tobytes()
        assert s[:half].tobytes() == np.sin(phi / 2.0)[:half].tobytes()
        assert c[half] == -1.0

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_one_entry_per_register_width(self, n, rng):
        # Both circuits read the one entry of their k width.
        factors = _rotation_factors(n)
        misses = _rotation_factors.cache_info().misses
        assert _rotation_factors(n) is factors
        for mode in (MODE_DERIVATIVE, MODE_INTEGRAL):
            wavenumber_rotation(start_branch_state((("a", 1), ("k", n)), mode, rng), start_of(mode))
        assert _rotation_factors.cache_info().misses == misses

    def test_unitarity_checked_at_build(self, monkeypatch, rng):
        # No dyadic angle misses the tolerance, so the test makes it negative
        # and empties the memo, so that this call builds its entry.
        state, _ = ak_state(1, random_state_vector(1, rng), ancilla_bit=0)
        before = state.amplitudes.copy()
        _rotation_factors.cache_clear()
        monkeypatch.setattr(spectral, "UNITARY_TOL", -1.0)
        with pytest.raises(ValueError, match="not unitary"):
            wavenumber_rotation(state, {"a": 0})
        assert _rotation_factors.cache_info().currsize == 0
        assert np.array_equal(state.amplitudes, before)


class TestWavenumberRotation:
    def test_k0_derivative_success_amplitude_vanishes(self):
        n = 3
        spectrum = np.zeros(1 << n)
        spectrum[0] = 1.0
        state, layout = ak_state(n, spectrum, ancilla_bit=0)
        wavenumber_rotation(state, {"a": 0})
        success = state.amplitudes.reshape(layout.shape)[1, 0]
        assert abs(success) <= 1e-15

    def test_k0_integral_success_amplitude_unchanged(self):
        n = 3
        spectrum = np.zeros(1 << n)
        spectrum[0] = 1.0
        state, layout = ak_state(n, spectrum, ancilla_bit=1)
        wavenumber_rotation(state, {"a": 1})
        success = state.amplitudes.reshape(layout.shape)[1, 0]
        assert_allclose(success, 1.0, atol=1e-15)

    def test_success_amplitudes_match_dense_cascade(self, rng):
        # Two oracles: the Kronecker-embedded controlled-Rx product, and the
        # analytic i*sin(2 pi k/N) law it should realize.
        n = 3
        spectrum = random_state_vector(n, rng)
        state, layout = ak_state(n, spectrum, ancilla_bit=0)
        initial = state.amplitudes.copy()
        wavenumber_rotation(state, {"a": 0})

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
        check_against_cascade(state, start_of(mode))

    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    @pytest.mark.parametrize(
        "registers, fixed",
        [
            ((("a", 1), ("k", 4), ("b", 1)), {}),
            ((("a", 1), ("y", 2), ("k", 3), ("x", 2)), {}),
            ((("a", 1), ("b", 1), ("c", 1), ("k", 5)), {}),
            ((("a", 1), ("b", 1), ("c", 1), ("k", 5)), {"b": 0, "c": 0}),
        ],
        ids=["k-above-b", "k-between-y-x", "qfti-abck", "qfti-run-branch"],
    )
    def test_matches_gate_cascade_on_other_layouts(self, registers, fixed, mode, rng):
        # Every register other than a carries amplitude, so the update has to
        # broadcast over the qubits above and below k. On QFTI's run branch the
        # start also fixes b = c = 0, and both a branches hold amplitude in
        # every other (b, c) row, which the rotation must leave as it is.
        state = start_branch_state(registers, mode, rng)
        start = {**start_of(mode), **fixed}
        if fixed:
            other_a = state.amplitudes.reshape(state.layout.shape)[1 - start["a"]]
            other_a[...] = random_state_vector(state.layout.n_qubits - 1, rng).reshape(other_a.shape)
            other_a[0, 0] = 0.0
        check_against_cascade(state, start)

    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_success_branch_law(self, mode, n, rng):
        spectrum = random_state_vector(n, rng)
        state, _ = ak_state(n, spectrum, ancilla_bit=start_bit(mode))
        wavenumber_rotation(state, start_of(mode))
        success = state.amplitudes[SUCCESS_BIT << n :][: 1 << n]
        k = np.arange(1 << n)
        trig = np.sin if mode == MODE_DERIVATIVE else np.cos
        expected = np.abs(trig(2.0 * np.pi * k / (1 << n))) * np.abs(spectrum)
        assert np.max(np.abs(np.abs(success) - expected)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 5])
    def test_branch_completeness(self, n, rng):
        spectrum = random_state_vector(n, rng)
        state, _ = ak_state(n, spectrum, ancilla_bit=0)
        wavenumber_rotation(state, {"a": 0})
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
            wavenumber_rotation(state, start_of(mode))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_rejects_superposed_ancilla(self, rng):
        # The check is exact: a uniform superposition and a single 1e-20
        # amplitude on either branch beside a populated other branch are
        # refused from either start, with the state untouched and no gate counted.
        n = 2
        layout = RegisterLayout((("a", 1), ("k", n)))
        cases = [np.full(2 << n, 1.0 / math.sqrt(2 << n))]
        for populated in (0, 1):
            stray = np.zeros(2 << n, dtype=complex)
            stray[populated << n :][: 1 << n] = random_state_vector(n, rng)
            stray.reshape(layout.shape)[1 - populated, 3] = 1e-20
            cases.append(stray)
        for amps in cases:
            for bit in (0, 1):
                state = Statevector(amps.copy(), layout)
                with pytest.raises(ValueError, match="ancilla"):
                    wavenumber_rotation(state, {"a": bit})
                assert np.array_equal(state.amplitudes, amps)
                assert state.gate_count == 0

    @pytest.mark.parametrize(
        "start, error",
        [({"b": 0}, KeyError), ({"a": 0, "k": 0}, ValueError), ({"a": 2}, ValueError)],
        ids=["without-a", "fixes-k", "a-out-of-range"],
    )
    def test_rejects_a_bad_start(self, start, error, rng):
        state = start_branch_state((("a", 1), ("b", 1), ("k", 3)), MODE_DERIVATIVE, rng)
        before = state.amplitudes.copy()
        with pytest.raises(error):
            wavenumber_rotation(state, start)
        assert np.array_equal(state.amplitudes, before)
        assert state.gate_count == 0

    def test_scans_only_the_partner(self, monkeypatch, rng):
        # Either start, and QFTI's run branch, scans only the start's partner, once.
        scans = []
        real_branch = spectral._branch

        class Branch(np.ndarray):
            def any(self, *args, **kwargs):
                scans.append(self.fixed)
                return np.asarray(self).any(*args, **kwargs)

        def branch(state, fixed, register=None):
            view = real_branch(state, fixed, register).view(Branch)
            view.fixed = dict(fixed)
            return view

        monkeypatch.setattr(spectral, "_branch", branch)
        for registers, start in (
            ((("a", 1), ("k", 3)), {"a": 0}),
            ((("a", 1), ("k", 3)), {"a": 1}),
            ((("a", 1), ("b", 1), ("c", 1), ("k", 3)), {"a": 1, "b": 0, "c": 0}),
        ):
            state = start_branch_state(registers, MODE_INTEGRAL if start["a"] else MODE_DERIVATIVE, rng)
            scans.clear()
            wavenumber_rotation(state, start)
            assert scans == [{**start, "a": 1 - start["a"]}]
