import numpy as np
import pytest
from numpy.testing import assert_allclose

from qftcalc import checks, pipelines, psmpo, spectral, state
from qftcalc.oracles import (
    CATALOG,
    central_difference_periodic,
    mean_absolute_error,
    sample_catalog,
    trapezoid_partial_sums,
)
from qftcalc.pipelines import (
    MODE_DERIVATIVE,
    MODE_INTEGRAL,
    SampledFunction,
    expected_coverage,
    qftd_run,
    qfti_run,
    resolution,
)
from qftcalc.reference import block_encode_dimension, pauli_x
from qftcalc.state import (
    RegisterLayout,
    _branch,
    amplitude_encode,
    apply_gate,
    apply_register_unitary,
    exact_probabilities,
    sample_counts,
)

from conftest import dft_derivative, fft_calls


def qft_gate_total(n):
    """Hadamards + controlled phases + final swaps of one transform."""
    return n + n * (n - 1) // 2 + n // 2


class TestSampledFunction:
    def test_grid_points(self):
        f = SampledFunction(samples=np.array([1.0, 2.0, 3.0, 4.0]), x0=-1.0, dx=0.5)
        assert_allclose(f.x, [-1.0, -0.5, 0.0, 0.5])
        assert_allclose(f.l2_norm, np.sqrt(30.0))

    def test_norm_of_tiny_and_huge_samples(self):
        for scale in (1e-300, 1e200):
            f = SampledFunction(samples=scale * np.array([1.0, 2.0, 3.0, 4.0]), x0=0.0, dx=1.0)
            assert_allclose(f.l2_norm, scale * np.sqrt(30.0), rtol=1e-15)

    def test_unrecoverable_scale_rejected(self):
        def f(scale, dx):
            return SampledFunction(samples=np.full(4, scale), x0=0.0, dx=dx)

        def integral_resolution(samples, _shots):
            return resolution(samples, 1, "integral")

        # (|f|/dx)^2 and (|f|*eta*dx)^2 underflow to 0, then overflow to inf.
        cases = [(qftd_run, f(1e-300, 1.0)), (qftd_run, f(1e200, 1e-200)),
                 (qfti_run, f(1e-300, 1.0)), (qfti_run, f(1e200, 1e200)),
                 (integral_resolution, f(1e200, 1e200))]
        for run, samples in cases:
            with pytest.raises(ValueError, match="recovery scale"):
                run(samples, None)
        with pytest.raises(ValueError, match="unknown mode"):
            resolution(f(1.0, 1.0), 1, "antiderivative")

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            SampledFunction(samples=np.zeros(4), x0=0.0, dx=1.0)


class TestQftdExact:
    def test_constant_input_fully_censored(self):
        f = SampledFunction(samples=np.full(16, 2.5), x0=0.0, dx=0.1)
        series = qftd_run(f, shots=None)
        assert series.success_probability <= 1e-20
        assert not series.retained.any()
        assert_allclose(series.value_sq, 0.0)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("n", [3, 5])
    def test_catalog_equals_central_difference(self, name, n):
        f = sample_catalog(name, n)
        series = qftd_run(f, shots=None)
        oracle_sq = central_difference_periodic(f.samples, f.dx) ** 2
        tol = 1e-9 * (f.l2_norm / f.dx) ** 2
        assert np.max(np.abs(series.value_sq - oracle_sq)) <= tol

    def test_random_samples_equal_both_oracles(self, rng):
        samples = rng.normal(size=64)
        f = SampledFunction(samples=samples, x0=-1.0, dx=2.0 / 64)
        series = qftd_run(f, shots=None)
        tol = 1e-9 * (f.l2_norm / f.dx) ** 2
        assert np.max(np.abs(series.value_sq - central_difference_periodic(samples, f.dx) ** 2)) <= tol
        assert np.max(np.abs(series.value_sq - dft_derivative(samples, f.dx) ** 2)) <= tol

    def test_exact_mode_metadata(self):
        f = sample_catalog("cos2pix", 4)
        series = qftd_run(f, shots=None)
        assert series.shots_used is None
        assert series.seed is None
        assert series.resolution_epsilon == 0.0
        assert series.mode == "derivative"

    def test_gate_count(self):
        n = 5
        f = sample_catalog("cos2pix", n)
        series = qftd_run(f, shots=None)
        assert series.gate_count == 2 * qft_gate_total(n) + n

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            qftd_run(SampledFunction(samples=np.ones(2), x0=0.0, dx=1.0), shots=None)


class TestQftiExact:
    def test_constant_input_matches_closed_form(self):
        c, dx = 0.8, 0.05
        f = SampledFunction(samples=np.full(16, c), x0=0.0, dx=dx)
        series = qfti_run(f, shots=None)
        expected = (c * dx * (np.arange(16) + 1.0)) ** 2
        eta = psmpo.build_block_encoding(4).eta
        assert np.max(np.abs(series.value_sq - expected)) <= 1e-9 * (f.l2_norm * eta * dx) ** 2

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("n", [3, 5])
    def test_catalog_equals_trapezoid_sums(self, name, n):
        f = sample_catalog(name, n)
        series = qfti_run(f, shots=None)
        oracle_sq = trapezoid_partial_sums(f.samples, f.dx) ** 2
        eta = psmpo.build_block_encoding(n).eta
        tol = 1e-9 * (f.l2_norm * eta * f.dx) ** 2
        assert np.max(np.abs(series.value_sq - oracle_sq)) <= tol

    def test_gate_count(self):
        n = 4
        f = sample_catalog("cos2pix", n)
        series = qfti_run(f, shots=None)
        # X init + two transforms + n rotations + one summation gate.
        assert series.gate_count == 2 * qft_gate_total(n) + n + 2


    @pytest.mark.parametrize("n", range(9, 17))
    def test_large_registers_equal_trapezoid_sums(self, n):
        f = sample_catalog("cos2pix", n, (-1.0, 1.0))
        series = qfti_run(f, shots=None)
        oracle_sq = trapezoid_partial_sums(f.samples, f.dx) ** 2
        tol = 1e-9 * (f.l2_norm * psmpo.build_block_encoding(n).eta * f.dx) ** 2
        assert np.max(np.abs(series.value_sq - oracle_sq)) <= tol

    def test_error_trend_up_to_the_cap(self):
        slope, _ = checks.error_trend("qfti", range(3, 17))
        assert abs(slope + 1.0) <= 0.3


def unfused_exact_run(f, mode):
    """Exact ``(value_sq, gate_count)`` by the route the pipelines took before.

    The forward QFT acts on every ancilla branch, and the summation is the
    dense ``U_H`` of ``block_encode_dimension`` applied as one register
    unitary (one gate), not the one-branch transform and the matrix-free apply.
    """
    n = f.n_points.bit_length() - 1
    names = ("a", "k") if mode == MODE_DERIVATIVE else ("a", "b", "c", "k")
    layout = RegisterLayout(tuple((name, n if name == "k" else 1) for name in names))
    l2 = f.l2_norm
    state = amplitude_encode(f.samples, l2, layout, {name: 0 for name in names if name != "k"})
    (a_qubit,) = layout.qubits("a")
    if mode == MODE_INTEGRAL:
        apply_gate(state, pauli_x(), (a_qubit,))
    spectral.qft(state)
    spectral.wavenumber_rotation(state, {"a": int(mode == MODE_INTEGRAL)})
    spectral.qft(state, inverse=True, control={"a": spectral.SUCCESS_BIT})
    if mode == MODE_DERIVATIVE:
        success, scale_sq = {"a": 1}, (l2 / f.dx) ** 2
    else:
        dense, eta = block_encode_dimension(f.n_points)
        operand = layout.qubits("k") + layout.qubits("c") + layout.qubits("b")
        apply_register_unitary(state, dense, operand, control=(a_qubit, 1))
        success, scale_sq = {"a": 1, "b": 0, "c": 1}, (l2 * eta * f.dx) ** 2
    psi_sq = exact_probabilities(state, success)
    return scale_sq * np.where(psi_sq > 1e-24, psi_sq, 0.0), state.gate_count


class TestOneBranchForwardQft:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    def test_equals_unfused_route(self, name, n, mode):
        f = sample_catalog(name, n)
        run = qftd_run if mode == MODE_DERIVATIVE else qfti_run
        series = run(f, shots=None)
        value_sq, gate_count = unfused_exact_run(f, mode)
        assert np.max(np.abs(series.value_sq - value_sq)) <= 1e-12 * np.max(value_sq)
        assert series.gate_count == gate_count


def permuted_run_state(f, mode):
    """The run path of ``pipelines`` on a layout in another register order, up to its readout.

    k sits on top and a at the bottom; for the integral a free one-qubit
    register x sits between b and c, and both branches fix it at 0. Returns
    the state and its success branch.
    """
    n = f.n_points.bit_length() - 1
    if mode == MODE_DERIVATIVE:
        registers, start, success = (("k", n), ("a", 1)), {"a": 0}, {"a": spectral.SUCCESS_BIT}
    else:
        registers = (("k", n), ("b", 1), ("x", 1), ("c", 1), ("a", 1))
        start, success = {"a": 1, "b": 0, "c": 0, "x": 0}, {"a": spectral.SUCCESS_BIT, **psmpo.SUCCESS_BLOCK, "x": 0}
    state = amplitude_encode(f.samples, f.l2_norm, RegisterLayout(registers), start)
    state.gate_count += start["a"]
    spectral.qft(state, control=start)
    spectral.wavenumber_rotation(state, start)
    spectral.qft(state, inverse=True, control={**start, "a": spectral.SUCCESS_BIT})
    if mode == MODE_INTEGRAL:
        psmpo.apply_partial_sum(state, control={"a": spectral.SUCCESS_BIT})
    return state, success


class TestRunPathIsOrderFree:
    """Register order matters nowhere on the run path: a permuted layout reads out what the pipelines do."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    def test_exact_readout_is_bitwise_the_run(self, name, n, mode):
        f = sample_catalog(name, n)
        series = (qftd_run if mode == MODE_DERIVATIVE else qfti_run)(f, shots=None)
        state, success = permuted_run_state(f, mode)
        psi_sq = exact_probabilities(state, success)
        kept = np.where(psi_sq > pipelines.EXACT_PSI_SQ_FLOOR, psi_sq, 0.0)
        assert np.array_equal(series.value_sq, pipelines._squared_scale(f, mode) * kept)
        assert series.success_probability == float(np.sum(psi_sq))
        assert series.gate_count == state.gate_count

    def test_qfti_spectral_stages_touch_only_the_run_branch(self, monkeypatch):
        # Each spectral stage of a QFTI run meets amplitude in every (b, c) != (0, 0) row of both
        # a branches, and must hand those rows back bitwise; the run's output stays bitwise its own.
        f = sample_catalog("harmonics", 5)
        expected = qfti_run(f, shots=None)
        rng = np.random.default_rng(3)
        calls = []

        def guarded(stage):
            def run(state, *args, **kwargs):
                rows = state.amplitudes.reshape(state.layout.shape)  # (a, b, c, k)
                off = np.ones(rows.shape, dtype=bool)
                off[:, 0, 0] = False
                rows[off] = rng.normal(size=np.count_nonzero(off)) + 1j * rng.normal(size=np.count_nonzero(off))
                before = rows[off]
                stage(state, *args, **kwargs)
                assert np.array_equal(rows[off], before)
                rows[off] = 0.0
                calls.append(stage.__name__)
                return state

            return run

        for stage in (spectral.qft, spectral.wavenumber_rotation):
            monkeypatch.setattr(spectral, stage.__name__, guarded(stage))
        series = qfti_run(f, shots=None)
        assert calls == ["qft", "wavenumber_rotation", "qft"]
        assert np.array_equal(series.value_sq, expected.value_sq)
        assert series.gate_count == expected.gate_count

    @pytest.mark.parametrize("mode", [MODE_DERIVATIVE, MODE_INTEGRAL])
    def test_sampled_counts_follow_the_block_law(self, mode):
        # The whole state's probabilities sum in another order, so the hit count's binomial, and every
        # draw after it, may differ from the run's by round-off; the law is the same.
        f = SampledFunction(np.random.default_rng(5).normal(size=64), 0.0, 1.0 / 64)
        exact = (qftd_run if mode == MODE_DERIVATIVE else qfti_run)(f, shots=None)
        psi_sq = exact.value_sq / pipelines._squared_scale(f, mode)
        state, success = permuted_run_state(f, mode)
        shots = 10**6
        counts = sample_counts(state, shots, 13, success)
        expected = shots * np.append(psi_sq, 1.0 - exact.success_probability)
        p_value, _ = checks._chisquare_p_value(np.append(counts, shots - counts.sum()), expected)
        assert p_value >= 1e-6


class TestSampledMode:
    @pytest.mark.parametrize("shots", [2**63, 2**64])
    def test_shots_beyond_the_int64_cap_are_refused(self, shots):
        with pytest.raises(ValueError, match=f"1[.][.]{state.MAX_SHOTS}, got {shots}"):
            qftd_run(sample_catalog("poly", 3), shots=shots)

    def test_reproducible_for_seed(self):
        f = sample_catalog("cos2pix", 5)
        a = qftd_run(f, shots=10**4, seed=7)
        b = qftd_run(f, shots=10**4, seed=7)
        assert np.array_equal(a.value_sq, b.value_sq)
        assert np.array_equal(a.retained, b.retained)

    def test_censored_points_are_zero_and_floor_respected(self):
        f = sample_catalog("invx", 6)
        shots = 10**5
        series = qftd_run(f, shots=shots, seed=3)
        assert np.all(series.value_sq[~series.retained] == 0.0)
        floor = resolution(f, shots, "derivative")
        kept = series.value_sq[series.retained]
        assert np.all(kept >= floor * (1.0 - 1e-12))
        assert series.resolution_epsilon == pytest.approx(floor)

    def test_shot_noise_shrinks_with_hundredfold_shots(self):
        f = sample_catalog("cos2pix", 6)
        exact = qftd_run(f, shots=None).value_sq
        for seed in (0, 1, 2):
            low = qftd_run(f, shots=10**4, seed=seed).value_sq
            high = qftd_run(f, shots=10**6, seed=seed).value_sq
            assert np.median(np.abs(high - exact)) < np.median(np.abs(low - exact))

    def test_below_resolution_points_usually_censored(self):
        f = sample_catalog("invx", 6, (-1.0, 1.0))
        shots = 10**5
        eps = resolution(f, shots, "derivative")
        analytical_sq = CATALOG["invx"].derivative(f.x) ** 2
        below = analytical_sq < eps
        assert below.any()
        censored = 0
        total = 0
        for seed in range(5):
            series = qftd_run(f, shots=shots, seed=seed)
            censored += int(np.count_nonzero(~series.retained[below]))
            total += int(np.count_nonzero(below))
        assert censored / total >= 0.5

    @pytest.mark.parametrize("mode, function", [("qftd", "noise"), ("qfti", "poly")])
    def test_twin_check_catches_one_perturbed_weight(self, mode, function, monkeypatch):
        assert checks.check_sampled_matches_exact(mode, function, 6).passed
        draw = pipelines.sample_counts

        def perturbed(state, shots, seed, branch):
            # Raise the largest success-block weight by 10% before the draw.
            block = _branch(state, branch, "k")
            block[np.argmax(np.abs(block))] *= np.sqrt(1.1)
            return draw(state, shots, seed, branch)

        monkeypatch.setattr(pipelines, "sample_counts", perturbed)
        result = checks.check_sampled_matches_exact(mode, function, 6)
        assert not result.passed, result.detail

    def test_success_probability_matches_counts(self):
        f = sample_catalog("harmonics", 5)
        shots = 10**5
        series = qftd_run(f, shots=shots, seed=11)
        assert series.success_probability == pytest.approx(series.value_sq.sum() / (f.l2_norm / f.dx) ** 2)


class TestResolution:
    def test_two_sided_singular_setup(self):
        # 1/x on [-1,1] at n=8 with 1e7 shots: the shot floor is ~260 and the
        # analytical derivative clears it on ~25% of the grid.
        f = sample_catalog("invx", 8, (-1.0, 1.0))
        eps = resolution(f, 10**7, "derivative")
        assert abs(eps - 260.0) <= 0.15 * 260.0
        analytical_sq = CATALOG["invx"].derivative(f.x) ** 2
        assert abs(expected_coverage(analytical_sq, eps) - 0.25) <= 0.05

    def test_shifted_singular_setup(self):
        # 1/x on [0.2,1] at n=8 with 1e8 shots: floor ~1.3 and ~92% coverage.
        f = sample_catalog("invx", 8, (0.2, 1.0))
        eps = resolution(f, 10**8, "derivative")
        assert abs(eps - 1.3) <= 0.15 * 1.3
        analytical_sq = CATALOG["invx"].derivative(f.x) ** 2
        assert abs(expected_coverage(analytical_sq, eps) - 0.92) <= 0.05

    def test_monotone_in_shots(self):
        f = sample_catalog("cos2pix", 5)
        values = [resolution(f, m, "derivative") for m in (10**3, 10**5, 10**7)]
        assert values[0] > values[1] > values[2] > 0.0

    def test_integral_derives_eta(self):
        f = sample_catalog("cos2pix", 5)
        eta = psmpo.build_block_encoding(5).eta
        assert resolution(f, 100, "integral") == (f.l2_norm * eta * f.dx) ** 2 / 100

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("run, mode", [(qftd_run, "derivative"), (qfti_run, "integral")])
    def test_run_epsilon_is_resolution(self, run, mode, n):
        # At n = 2 a norm of the samples zero-padded to the state can differ
        # from f.l2_norm in the last bit, so n = 2 runs over many inputs.
        shots = 10**5
        for seed in range(50) if n == 2 else (n,):
            f = SampledFunction(np.random.default_rng(seed).standard_normal(1 << n), x0=0.0, dx=0.1)
            assert run(f, shots, seed=1).resolution_epsilon == resolution(f, shots, mode)


class TestExpectedCoverage:
    def test_all_above(self):
        assert expected_coverage(np.array([1.0, 2.0, 3.0]), 0.5) == 1.0

    def test_none_above(self):
        assert expected_coverage(np.array([0.1, 0.2]), 0.5) == 0.0

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            expected_coverage(np.array([1.0]), -1.0)


class TestErrorDecay:
    def test_qftd_mae_strictly_decreasing(self):
        maes = []
        for n in range(3, 9):
            f = sample_catalog("cos2pix", n, (-1.0, 1.0))
            series = qftd_run(f, shots=None)
            reference = np.abs(CATALOG["cos2pix"].derivative(f.x))
            mask = series.retained.copy()
            mask[0] = mask[-1] = False
            maes.append(mean_absolute_error(np.sqrt(series.value_sq), reference, mask))
        assert all(a > b for a, b in zip(maes, maes[1:]))


@pytest.mark.parametrize("shots", [None, 10**6])
def test_runs_call_no_blas(monkeypatch, shots):
    # A BLAS dot over 2^17 samples wakes the BLAS thread pool on every run.
    def forbidden(*args, **kwargs):
        raise AssertionError("BLAS-backed call on the pipeline path")

    for name in ("dot", "vdot"):
        monkeypatch.setattr(np, name, forbidden)
    monkeypatch.setattr(np.linalg, "norm", forbidden)
    psmpo.build_block_encoding.cache_clear()  # so the block-encoding build runs too
    rng = np.random.default_rng(5)
    derivative = qftd_run(SampledFunction(rng.standard_normal(1 << 14), 0.0, 0.5), shots, seed=1)
    integral = qfti_run(SampledFunction(rng.standard_normal(1 << 10), 0.0, 0.5), shots, seed=1)
    built = psmpo.build_block_encoding.cache_info()
    assert built.misses == built.currsize == 1  # the n=10 build ran under the ban
    for series in (derivative, integral):
        assert np.all(np.isfinite(series.value_sq)) and series.success_probability > 0.0


@pytest.mark.parametrize("n", [2, 10, 16])
@pytest.mark.parametrize("shots", [None, 10**6])
def test_spectral_stage_takes_one_real_fft_each_way(monkeypatch, shots, n):
    # Both pipelines transform a real input branch and a Hermitian success
    # branch: one half-length rfft and one irfft, and no complex FFT. QFTI's
    # summation runs its own FFTs, so only calls made inside spectral.qft count.
    calls, inside = fft_calls(monkeypatch), []
    real_qft = spectral.qft

    def qft(*args, **kwargs):
        start = len(calls)
        result = real_qft(*args, **kwargs)
        inside.extend(calls[start:])
        return result

    monkeypatch.setattr(spectral, "qft", qft)
    f = SampledFunction(np.random.default_rng(n).standard_normal(1 << n), 0.0, 2.0**-n)
    qftd_run(f, shots, seed=1)
    assert calls == inside == ["rfft", "irfft"]
    inside.clear()
    qfti_run(f, shots, seed=1)
    assert inside == ["rfft", "irfft"]


@pytest.mark.parametrize("shots", [None, 10**6])
def test_runs_call_no_gate_kernel(monkeypatch, shots):
    # The run encodes straight into its start branch; the kernel serves only the oracles.
    def forbidden(*args, **kwargs):
        raise AssertionError("gate kernel called on the pipeline path")

    for module in (state, spectral, psmpo, pipelines):
        monkeypatch.setattr(module, "apply_gate", forbidden, raising=False)
    f = sample_catalog("cos2pix", 5)
    for run, extra_gates in ((qftd_run, 0), (qfti_run, 2)):
        series = run(f, shots, seed=1)
        assert series.gate_count == 2 * qft_gate_total(5) + 5 + extra_gates
