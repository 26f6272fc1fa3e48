"""Self-validation suites behind the ``validate`` CLI subcommand.

``fast`` runs the exact-mode oracle equivalences plus structural checks
(unitarity, transform-matrix equality, gate-by-gate replays of the QFT and
the rotation cascade, rotation branch bookkeeping, sampling soundness,
reproducibility) in well under a minute. ``full`` adds the sampled
reproduction targets, the error-order regressions, both oracles and each
sampled pipeline against its exact twin at the qubit cap, the matrix-free
block encoding against its dense oracle, the run path's summation against
the four-block map and against its closed-form eigenpairs, and reports gate
counts. The oracles come from :mod:`qftcalc.reference`.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import experiments, oracles, pipelines, psmpo, reference, spectral
from .state import RegisterLayout, Statevector, amplitude_encode, apply_gate, exact_probabilities, sample_counts

__all__ = ["CheckResult", "fast_suite", "full_suite", "run_suite"]

CATALOG_IDS = ("cos2pix", "invx", "poly", "harmonics")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def check_wavenumber_schedule(angles: tuple[Fraction, ...]) -> CheckResult:
    """Exact dyadic reconstruction: sum of controlled rotations == 2 pi k / N."""
    n = len(angles)
    bad = [
        k
        for k in range(1 << n)
        if reference.reconstructed_rotation(angles, k) != Fraction(2 * k, 1 << n)
    ]
    return _result(
        f"wavenumber schedule n={n} reconstructs 2*pi*k/N exactly",
        not bad,
        "exact for all k" if not bad else f"first mismatch at k={bad[0]}",
    )


def check_qft_matrix(n: int) -> CheckResult:
    """Circuit-built transform, replayed gate by gate, and the FFT-based QFT equal the explicit DFT matrix."""
    dim = 1 << n
    layout = RegisterLayout((("k", n),))
    circuit = np.zeros((dim, dim), dtype=complex)
    fft = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        replay = Statevector(np.eye(dim)[j], layout)
        for payload, targets, controls in reference.qft_gate_sequence(layout.qubits("k"), inverse=False):
            apply_gate(replay, payload, targets, controls)
        circuit[:, j] = replay.amplitudes
        fft[:, j] = spectral.qft(Statevector(np.eye(dim)[j], layout)).amplitudes
    k = np.arange(dim)
    dft = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
    err = max(float(np.max(np.abs(built - dft))) for built in (circuit, fft))
    return _result(f"QFT circuit and FFT match DFT matrix n={n}", err <= 1e-12, f"max deviation {err:.2e}")


def check_qft_replay(n: int, inverse: bool, seed: int = 5) -> CheckResult:
    """The FFT-based QFT on a register between two free qubits equals the gate-by-gate replay.

    Runs uncontrolled and controlled from the free qubit above and the one
    below, so the register's merged axis is a strided view of the state.
    """
    layout = RegisterLayout((("y", 1), ("k", n), ("x", 1)))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << (n + 2)) + 1j * rng.normal(size=1 << (n + 2))
    amps /= np.linalg.norm(amps)
    err = 0.0
    for control in (None, (layout.qubits("y")[0], 1), (layout.qubits("x")[0], 0)):
        fft = spectral.qft(Statevector(amps.copy(), layout), inverse=inverse, control=control)
        replay = Statevector(amps.copy(), layout)
        outer = (control,) if control else ()
        for payload, targets, controls in reference.qft_gate_sequence(layout.qubits("k"), inverse):
            apply_gate(replay, payload, targets, controls + outer)
        err = max(err, float(np.max(np.abs(fft.amplitudes - replay.amplitudes))))
    direction = "inverse" if inverse else "forward"
    return _result(
        f"{direction} QFT between free qubits == gate replay n={n}", err <= 1e-13, f"max deviation {err:.2e}"
    )


def check_roundtrip_and_norm(n: int, seed: int = 7) -> CheckResult:
    """Forward-then-inverse QFT restores a random state; norm never drifts."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    layout = RegisterLayout((("k", n),))
    state = Statevector(amps.copy(), layout)
    spectral.qft(state)
    norm_mid = abs(np.linalg.norm(state.amplitudes) - 1.0)
    spectral.qft(state, inverse=True)
    err = float(np.max(np.abs(state.amplitudes - amps)))
    ok = err <= 1e-12 and norm_mid <= 1e-12
    return _result(
        f"QFT roundtrip identity n={n}",
        ok,
        f"roundtrip deviation {err:.2e}, norm drift {norm_mid:.2e}",
    )


def check_branch_completeness(n: int, seed: int = 11) -> CheckResult:
    """|amp(k,0)|^2 + |amp(k,1)|^2 equals the input spectrum weight per k."""
    rng = np.random.default_rng(seed)
    spectrum = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    spectrum /= np.linalg.norm(spectrum)
    layout = RegisterLayout((("a", 1), ("k", n)))
    amps = np.zeros(2 << n, dtype=complex)
    amps[: 1 << n] = spectrum
    state = Statevector(amps, layout)
    spectral.wavenumber_rotation(state)
    probs = exact_probabilities(state)
    total = probs[: 1 << n] + probs[1 << n :]
    err = float(np.max(np.abs(total - np.abs(spectrum) ** 2)))
    return _result(
        f"rotation branch completeness n={n}", err <= 1e-12, f"max deviation {err:.2e}"
    )


def check_rotation_replay(n: int, mode: str, ancillas: str = "a", seed: int = 17) -> CheckResult:
    """The fused rotation equals the gate-by-gate controlled-Rx cascade, and a repeat call is bitwise equal.

    ``ancillas`` are the one-qubit registers above k (``"abc"`` is the QFTI
    layout). The second of two calls on fresh copies reads the memoized
    rotation factors, so it must reproduce the first bit for bit.
    """
    layout = RegisterLayout((*((name, 1) for name in ancillas), ("k", n)))
    half = 1 << (layout.n_qubits - 1)
    rng = np.random.default_rng(seed)
    amps = np.zeros(2 * half, dtype=complex)
    init = int(mode == pipelines.MODE_INTEGRAL)  # the ancilla's start branch
    amps[init * half :][:half] = rng.normal(size=half) + 1j * rng.normal(size=half)
    amps /= np.linalg.norm(amps)
    first, second, replay = (Statevector(amps.copy(), layout) for _ in range(3))
    spectral.wavenumber_rotation(first)
    spectral.wavenumber_rotation(second)
    (a_qubit,) = layout.qubits("a")
    for k_qubit, angle in zip(layout.qubits("k"), reference.rotation_angles(n)):
        apply_gate(replay, reference.rx_gate(float(angle) * math.pi), (a_qubit,), ((k_qubit, 1),))
    err = float(np.max(np.abs(first.amplitudes - replay.amplitudes)))
    repeat = bool(np.array_equal(first.amplitudes, second.amplitudes))
    return _result(
        f"rotation == controlled-Rx cascade ({mode}, {'-'.join(ancillas)}-k) n={n}",
        err <= 1e-13 and repeat,
        f"max deviation {err:.2e}, repeat call {'bitwise equal' if repeat else 'differs'}",
    )


def check_success_branch_law(n: int, mode: str, seed: int = 13) -> CheckResult:
    """Success amplitudes carry |trig(2 pi k/N)| times the spectrum weight."""
    rng = np.random.default_rng(seed)
    spectrum = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    spectrum /= np.linalg.norm(spectrum)
    layout = RegisterLayout((("a", 1), ("k", n)))
    amps = np.zeros(2 << n, dtype=complex)
    offset = int(mode == pipelines.MODE_INTEGRAL) << n
    amps[offset : offset + (1 << n)] = spectrum
    state = Statevector(amps, layout)
    spectral.wavenumber_rotation(state)
    success = state.amplitudes[(spectral.SUCCESS_BIT << n) :][: 1 << n]
    k = np.arange(1 << n)
    trig = np.sin if mode == pipelines.MODE_DERIVATIVE else np.cos
    expected = np.abs(trig(2.0 * np.pi * k / (1 << n))) * np.abs(spectrum)
    err = float(np.max(np.abs(np.abs(success) - expected)))
    return _result(
        f"success-branch law ({mode}) n={n}", err <= 1e-12, f"max deviation {err:.2e}"
    )


def check_oracle(mode: str, function: str, n: int) -> CheckResult:
    """Exact-mode pipeline equals the squared periodic central difference (qftd) or cumulative trapezoid (qfti)."""
    f = oracles.sample_catalog(function, n)
    if mode == "qftd":
        series, name = pipelines.qftd_run(f, shots=None), "QFTD exact == central difference"
        oracle, scale = oracles.central_difference_periodic(f.samples, f.dx), f.l2_norm / f.dx
    else:
        series, name = pipelines.qfti_run(f, shots=None), "QFTI exact == cumulative trapezoid"
        eta = psmpo.build_block_encoding(n).eta
        oracle, scale = oracles.trapezoid_partial_sums(f.samples, f.dx), f.l2_norm * eta * f.dx
    tol = 1e-9 * scale**2
    err = float(np.max(np.abs(series.value_sq - oracle**2)))
    return _result(f"{name} ({function}, n={n})", err <= tol, f"max |diff| {err:.2e} (tol {tol:.2e})")


def check_block_encoding(n_k: int) -> CheckResult:
    """The materialised matrix-free ``U_H`` is orthogonal, with ``H/eta`` as its top-left block."""
    enc = psmpo.build_block_encoding(n_k)
    unitary = reference.materialise(enc)
    dim = unitary.shape[0]
    N = enc.dimension
    unitary_defect = float(np.max(np.abs(unitary.T @ unitary - np.eye(dim))))
    sigma = np.tril(np.ones((N, N)))
    h = np.block([[np.zeros((N, N)), sigma.T], [sigma, np.zeros((N, N))]])
    block_defect = float(np.max(np.abs(unitary[: 2 * N, : 2 * N] - h / enc.eta)))
    eta_err = abs(enc.eta - np.linalg.svd(sigma, compute_uv=False)[0])
    ok = unitary_defect <= 1e-10 and block_defect <= 1e-10 and eta_err <= 1e-9
    return _result(
        f"block encoding N={N}",
        ok,
        f"unitarity {unitary_defect:.2e}, block {block_defect:.2e}, eta {eta_err:.2e}",
    )


def check_block_encoding_apply(n_k: int, seed: int = 23) -> CheckResult:
    """``BlockEncoding.apply`` equals the dense ``U_H`` on three probes with all four (b, c) blocks set."""
    enc = psmpo.build_block_encoding(n_k)
    dense, _ = reference.block_encode_dimension(enc.dimension)
    rng = np.random.default_rng(seed)
    probes = rng.normal(size=(3, len(dense))) + 1j * rng.normal(size=(3, len(dense)))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    err = float(np.max(np.abs(enc.apply(probes.reshape(3, 2, 2, -1)).reshape(3, -1) - probes @ dense.T)))
    return _result(
        f"matrix-free block encoding == dense U_H N={enc.dimension}", err <= 1e-12, f"max deviation {err:.2e}"
    )


def check_partial_sum_half_map(n_k: int, seed: int = 29) -> CheckResult:
    """``apply_partial_sum``, which runs ``half`` on the b = c = 0 block alone, equals ``BlockEncoding.apply`` bitwise.

    Both ancilla branches hold seeded amplitude in their b = c = 0 block; the
    branch off the control must come back untouched.
    """
    enc = psmpo.build_block_encoding(n_k)
    N = enc.dimension
    layout = RegisterLayout((("a", 1), ("b", 1), ("c", 1), ("k", n_k)))
    rng = np.random.default_rng(seed)
    before = np.zeros((2, 4 * N), dtype=complex)  # [a, k + N c + 2N b]
    before[:, :N] = rng.normal(size=(2, N)) + 1j * rng.normal(size=(2, N))
    before /= np.linalg.norm(before)
    state = Statevector(before.reshape(-1).copy(), layout)
    on = spectral.SUCCESS_BIT
    psmpo.apply_partial_sum(state, control=(layout.qubits("a")[0], on))
    after = state.amplitudes.reshape(2, 4 * N)
    bitwise = bool(np.array_equal(after[on], enc.apply(before[on].reshape(2, 2, N)).reshape(-1)))
    untouched = bool(np.array_equal(after[1 - on], before[1 - on]))
    return _result(
        f"summation half map == four-block U_H bitwise N={N}",
        bitwise and untouched,
        f"controlled branch bitwise equal: {bitwise}, other branch untouched: {untouched}",
    )


def check_summation_eigenpairs(n_k: int) -> CheckResult:
    """``half`` sends Yueh's closed-form ``v_k`` to ``(sigma_k/eta u_k, g_k v_k)`` within 1e-11.

    ``k`` runs over 1, 2, 3, N/2, N/2 + 1, N - 1 and N, and ``g_k`` is the
    factored closed form, not the encoding's weights, so the check holds the
    summation transform to an independent oracle at any width.
    """
    enc = psmpo.build_block_encoding(n_k)
    N = enc.dimension
    ks = sorted({1, 2, 3, N // 2, N // 2 + 1, N - 1, N} & set(range(1, N + 1)))
    u, v, sigma, g = reference.summation_eigenpairs(N, ks)
    s, cv = enc.half(v)
    err = max(float(np.max(np.abs(s - sigma[:, None] / enc.eta * u))), float(np.max(np.abs(cv - g[:, None] * v))))
    return _result(
        f"summation half map on closed-form eigenpairs N={N}", err <= 1e-11, f"max deviation {err:.2e} over k = {ks}"
    )


def check_control_polarity(seed: int = 3) -> CheckResult:
    """Amplitudes off the control branch are bitwise untouched."""
    rng = np.random.default_rng(seed)
    n = 5
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    layout = RegisterLayout((("k", n),))
    state = Statevector(amps.copy(), layout)
    payload = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    apply_gate(state, payload, (1,), ((3, 1), (0, 0)))
    idx = np.arange(1 << n)
    off = (((idx >> 3) & 1) != 1) | (((idx >> 0) & 1) != 0)
    untouched = bool(np.all(state.amplitudes[off] == amps[off]))
    return _result("control polarity leaves off-branch amplitudes", untouched, "bitwise equal")


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail ``Q(dof/2, x/2)`` of the chi-square distribution with an integer ``dof >= 1``.

    A finite series (Abramowitz & Stegun 26.4.4 and 26.4.5), with ``y = x/2``:
    ``e^-y sum_{i<dof/2} y^i / i!`` for even ``dof``, and ``erfc(sqrt y) +
    e^-y sum_{i<(dof-1)/2} y^(i+1/2) / Gamma(i+3/2)`` for odd ``dof``. Each
    term is formed in log space.
    """
    y = x / 2.0
    if y <= 0.0:
        return 1.0
    half = dof % 2 / 2.0  # odd dof sums half-integer powers
    head = math.erfc(math.sqrt(y)) if half else 0.0
    log_y = math.log(y)
    return head + math.fsum(
        math.exp((i + half) * log_y - y - math.lgamma(i + half + 1.0)) for i in range(dof // 2)
    )


def _chisquare_p_value(observed: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """Chi-square p-value and bin count; outcomes expected below 10 counts share one bin."""
    main = expected >= 10.0
    observed_bins = list(observed[main])
    expected_bins = list(expected[main])
    if np.any(~main):
        observed_bins.append(float(np.sum(observed[~main])))
        expected_bins.append(float(np.sum(expected[~main])))
    statistic = float(np.sum((np.array(observed_bins) - np.array(expected_bins)) ** 2 / np.array(expected_bins)))
    return _chi2_sf(statistic, len(observed_bins) - 1), len(observed_bins)


def check_sampling_chisquare(function: str, n: int = 6, shots: int = 10**6) -> CheckResult:
    """Multinomial sampling is consistent with the Born-rule distribution.

    Draws every outcome, then the upper half of the register alone through
    the ``outcomes`` path of :func:`sample_counts`. Each draw passes while its
    chi-square p-value stays above 1e-6, outcomes with expected count below
    10 lumped into one bin; the half draw's shots that miss the half form one
    more outcome. The number of shots landing in the half must lie within 6
    sigma of its binomial mean.
    """
    f = oracles.sample_catalog(function, n)
    layout = RegisterLayout((("k", n),))
    state = amplitude_encode(f.samples, f.l2_norm, layout)
    probs = exact_probabilities(state)
    p_value, bins = _chisquare_p_value(sample_counts(state, shots, seed=2024), probs * shots)

    upper = slice(1 << (n - 1), None)
    counts = sample_counts(state, shots, seed=2024, outcomes=upper)
    hits = int(counts.sum())
    share = float(np.sum(probs[upper]))
    block_p_value, block_bins = _chisquare_p_value(
        np.append(counts, shots - hits), np.append(probs[upper], 1.0 - share) * shots
    )
    sigma = float(np.sqrt(shots * share * (1.0 - share)))
    hits_ok = abs(hits - shots * share) <= 6.0 * sigma
    return _result(
        f"sampling chi-square ({function}, {shots:.0e} shots)",
        p_value >= 1e-6 and block_p_value >= 1e-6 and hits_ok,
        f"p-value {p_value:.3g} over {bins} bins; upper half: p-value {block_p_value:.3g} over "
        f"{block_bins} bins, {hits} hits against {shots * share:.1f} +- {sigma:.1f}",
    )


def check_sampled_matches_exact(mode: str, function: str, n: int, shots: int = 10**7, seed: int = 31) -> CheckResult:
    """A sampled pipeline run draws its success block from its exact twin's probabilities.

    ``function`` is a catalog id, or ``"noise"`` for seeded standard normal
    samples (QFTD's success probability on noise is about 1/2; on the catalog
    functions at n = 16 it is too small to fill the block). The success-block
    counts, plus one bin for the shots that miss the block, pass while their
    chi-square p-value against ``shots * (psi_exact^2, 1 - success_probability)``
    stays above 1e-6, lumped as in :func:`check_sampling_chisquare`; the hit
    count must lie within 6 sigma of its binomial mean.
    """
    if function == "noise":
        f = pipelines.SampledFunction(np.random.default_rng(seed).normal(size=1 << n), 0.0, 1.0 / (1 << n))
    else:
        f = oracles.sample_catalog(function, n)
    run = pipelines.qftd_run if mode == "qftd" else pipelines.qfti_run
    exact, sampled = run(f, shots=None), run(f, shots=shots, seed=seed)
    one_count = sampled.resolution_epsilon  # the squared value of one count, scale^2 / shots
    counts = np.rint(sampled.value_sq / one_count)
    hits = int(counts.sum())
    share = exact.success_probability
    expected = np.append(exact.value_sq / one_count, (1.0 - share) * shots)
    p_value, bins = _chisquare_p_value(np.append(counts, shots - hits), expected)
    sigma = float(np.sqrt(shots * share * (1.0 - share)))
    hits_ok = abs(hits - shots * share) <= 6.0 * sigma
    return _result(
        f"sampled == exact twin ({mode}, {function}, n={n}, {shots:.0e} shots)",
        p_value >= 1e-6 and hits_ok,
        f"p-value {p_value:.3g} over {bins} bins, {hits} hits against {shots * share:.1f} +- {sigma:.1f}",
    )


def check_sampling_reproducibility(seed: int = 99) -> CheckResult:
    f = oracles.sample_catalog("cos2pix", 6)
    a = pipelines.qftd_run(f, shots=10**5, seed=seed)
    b = pipelines.qftd_run(f, shots=10**5, seed=seed)
    identical = bool(
        np.array_equal(a.value_sq, b.value_sq) and np.array_equal(a.retained, b.retained)
    )
    return _result("identical seed reproduces identical outputs", identical, "bitwise equal runs")


def check_resolution_fig5() -> CheckResult:
    """Shot-floor formula lands on ~260 for the singular two-sided setup."""
    f = oracles.sample_catalog("invx", 8, (-1.0, 1.0))
    eps = pipelines.resolution(f, 10**7, "derivative")
    analytical_sq = oracles.CATALOG["invx"].derivative(f.x) ** 2
    coverage = pipelines.expected_coverage(analytical_sq, eps)
    ok = abs(eps - 260.0) <= 0.15 * 260.0 and abs(coverage - 0.25) <= 0.05
    return _result(
        "resolution: 1/x on [-1,1], 1e7 shots",
        ok,
        f"epsilon {eps:.1f} (target 260 +- 15%), expected coverage {coverage:.3f} (target 0.25 +- 0.05)",
    )


def check_sampled_r2(
    preset: str, minimum: float, coverage_target: float | None = None
) -> CheckResult:
    config = experiments.RUN_PRESETS[preset]
    series, metrics = experiments.run_experiment(config)
    ok = metrics["r_squared"] is not None and metrics["r_squared"] >= minimum
    detail = f"R2 {metrics['r_squared']:.4f} (floor {minimum})"
    if coverage_target is not None:
        cov_ok = abs(metrics["coverage_observed"] - coverage_target) <= 0.05
        ok = ok and cov_ok
        detail += f", observed coverage {metrics['coverage_observed']:.3f} (target {coverage_target} +- 0.05)"
    detail += f", gates {series.gate_count}"
    return _result(f"sampled reproduction {preset}", ok, detail)


def error_trend(mode: str, qubit_range: range = range(3, 9)) -> tuple[float, list[float]]:
    """Exact-mode MAE of cos(2*pi*x) on [-1,1] against the analytical series.

    Every grid point enters the mean: censored points contribute the zero they
    are assigned during post-processing (at n=3 the integral pipeline outputs
    exactly zero everywhere because the aliased grid annihilates every
    overlapping-trapezoid area, and that zero *is* the algorithm's answer).
    """
    maes = []
    for n in qubit_range:
        f = oracles.sample_catalog("cos2pix", n, (-1.0, 1.0))
        if mode == "qftd":
            series = pipelines.qftd_run(f, shots=None)
            exact = oracles.CATALOG["cos2pix"].derivative(f.x)
        else:
            series = pipelines.qfti_run(f, shots=None)
            exact = oracles.CATALOG["cos2pix"].integral_from(float(f.x[0]), f.x)
        maes.append(
            oracles.mean_absolute_error(np.sqrt(series.value_sq), np.abs(exact))
        )
    slope = oracles.loglog_slope([1 << n for n in qubit_range], maes)
    return slope, maes


def check_error_trend(
    mode: str, target: float, tolerance: float = 0.3, qubit_range: range = range(3, 9)
) -> CheckResult:
    slope, _ = error_trend(mode, qubit_range)
    return _result(
        f"error-order trend {mode} n={qubit_range.start}..{qubit_range.stop - 1}",
        abs(slope - target) <= tolerance,
        f"log-log slope {slope:.3f} (target {target} +- {tolerance})",
    )


def check_gate_count_report() -> CheckResult:
    """Report-only: primitive operations applied per pipeline at n=6."""
    f = oracles.sample_catalog("cos2pix", 6)
    d = pipelines.qftd_run(f, shots=None)
    i = pipelines.qfti_run(f, shots=None)
    return _result(
        "gate-count report (not asserted)",
        True,
        f"n=6: derivative {d.gate_count} ops, integral {i.gate_count} ops "
        f"(summation operator counted as one op, applied matrix-free)",
    )


def fast_suite() -> list[CheckResult]:
    results: list[CheckResult] = []
    for n in (1, 3, 8):
        results.append(check_wavenumber_schedule(reference.rotation_angles(n)))
    for n in range(1, 6):
        results.append(check_qft_matrix(n))
        for inverse in (False, True):
            results.append(check_qft_replay(n, inverse))
    results.append(check_roundtrip_and_norm(6))
    results.append(check_branch_completeness(5))
    results.append(check_success_branch_law(5, pipelines.MODE_DERIVATIVE))
    results.append(check_success_branch_law(5, pipelines.MODE_INTEGRAL))
    for n in range(1, 6):
        for mode in (pipelines.MODE_DERIVATIVE, pipelines.MODE_INTEGRAL):
            for ancillas in ("a", "abc"):
                results.append(check_rotation_replay(n, mode, ancillas))
    results.append(check_control_polarity())
    for n_k in (1, 2, 3, 4):
        results.append(check_block_encoding(n_k))
    for mode, sizes in (("qftd", range(3, 7)), ("qfti", range(3, 6))):
        for function in CATALOG_IDS:
            for n in sizes:
                results.append(check_oracle(mode, function, n))
    for function in CATALOG_IDS:
        results.append(check_sampling_chisquare(function))
    results.append(check_sampling_reproducibility())
    return results


def full_suite() -> list[CheckResult]:
    results = fast_suite()
    for n_k in (5, 6):
        results.append(check_block_encoding(n_k))
    for n_k in range(1, 9):
        results.append(check_block_encoding_apply(n_k))
    for n_k in (12, spectral.MAX_QUBITS):
        results.append(check_partial_sum_half_map(n_k))
    for n_k in (12, 14, spectral.MAX_QUBITS):
        results.append(check_summation_eigenpairs(n_k))
    results.append(check_resolution_fig5())
    results.append(check_sampled_r2("fig4", 0.95))
    results.append(check_sampled_r2("fig6", 0.98, coverage_target=0.92))
    results.append(check_sampled_r2("fig12a", 0.85))
    results.append(check_sampled_r2("fig12b", 0.95))
    results.append(check_error_trend("qftd", -2.0))
    results.append(check_error_trend("qfti", -1.0))
    # At the cap: the size where the strided FFT, the Bluestein-length summation and the block sampler run.
    cap = spectral.MAX_QUBITS
    for mode, order in (("qftd", -2.0), ("qfti", -1.0)):
        for function in CATALOG_IDS:
            results.append(check_oracle(mode, function, cap))
        results.append(check_error_trend(mode, order, qubit_range=range(3, cap + 1)))
    # Inputs whose success block holds thousands of bins expected at >= 10 counts.
    for n in (6, cap):
        results.append(check_sampled_matches_exact("qftd", "noise", n))
        for function in ("poly", "harmonics"):
            results.append(check_sampled_matches_exact("qfti", function, n))
    results.append(check_gate_count_report())
    return results


def run_suite(suite: str, stream=None) -> bool:
    """Run a named suite, print one line per check, return overall success."""
    stream = stream or sys.stdout
    started = time.time()
    if suite == "fast":
        results = fast_suite()
    elif suite == "full":
        results = full_suite()
    else:
        raise ValueError(f"unknown suite {suite!r} (expected 'fast' or 'full')")
    ok = True
    for res in results:
        ok &= res.passed
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}", file=stream)
    print(
        f"{'all checks passed' if ok else 'CHECKS FAILED'} "
        f"({len(results)} checks, {time.time() - started:.1f}s)",
        file=stream,
    )
    return ok
