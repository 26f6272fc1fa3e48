"""Self-validation suites behind the ``validate`` CLI subcommand.

``fast`` runs the exact-mode oracle equivalences plus structural checks
(unitarity, transform-matrix equality and gate-by-gate replays of the QFT
on real, Hermitian and complex inputs, replays of the rotation cascade,
rotation branch bookkeeping, sampling soundness, reproducibility) in well
under a minute. ``full`` adds the sampled reproduction targets, the
error-order regressions, both oracles at n = 8, 12 and the qubit cap with
the accuracy ledger (each output's deviation from the correctly rounded
stencils), each sampled pipeline against its exact twin at the cap, the
readout's categorical completion against the multinomial pmf, the
matrix-free block encoding against its dense oracle, the run path's
summation against the four-block map and against its closed-form
eigenpairs, and reports gate counts. The oracles come from
:mod:`qftcalc.reference`.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import experiments, oracles, pipelines, psmpo, reference, spectral
from .state import (
    POISSON_MARGIN,
    RegisterLayout,
    Statevector,
    amplitude_encode,
    apply_gate,
    exact_probabilities,
    sample_counts,
)

__all__ = ["CheckResult", "fast_suite", "full_suite", "run_suite"]

CATALOG_IDS = ("cos2pix", "invx", "poly", "harmonics")

# check_oracle's bound relative to the largest squared oracle value. Exact
# outputs deviate from the stencils by at most 2.2e-12 of it at n = 3..16 on
# the catalog functions (QFTD harmonics at n = 16; 4.1e-12 when both QFTs ran
# complex FFTs), wherever the oracle is above round-off: a margin of 45.
ORACLE_REL_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# The inputs spectral.qft tells apart, by the exact symmetry of each row along k.
# The last three are neither real nor Hermitian, so they take the complex FFT.
QFT_INPUT_KINDS = ("real", "hermitian", "complex", "dc-imaginary", "nyquist-imaginary", "mixed")


def qft_input(rng: np.random.Generator, layout: RegisterLayout, kind: str) -> np.ndarray:
    """Unit-norm amplitudes on ``layout`` whose every row along the k register is of ``kind``.

    ``real`` rows have no imaginary part; ``hermitian`` rows have real
    entries 0 and N/2 and entry N - k the conjugate of entry k, bit for bit;
    ``dc-imaginary`` and ``nyquist-imaginary`` rows are Hermitian but for an
    imaginary part at entry 0 or N/2; ``mixed`` alternates real and
    Hermitian rows; ``complex`` rows are random.
    """
    k_axis = layout.names.index("k")
    shape = (*layout.shape[:k_axis], *layout.shape[k_axis + 1 :], layout.shape[k_axis])
    N = shape[-1]
    half = N // 2
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "real":
        v.imag = 0.0
    elif kind != "complex":
        v[..., [0, half]] = v[..., [0, half]].real
        v[..., half + 1 :] = v[..., half - 1 : 0 : -1].conj()
        if kind == "dc-imaginary":
            v[..., 0] += 1j
        elif kind == "nyquist-imaginary":
            v[..., half] += 1j
        elif kind == "mixed":
            real_rows = v.reshape(-1, N)[::2]
            real_rows[...] = rng.normal(size=real_rows.shape)
        elif kind != "hermitian":
            raise ValueError(f"unknown input kind {kind!r}")
    # A real factor keeps every row's symmetry bit for bit.
    v *= 1.0 / np.sqrt(np.sum(np.abs(v) ** 2))
    return np.moveaxis(v, -1, k_axis).reshape(-1)


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
    """The circuit, replayed gate by gate, and the FFT-based QFT in both directions equal the explicit DFT matrix.

    The circuit runs on the basis vectors. The FFT runs on inputs of each
    kind it tells apart: the basis vectors ``e_j`` (real),
    ``i (e_k - e_{N-k})`` for 0 < k < N/2 (Hermitian, not real) and
    ``i e_j`` (complex), each against the matrix or its adjoint times it.
    """
    dim = 1 << n
    layout = RegisterLayout((("k", n),))
    eye = np.eye(dim, dtype=complex)
    circuit = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        replay = Statevector(eye[j].copy(), layout)
        for payload, targets, controls in reference.qft_gate_sequence(layout.qubits("k"), inverse=False):
            apply_gate(replay, payload, targets, controls)
        circuit[:, j] = replay.amplitudes
    k = np.arange(dim)
    dft = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
    err = float(np.max(np.abs(circuit - dft)))
    inputs = [*eye, *(1j * (eye[j] - eye[-j]) for j in range(1, dim // 2)), *(1j * eye)]
    for x in inputs:
        for inverse, matrix in ((False, dft), (True, dft.conj().T)):
            fft = spectral.qft(Statevector(x.copy(), layout), inverse=inverse).amplitudes
            err = max(err, float(np.max(np.abs(fft - matrix @ x))))
    return _result(
        f"QFT circuit and FFT (real, Hermitian and complex inputs, both directions) match DFT matrix n={n}",
        err <= 1e-12,
        f"max deviation {err:.2e}",
    )


def check_qft_replay(n: int, inverse: bool, seed: int = 5) -> CheckResult:
    """The FFT-based QFT on a register between two free qubits equals the gate-by-gate replay.

    Runs uncontrolled, on a branch of four rows, and controlled from the
    free qubit above and the one below, on two rows, so the register's axis
    is a middle axis of the state's view; and on each of
    :data:`QFT_INPUT_KINDS`, so every FFT that ``qft`` chooses is replayed.
    """
    layout = RegisterLayout((("y", 1), ("k", n), ("x", 1)))
    rng = np.random.default_rng(seed)
    err = 0.0
    for kind in QFT_INPUT_KINDS:
        amps = qft_input(rng, layout, kind)
        for control in (None, {"y": 1}, {"x": 0}):
            fft = spectral.qft(Statevector(amps.copy(), layout), inverse=inverse, control=control)
            replay = Statevector(amps.copy(), layout)
            # One (qubit, bit) control per qubit of each register the control fixes.
            outer = tuple((q, v >> i & 1) for r, v in (control or {}).items() for i, q in enumerate(layout.qubits(r)))
            for payload, targets, controls in reference.qft_gate_sequence(layout.qubits("k"), inverse):
                apply_gate(replay, payload, targets, controls + outer)
            err = max(err, float(np.max(np.abs(fft.amplitudes - replay.amplitudes))))
    direction = "inverse" if inverse else "forward"
    return _result(
        f"{direction} QFT between free qubits == gate replay, every input kind, n={n}",
        err <= 1e-13,
        f"max deviation {err:.2e}",
    )


def check_roundtrip_and_norm(n: int, seed: int = 7) -> CheckResult:
    """Forward-then-inverse QFT restores a real, a Hermitian and a complex state; norm never drifts.

    A real state goes by ``rfft`` and comes back by ``irfft``, a Hermitian
    one the other way round, and a complex one by the complex FFT both ways.
    """
    rng = np.random.default_rng(seed)
    layout = RegisterLayout((("k", n),))
    err = norm_drift = 0.0
    for kind in ("real", "hermitian", "complex"):
        amps = qft_input(rng, layout, kind)
        state = Statevector(amps.copy(), layout)
        spectral.qft(state)
        norm_drift = max(norm_drift, abs(np.linalg.norm(state.amplitudes) - 1.0))
        spectral.qft(state, inverse=True)
        err = max(err, float(np.max(np.abs(state.amplitudes - amps))))
    return _result(
        f"QFT roundtrip identity (real, Hermitian, complex) n={n}",
        err <= 1e-12 and norm_drift <= 1e-12,
        f"roundtrip deviation {err:.2e}, norm drift {norm_drift:.2e}",
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
    """Exact-mode pipeline equals the squared periodic central difference (qftd) or cumulative trapezoid (qfti).

    Three bounds hold ``err = max|value_sq - oracle^2|``. ``1e-9 scale^2``
    alone passes an all-zero output at the cap, where it outgrows
    ``max oracle^2``; ``1e-9 scale max|oracle|`` fails it wherever the
    oracle is not zero (real outputs reach 4.4e-7 of it at n = 3..16), but
    still passes an output scaled by 1 + 1e-6 at the cap. The third,
    ``ORACLE_REL_TOL max oracle^2`` plus the censoring floor
    ``EXACT_PSI_SQ_FLOOR scale^2``, fails that too: real outputs reach 1/45
    of it (see :data:`ORACLE_REL_TOL`). The detail also reports the
    accuracy ledger, the output's largest deviation from the correctly
    rounded stencil (:func:`qftcalc.reference.exact_stencils`) relative to
    the largest squared value.
    """
    f = oracles.sample_catalog(function, n)
    central, trapezoid = reference.exact_stencils(f.samples, f.dx)
    if mode == "qftd":
        series, name = pipelines.qftd_run(f, shots=None), "QFTD exact == central difference"
        oracle, exact, scale = oracles.central_difference_periodic(f.samples, f.dx), central, f.l2_norm / f.dx
    else:
        series, name = pipelines.qfti_run(f, shots=None), "QFTI exact == cumulative trapezoid"
        eta = psmpo.build_block_encoding(n).eta
        oracle, exact = oracles.trapezoid_partial_sums(f.samples, f.dx), trapezoid
        scale = f.l2_norm * eta * f.dx
    tol = 1e-9 * scale**2
    relative_tol = 1e-9 * scale * float(np.max(np.abs(oracle)))
    peak_sq = float(np.max(oracle**2))
    squared_tol = ORACLE_REL_TOL * peak_sq + pipelines.EXACT_PSI_SQ_FLOOR * scale**2
    err = float(np.max(np.abs(series.value_sq - oracle**2)))
    exact_sq = exact**2
    ledger = float(np.max(np.abs(series.value_sq - exact_sq))) / max(float(np.max(exact_sq)), math.ulp(0.0))
    detail = (
        f"max |diff| {err:.2e} (tol {tol:.2e}; by scale * max|oracle| {relative_tol:.2e}; "
        f"by max oracle^2 {squared_tol:.2e}); from exact {ledger:.2e} of max value^2"
    )
    passed = err <= tol and err <= relative_tol and err <= squared_tol
    return _result(f"{name} ({function}, n={n})", passed, detail)


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
    psmpo.apply_partial_sum(state, control={"a": on})
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
    """Shot sampling is consistent with the Born-rule distribution.

    Draws every outcome, then the upper half alone: the branch h = 1 of the
    same amplitudes viewed as registers (h, k). Both spread their shots
    by Poissonization, whose law is exactly multinomial; at 1e6 shots over
    64 outcomes nearly every shot comes from the Poisson level (see
    :func:`check_sampling_small_counts` for the completion). Each draw
    passes while its chi-square p-value stays above 1e-6, outcomes with
    expected count below 10 lumped into one bin; the half draw's shots that
    miss the half form one more outcome. The number of shots landing in the
    half must lie within 6 sigma of its binomial mean.
    """
    f = oracles.sample_catalog(function, n)
    layout = RegisterLayout((("k", n),))
    state = amplitude_encode(f.samples, f.l2_norm, layout)
    probs = exact_probabilities(state)
    p_value, bins = _chisquare_p_value(sample_counts(state, shots, seed=2024), probs * shots)

    upper = probs[1 << (n - 1) :]
    halves = Statevector(state.amplitudes, RegisterLayout((("h", 1), ("k", n - 1))))
    counts = sample_counts(halves, shots, seed=2024, branch={"h": 1})
    hits, share = int(counts.sum()), float(np.sum(upper))
    block_p_value, block_bins = _chisquare_p_value(
        np.append(counts, shots - hits), np.append(upper, 1.0 - share) * shots
    )
    sigma = float(np.sqrt(shots * share * (1.0 - share)))
    hits_ok = abs(hits - shots * share) <= 6.0 * sigma
    return _result(
        f"sampling chi-square ({function}, {shots:.0e} shots)",
        p_value >= 1e-6 and block_p_value >= 1e-6 and hits_ok,
        f"p-value {p_value:.3g} over {bins} bins; upper half: p-value {block_p_value:.3g} over "
        f"{block_bins} bins, {hits} hits against {shots * share:.1f} +- {sigma:.1f}",
    )


def check_sampling_small_counts(shots: int = int(4 * POISSON_MARGIN**2) + 4, seeds: int = 10_000) -> CheckResult:
    """The Poissonized readout's completion keeps the draw exactly multinomial.

    ``shots`` (``4 c^2 + 4`` with ``c = state.POISSON_MARGIN``) are drawn over
    the outcomes p = (0.2, 0.3, 0.5, 0) of a 2-qubit state, once per seed in
    ``range(seeds)``: one Poisson level, then the categorical completion of
    about ``c sqrt(shots)`` shots. At the qubit cap the completion carries
    about 0.1% of the hits, so the sampled-vs-exact twins cannot see it;
    here it carries about half. Every draw must sum to ``shots`` and leave
    the zero-probability last outcome at 0, and the joint counts of the
    first two outcomes pass while their chi-square p-value against the
    ``Multinomial(shots, p)`` pmf stays above 1e-6, lumped as in
    :func:`check_sampling_chisquare`.
    """
    state = Statevector(np.sqrt([0.2, 0.3, 0.5, 0.0]), RegisterLayout((("k", 2),)))
    probs = exact_probabilities(state)
    draws = np.array([sample_counts(state, shots, seed) for seed in range(seeds)])
    exact = bool(np.all(draws.sum(axis=1) == shots) and np.all(draws[:, 3] == 0))
    # Bin x0 * (shots + 1) + x1 holds the draws with counts (x0, x1, shots - x0 - x1, 0).
    grid = (shots + 1) ** 2
    x0, x1 = np.divmod(np.arange(grid), shots + 1)
    x = np.stack([x0, x1, shots - x0 - x1])
    inside = x[2] >= 0
    x = x[:, inside]
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, shots + 1)))))
    log_pmf = log_fact[shots] - log_fact[x].sum(axis=0) + np.log(probs[:3] / probs.sum()) @ x
    observed = np.bincount(draws[:, 0] * (shots + 1) + draws[:, 1], minlength=grid)[:grid][inside]
    p_value, bins = _chisquare_p_value(observed, seeds * np.exp(log_pmf))
    return _result(
        f"sampling completion pmf ({shots} shots, {seeds} seeds)",
        exact and p_value >= 1e-6,
        f"p-value {p_value:.3g} over {bins} bins of the joint pmf; "
        f"{'every draw sums to the shots with 0 at p = 0' if exact else 'a draw misses the shots or counts p = 0'}",
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
    # The oracle checks at n = 8, 12 and the cap carry the accuracy ledger in their detail.
    cap = spectral.MAX_QUBITS
    for mode, order in (("qftd", -2.0), ("qfti", -1.0)):
        for function in CATALOG_IDS:
            for n in (8, 12, cap):
                results.append(check_oracle(mode, function, n))
        results.append(check_error_trend(mode, order, qubit_range=range(3, cap + 1)))
    # Inputs whose success block holds thousands of bins expected at >= 10 counts.
    for n in (6, cap):
        results.append(check_sampled_matches_exact("qftd", "noise", n))
        for function in ("poly", "harmonics"):
            results.append(check_sampled_matches_exact("qfti", function, n))
    # The completion the twins cannot see: a few dozen shots, about half of them categorical.
    results.append(check_sampling_small_counts())
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
