"""Acceptance suite: the release gate, one test per numbered criterion.

Each test prints a single pass/fail summary line (run pytest with ``-s`` to
see them inline) and asserts both the numeric targets and the runtime budget
it was given.
"""

import time

import numpy as np

from qftcalc import checks
from qftcalc.experiments import RUN_PRESETS, run_experiment
from qftcalc.oracles import (
    CATALOG,
    central_difference_periodic,
    sample_catalog,
    trapezoid_partial_sums,
)
from qftcalc.pipelines import expected_coverage, qftd_run, qfti_run, resolution
from qftcalc.psmpo import build_block_encoding


def report(number: int, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_qftd_oracle_equivalence():
    started = time.time()
    worst = 0.0
    for name in sorted(CATALOG):
        for n in range(3, 9):
            f = sample_catalog(name, n)
            series = qftd_run(f, shots=None)
            oracle_sq = central_difference_periodic(f.samples, f.dx) ** 2
            scale = (f.l2_norm / f.dx) ** 2
            worst = max(worst, float(np.max(np.abs(series.value_sq - oracle_sq))) / scale)
    elapsed = time.time() - started
    report(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"QFTD exact == squared central difference, all functions n=3..8; "
        f"worst scaled deviation {worst:.2e} (tol 1e-09), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_qfti_oracle_equivalence():
    started = time.time()
    worst = 0.0
    for name in sorted(CATALOG):
        for n in range(3, 7):
            f = sample_catalog(name, n)
            series = qfti_run(f, shots=None)
            oracle_sq = trapezoid_partial_sums(f.samples, f.dx) ** 2
            scale = (f.l2_norm * build_block_encoding(n).eta * f.dx) ** 2
            worst = max(worst, float(np.max(np.abs(series.value_sq - oracle_sq))) / scale)
    elapsed = time.time() - started
    report(
        2,
        worst <= 1e-9 and elapsed < 10.0,
        f"QFTI exact == squared cumulative trapezoid, all functions n=3..6; "
        f"worst scaled deviation {worst:.2e} (tol 1e-09), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_block_encoding_validity():
    started = time.time()
    worst_unitary = 0.0
    worst_block = 0.0
    for n_k in range(1, 7):  # N = 2 .. 64
        enc = build_block_encoding(n_k)
        N = enc.dimension
        dim = 4 * N
        sigma = np.tril(np.ones((N, N)))
        h = np.block([[np.zeros((N, N)), sigma.T], [sigma, np.zeros((N, N))]])
        worst_unitary = max(
            worst_unitary, float(np.max(np.abs(enc.unitary.T @ enc.unitary - np.eye(dim))))
        )
        worst_block = max(
            worst_block, float(np.max(np.abs(enc.unitary[: 2 * N, : 2 * N] - h / enc.eta)))
        )
    elapsed = time.time() - started
    report(
        3,
        worst_unitary <= 1e-10 and worst_block <= 1e-10 and elapsed < 10.0,
        f"block encodings N=2..64: unitarity defect {worst_unitary:.2e}, "
        f"block defect {worst_block:.2e} (tol 1e-10), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_4_sampled_r2_reproduction():
    started = time.time()
    _, fig4 = run_experiment(RUN_PRESETS["fig4"])
    fig4_time = time.time() - started
    mid = time.time()
    _, fig6 = run_experiment(RUN_PRESETS["fig6"])
    fig6_time = time.time() - mid
    ok = (
        fig4["r_squared"] is not None
        and fig4["r_squared"] >= 0.95
        and fig6["r_squared"] is not None
        and fig6["r_squared"] >= 0.98
        and abs(fig6["coverage_observed"] - 0.92) <= 0.05
        and fig4_time < 300.0
        and fig6_time < 300.0
    )
    report(
        4,
        ok,
        f"fig4 R2 {fig4['r_squared']:.4f} (floor 0.95, reference 0.982) in {fig4_time:.1f}s; "
        f"fig6 R2 {fig6['r_squared']:.4f} (floor 0.98, reference 0.995), observed coverage "
        f"{fig6['coverage_observed']:.3f} (0.92 +- 0.05) in {fig6_time:.1f}s",
    )


def test_criterion_5_resolution_formula():
    f = sample_catalog("invx", 8, (-1.0, 1.0))
    eps = resolution(f, 10**7, "derivative")
    analytical_sq = CATALOG["invx"].derivative(f.x) ** 2
    coverage = expected_coverage(analytical_sq, eps)
    ok = abs(eps - 260.0) <= 0.15 * 260.0 and abs(coverage - 0.25) <= 0.05
    report(
        5,
        ok,
        f"fig5 resolution {eps:.1f} (260 +- 15%), expected coverage {coverage:.3f} (0.25 +- 0.05)",
    )


def test_criterion_6_qfti_sampled_reproduction():
    _, poly = run_experiment(RUN_PRESETS["fig12a"])
    _, harmonics = run_experiment(RUN_PRESETS["fig12b"])
    ok = (
        poly["r_squared"] is not None
        and poly["r_squared"] >= 0.85
        and harmonics["r_squared"] is not None
        and harmonics["r_squared"] >= 0.95
    )
    report(
        6,
        ok,
        f"fig12a R2 {poly['r_squared']:.4f} (floor 0.85, reference 0.91); "
        f"fig12b R2 {harmonics['r_squared']:.4f} (floor 0.95, reference 0.98)",
    )


def test_criterion_7_error_order_trends():
    started = time.time()
    slope_d, maes_d = checks.error_trend("qftd")
    slope_i, maes_i = checks.error_trend("qfti")
    elapsed = time.time() - started
    ok = abs(slope_d + 2.0) <= 0.3 and abs(slope_i + 1.0) <= 0.3 and elapsed < 30.0
    report(
        7,
        ok,
        f"log-log MAE slopes n=3..8: QFTD {slope_d:.3f} (-2 +- 0.3), "
        f"QFTI {slope_i:.3f} (-1 +- 0.3), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_8_validate_fast_suite():
    started = time.time()
    results = checks.fast_suite()
    elapsed = time.time() - started
    failures = [r for r in results if not r.passed]
    for failure in failures:
        print(f"  fast-suite failure: {failure.name}: {failure.detail}")
    report(
        8,
        not failures and elapsed < 60.0,
        f"validate-fast: {len(results)} checks "
        f"(sampling chi-square, branch completeness, QFT-vs-DFT, reproducibility, "
        f"oracle equivalences, unitarity) all pass in {elapsed:.1f}s (< 60s)",
    )


def test_gate_count_report():
    """Not a pass/fail criterion: operation counts are reported, not asserted,
    because the summation operator counts as one gate."""
    lines = []
    for n in (4, 6, 8):
        d = qftd_run(sample_catalog("cos2pix", n), shots=None)
        lines.append(f"n={n}: derivative {d.gate_count} ops")
    for n in (4, 6):
        i = qfti_run(sample_catalog("cos2pix", n), shots=None)
        lines.append(f"n={n}: integral {i.gate_count} ops (summation = 1 op)")
    print("\n[REPORT] gate counts: " + "; ".join(lines))
