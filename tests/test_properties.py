"""Property tests: the oracle equivalences and norm preservation over random real samples.

Examples are drawn by hypothesis with a fixed derandomized seed, so the suite
stays reproducible; inputs whose recovery scale under- or overflows are left
to the CLI tests.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qftcalc import psmpo, spectral
from qftcalc.oracles import central_difference_periodic, trapezoid_partial_sums
from qftcalc.pipelines import SampledFunction, qftd_run, qfti_run
from qftcalc.state import NORM_TOL, GateOp, RegisterLayout, amplitude_encode, apply_gate, pauli_x

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def sampled_functions(draw):
    n = draw(st.integers(2, 7))
    samples = draw(arrays(np.float64, 1 << n, elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    assume(np.max(np.abs(samples)) >= 1e-6)
    dx = draw(st.floats(1e-3, 10.0))
    return SampledFunction(samples=samples, x0=draw(st.floats(-10.0, 10.0)), dx=dx)


@PROPERTY_SETTINGS
@given(sampled_functions())
def test_qftd_equals_squared_central_difference(f):
    series = qftd_run(f, shots=None)
    oracle_sq = central_difference_periodic(f.samples, f.dx) ** 2
    assert np.max(np.abs(series.value_sq - oracle_sq)) <= 1e-9 * (f.l2_norm / f.dx) ** 2


@PROPERTY_SETTINGS
@given(sampled_functions())
def test_qfti_equals_squared_trapezoid_sums(f):
    series = qfti_run(f, shots=None)
    eta = psmpo.build_block_encoding(f.n_points.bit_length() - 1).eta
    oracle_sq = trapezoid_partial_sums(f.samples, f.dx) ** 2
    assert np.max(np.abs(series.value_sq - oracle_sq)) <= 1e-9 * (f.l2_norm * eta * f.dx) ** 2


@PROPERTY_SETTINGS
@given(sampled_functions(), st.sampled_from([spectral.MODE_DERIVATIVE, spectral.MODE_INTEGRAL]))
def test_norm_preserved_after_each_stage(f, mode):
    # The QFTD / QFTI circuits of ``pipelines``, one stage at a time.
    n = f.n_points.bit_length() - 1
    integral = mode == spectral.MODE_INTEGRAL
    registers = (("a", 1), ("b", 1), ("c", 1), ("k", n)) if integral else (("a", 1), ("k", n))
    layout = RegisterLayout(registers)
    state, _ = amplitude_encode(np.pad(f.samples, (0, (1 << layout.n_qubits) - f.n_points)), layout)
    (a_qubit,) = layout.qubits("a")
    schedule = spectral.angle_schedule(n, mode)
    stages = [
        lambda: spectral.qft(state, "k"),
        lambda: spectral.wavenumber_rotation(state, schedule),
        lambda: spectral.qft(state, "k", inverse=True, control=(a_qubit, schedule.success_bit)),
    ]
    if integral:
        stages.insert(0, lambda: apply_gate(state, GateOp(pauli_x(), (a_qubit,))))
        enc = psmpo.build_block_encoding(n)
        stages.append(lambda: psmpo.apply_partial_sum(state, enc, control=(a_qubit, schedule.success_bit)))
    assert abs(state.norm() - 1.0) <= NORM_TOL
    for stage in stages:
        stage()
        assert abs(state.norm() - 1.0) <= NORM_TOL
