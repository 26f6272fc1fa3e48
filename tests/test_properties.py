"""Property tests: the oracle equivalences and norm preservation over random real samples.

Examples are drawn by hypothesis with a fixed derandomized seed, so the suite
stays reproducible; inputs whose recovery scale under- or overflows are left
to the CLI tests.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qftcalc import checks, cli, psmpo, spectral
from qftcalc.experiments import RUN_PRESETS, SWEEP_PRESETS, ConfigError, ExperimentConfig
from qftcalc.oracles import CATALOG, central_difference_periodic, trapezoid_partial_sums
from qftcalc.pipelines import MODE_DERIVATIVE, MODE_INTEGRAL, SampledFunction, qftd_run, qfti_run
from qftcalc.reference import pauli_x
from qftcalc.state import RegisterLayout, amplitude_encode, apply_gate

# Tolerance for |‖state‖₂ − 1| after any unitary stage.
NORM_TOL = 1e-12
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


# Each example's chi-square may fail by chance with probability 1e-6, so few are drawn.
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["qftd", "qfti"]), st.integers(3, 8), st.integers(0, 2**32 - 1))
def test_sampled_run_matches_its_exact_twin(mode, n, seed):
    result = checks.check_sampled_matches_exact(mode, "noise", n, shots=10**6, seed=seed)
    assert result.passed, result.detail


@PROPERTY_SETTINGS
@given(sampled_functions(), st.sampled_from([MODE_DERIVATIVE, MODE_INTEGRAL]))
def test_norm_preserved_after_each_stage(f, mode):
    # The QFTD / QFTI circuits of ``pipelines``, one stage at a time.
    n = f.n_points.bit_length() - 1
    integral = mode == MODE_INTEGRAL
    registers = (("a", 1), ("b", 1), ("c", 1), ("k", n)) if integral else (("a", 1), ("k", n))
    layout = RegisterLayout(registers)
    state = amplitude_encode(f.samples, f.l2_norm, layout, {name: 0 for name, _ in registers[:-1]})
    stages = [
        lambda: spectral.qft(state),
        lambda: spectral.wavenumber_rotation(state),
        lambda: spectral.qft(state, inverse=True, control={"a": spectral.SUCCESS_BIT}),
    ]
    if integral:
        stages.insert(0, lambda: apply_gate(state, pauli_x(), layout.qubits("a")))
        stages.append(lambda: psmpo.apply_partial_sum(state, control={"a": spectral.SUCCESS_BIT}))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= NORM_TOL
    for stage in stages:
        stage()
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= NORM_TOL


# Config-file fuzzing over every ExperimentConfig field. Any JSON value may
# stand in for a field (NaN and Infinity included: Python's json reads them).
# Free text uses an alphabet without "/" so that every path stays inside the
# temporary directory the run works in; valid qubit counts stay below the caps
# so that an accepted config runs in milliseconds (the cap runs are CLI tests).
FUZZ_TEXT = st.text(alphabet="xyz.-_ \x00", max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | FUZZ_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(FUZZ_TEXT, inner, max_size=2),
    max_leaves=4,
)
FILE_NAMES = st.sampled_from(["o.csv", "o", "", ".", "..", "missing/o.csv", "o\x00.csv"])
# Per field: values that pass validation, and values that probe it.
CONFIG_FIELDS = {
    "mode": (st.sampled_from(["qftd", "qfti"]), FUZZ_TEXT),
    "function": (
        st.sampled_from(sorted(CATALOG) + ["grid.csv"]),
        st.sampled_from(["nan.csv", "missing.csv", "."]) | FUZZ_TEXT,
    ),
    "qubits": (st.integers(2, 8), st.integers(-1, 1) | st.sampled_from([32, 17, 2**63])),
    "domain": (
        st.tuples(st.floats(-4, 4), st.floats(0.1, 4)).map(lambda d: [d[0], d[0] + d[1]]),
        # Booleans and integers beyond float range are no numbers to the config.
        st.lists(
            st.floats() | st.integers(-3, 3) | st.booleans() | st.sampled_from([10**400, -(10**400)]), max_size=3
        ),
    ),
    "shots": (
        st.sampled_from(["exact", "1e4", 1e4]) | st.integers(1, 10**5),
        st.sampled_from(["many", "-1", 0, 2**63, 1e30]),
    ),
    "seed": (st.integers(0, 2**70), st.integers(-(2**70), -1)),
    "output": (st.just("o.csv"), FILE_NAMES),
    "plot": (st.just("o.svg"), FILE_NAMES),
    "scale": (st.sampled_from(["linear", "semilog"]), FUZZ_TEXT),
}


# The record's own fields, valid and probe values as above, in the types
# the record declares: a domain is a pair of floats and a shot count an
# integer, where a config file writes a list and shot strings. Optional
# fields also take None.
RECORD_FIELDS = {
    "mode": CONFIG_FIELDS["mode"],
    "function": CONFIG_FIELDS["function"],
    "n_qubits": CONFIG_FIELDS["qubits"],
    "domain": (CONFIG_FIELDS["domain"][0].map(tuple), st.tuples(st.floats(), st.floats())),
    "shots": (st.integers(1, 10**5), st.sampled_from([0, -1, 2**63])),
    "seed": CONFIG_FIELDS["seed"],
    "output": CONFIG_FIELDS["output"],
    "plot": CONFIG_FIELDS["plot"],
    "scale": CONFIG_FIELDS["scale"],
}
OPTIONAL_FIELDS = ("n_qubits", "domain", "shots", "output", "plot")


@st.composite
def records(draw):
    # As config_files draws: a valid record with up to three fields swapped
    # for a probe or, where the field is optional, for None.
    fields = {key: draw(valid) for key, (valid, _) in RECORD_FIELDS.items()}
    for key in draw(st.lists(st.sampled_from(sorted(RECORD_FIELDS)), max_size=3, unique=True)):
        probe = RECORD_FIELDS[key][1]
        fields[key] = draw(probe | st.none() if key in OPTIONAL_FIELDS else probe)
    return fields


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(records())
def test_config_builds_or_raises_config_error(fields):
    # The record checks itself when it is built, so no caller can hold an unchecked one.
    try:
        ExperimentConfig(**fields)
    except ConfigError:
        pass


PRESETS = {**RUN_PRESETS, **{name: base for name, (base, _) in SWEEP_PRESETS.items()}}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_past_the_cap_raises(name):
    # replace builds a new record, so it checks the new count too.
    with pytest.raises(ConfigError, match="field 'qubits'"):
        replace(PRESETS[name], n_qubits=17)


# A sweep takes a list of qubit counts, and the run-only keys only as probes.
RUN_ONLY = ("output", "plot", "scale")
SWEEP_FIELDS = {key: fields for key, fields in CONFIG_FIELDS.items() if key not in RUN_ONLY}
SWEEP_FIELDS["qubits"] = (
    st.lists(st.integers(2, 6), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 13), max_size=3) | st.sampled_from([4, "4", None, [4, 4]]),
)


def config_files(fields, probes=()):
    # A valid config with up to three fields dropped, swapped for a probe
    # or swapped for any JSON value, and sometimes an unknown key or a probe
    # key that the subcommand rejects.
    @st.composite
    def draw_config(draw):
        config = {key: draw(valid) for key, (valid, _) in fields.items()}
        for key in draw(st.lists(st.sampled_from(sorted(fields)), max_size=3, unique=True)):
            change = draw(st.sampled_from(["probe", "json", "drop"]))
            if change == "drop":
                del config[key]
            else:
                config[key] = draw(fields[key][1] if change == "probe" else JSON_VALUES)
        extra = draw(st.integers(0, 4))
        if extra == 4:
            config[draw(FUZZ_TEXT.filter(lambda key: key not in CONFIG_FIELDS))] = draw(JSON_VALUES)
        elif extra == 3 and probes:
            key = draw(st.sampled_from(probes))
            config[key] = draw(CONFIG_FIELDS[key][0])
        return config

    return draw_config()


def finite_json_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


def exits_cleanly(config, argv):
    # ``main`` must turn every config into exit 0, 1 or 2 with a one-line
    # message, and never leave a temporary file or a non-finite value in a
    # result file.
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            x = [j / 8 for j in range(8)]
            Path("grid.csv").write_text("".join(f"{v!r},{math.sin(v)!r}\n" for v in x))
            Path("nan.csv").write_text("".join(f"{v!r},{'nan' if j == 3 else 1.0}\n" for j, v in enumerate(x)))
            Path("cfg.json").write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2)
            assert code == 0 or len(err.getvalue().splitlines()) == 1
            assert not list(Path(".").rglob("*.tmp"))
            for path in Path(".").rglob("*"):
                if path.name.endswith(".metrics.json"):
                    json.loads(path.read_text(), parse_constant=finite_json_constant)
                elif path.name not in ("grid.csv", "nan.csv", "cfg.json", "sweep_summary.csv") and path.suffix == ".csv":
                    cells = [row.split(",") for row in path.read_text().splitlines()[1:]]
                    assert np.all(np.isfinite(np.array(cells, dtype=float)))
            return code
        finally:
            os.chdir(home)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(config_files(CONFIG_FIELDS))
def test_fuzzed_config_file_exits_cleanly(config):
    exits_cleanly(config, ["run", "--config", "cfg.json"])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(config_files(SWEEP_FIELDS, probes=RUN_ONLY))
def test_fuzzed_sweep_config_file_exits_cleanly(config):
    code = exits_cleanly(config, ["sweep", "--config", "cfg.json", "--output-dir", "out"])
    assert code != 0 or not set(RUN_ONLY) & set(config)


# Two-element domains that hold a bool or an integer past float range, in a
# config that is valid otherwise: only the domain's number check stands
# between them and float(), which raises OverflowError on 10**400.
NOT_A_NUMBER = st.booleans() | st.sampled_from([10**400, -(10**400)])


@st.composite
def domain_probes(draw):
    bad, other = draw(NOT_A_NUMBER), draw(NOT_A_NUMBER | st.floats() | st.integers(-3, 3))
    return [bad, other] if draw(st.booleans()) else [other, bad]


def valid_configs(fields):
    return st.fixed_dictionaries({key: valid for key, (valid, _) in fields.items()})


@PROPERTY_SETTINGS
@given(valid_configs(CONFIG_FIELDS), domain_probes())
def test_config_file_domain_probe_is_one(config, domain):
    assert exits_cleanly(dict(config, domain=domain), ["run", "--config", "cfg.json"]) == 1


@PROPERTY_SETTINGS
@given(valid_configs(SWEEP_FIELDS), domain_probes())
def test_sweep_config_file_domain_probe_is_one(config, domain):
    argv = ["sweep", "--config", "cfg.json", "--output-dir", "out"]
    assert exits_cleanly(dict(config, domain=domain), argv) == 1
