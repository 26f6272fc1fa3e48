#!/usr/bin/env python3
"""qftcalc benchmark: three user workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Workloads. The loop is closed with one client: an op starts only after the
previous one returned, and at most one op process is alive at a time.

    figures     one op is one fresh ``qftcalc run --preset P`` process; P
                cycles over the nine run presets with ``--seed`` = the
                workload seed.
    qfti_trend  one op is one fresh ``qftcalc sweep --mode qfti`` process over
                n = 3..8 in exact mode. The input is a catalog function, so
                the workload seed is not used.
    qftd_large  one long-lived worker; one op is one ``qftcalc.qftd_run`` call
                at n = 16 on random samples drawn from the workload seed,
                alternating exact mode and 1e7 shots.

Ops run in rounds (one preset cycle, one sweep, one exact + sampled pair)
until ``--seconds`` have passed, and at least two rounds. Every op's outputs
are checked against the classical oracles (see ``verify.py``); an op that
exits non-zero, raises, times out or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates traced
and untraced ops (rounds, for ``qftd_large``) and prints the per-layer metrics
(see ``tracer.py``) and the tracing overhead. Human-readable lines come first; the last stdout line
is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
LAUNCHER = HERE / "launcher.py"
WORKER = HERE / "worker.py"

if not (SRC / "qftcalc" / "__init__.py").is_file():
    sys.exit(f"perfbench: no qftcalc sources under {SRC}; run from a qftcalc checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import verify  # noqa: E402
from qftcalc.experiments import RUN_PRESETS  # noqa: E402
from worker import DX, make_samples  # noqa: E402

MIN_ROUNDS = 2
OP_TIMEOUT_S = 120.0
QFTD_SHOTS = 10**7
WORKER_SETUPS = 3
TREND_ARGV = [
    "sweep", "--mode", "qfti", "--function", "cos2pix", "--domain", "-1", "1",
    "--qubits", "3", "4", "5", "6", "7", "8", "--shots", "exact",
]

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Op:
    """One timed operation and what the checks made of it."""

    label: str
    time_s: float
    traced: bool
    setup_s: float | None = None
    rss_kib: int = 0
    points: int = 0
    error: str | None = None
    spans: list = field(default_factory=list)
    imports: dict | None = None
    index: int = 0


def wait_for(proc: subprocess.Popen, timeout: float):
    """Reap ``proc``, killing it after ``timeout`` s; return (code, rusage, end, timed_out)."""
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        if not ready:
            proc.kill()
        _, status, rusage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage, end, not ready


def run_cli(label: str, argv: list[str], workdir: Path, env: dict, traced: bool) -> Op:
    """One op: spawn the launcher with CLI arguments and wait for it to exit."""
    mark, spans_path, stderr_path = workdir / "import.mark", workdir / "spans.json", workdir / "stderr.txt"
    mark.unlink(missing_ok=True)
    spans_path.unlink(missing_ok=True)
    child_env = dict(env, PERFBENCH_MARK=str(mark))
    if traced:
        child_env["PERFBENCH_SPANS"] = str(spans_path)
    command = [sys.executable, *(["-X", "importtime"] if traced else []), str(LAUNCHER), *argv]
    with open(stderr_path, "wb") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=workdir, env=child_env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
        )
        code, rusage, end, timed_out = wait_for(proc, OP_TIMEOUT_S)
    op = Op(label, end - start, traced, rss_kib=rusage.ru_maxrss)
    if mark.exists():
        op.setup_s = float(mark.read_text(encoding="utf-8")) - start
    stderr_text = stderr_path.read_text(encoding="utf-8", errors="replace")
    if timed_out:
        op.error = f"timed out after {OP_TIMEOUT_S:.0f} s"
    elif code != 0:
        messages = [line for line in stderr_text.splitlines() if not line.startswith("import time:")]
        op.error = f"exit code {code}: {messages[-1] if messages else ''}"
    if traced:
        op.imports = tracer.import_times_ms(stderr_text)
        if spans_path.exists():
            op.spans = json.loads(spans_path.read_text(encoding="utf-8"))
    return op


def check(op: Op, gate, *args) -> None:
    """Run a correctness gate on a completed op, recording a failure on it."""
    if op.error is None:
        try:
            gate(*args)
        except verify.CheckFailed as exc:
            op.error = str(exc)


class CliWorkload:
    """A workload whose every op is one fresh CLI process.

    With ``trace`` every other op is traced, so traced and untraced ops share
    the same stretch of machine time.
    """

    def __init__(self, seed: int, workdir: Path, env: dict, trace: bool):
        self.seed, self.workdir, self.env, self.trace = seed, workdir, env, trace
        self.ops_started = 0
        # Byte-compile and page in the imports untimed, as an installed CLI would be.
        subprocess.run([sys.executable, "-c", "import qftcalc.cli"], cwd=workdir, env=env, timeout=OP_TIMEOUT_S)

    def run_op(self, label: str, argv: list[str]) -> Op:
        traced = self.trace and self.ops_started % 2 == 0
        self.ops_started += 1
        return run_cli(label, argv, self.workdir, self.env, traced)

    def finish(self, ops: list[Op]) -> tuple[list[float], int]:
        """Set-up times (spawn until ``import qftcalc.cli`` returned) and peak RSS."""
        timed = [op for op in ops if not op.traced]
        return [op.setup_s for op in timed if op.setup_s is not None], max(op.rss_kib for op in timed)

    def close(self) -> None:
        pass


class Figures(CliWorkload):
    """Each round runs every run preset once."""

    def __init__(self, seed: int, workdir: Path, env: dict, trace: bool):
        super().__init__(seed, workdir, env, trace)
        self.first_csv: dict[str, bytes] = {}

    def same_csv_as_first_op(self, preset: str, csv_path: Path) -> None:
        data = csv_path.read_bytes()
        verify.require(self.first_csv.setdefault(preset, data) == data, "CSV differs from an earlier op with the same seed")

    def round(self) -> list[Op]:
        ops = []
        for preset, config in RUN_PRESETS.items():
            csv_path, plot_path = self.workdir / f"{preset}.csv", self.workdir / f"{preset}.svg"
            for stale in (csv_path, plot_path, csv_path.with_name(f"{preset}.metrics.json")):
                stale.unlink(missing_ok=True)
            argv = ["run", "--preset", preset, "--output", str(csv_path), "--plot", str(plot_path), "--seed", str(self.seed)]
            op = self.run_op(preset, argv)
            check(op, verify.check_preset, preset, csv_path, plot_path)
            check(op, self.same_csv_as_first_op, preset, csv_path)
            op.points = 0 if op.error else 1 << config.n_qubits
            ops.append(op)
        return ops


class QftiTrend(CliWorkload):
    """Each round is one exact QFTI sweep over n = 3..8."""

    def round(self) -> list[Op]:
        out_dir = self.workdir / "sweep"
        shutil.rmtree(out_dir, ignore_errors=True)
        op = self.run_op("sweep", [*TREND_ARGV, "--output-dir", str(out_dir)])
        check(op, verify.check_qfti_trend, out_dir)
        op.points = 0 if op.error else sum(1 << n for n in verify.TREND_QUBITS)
        return [op]


class Worker:
    """A qftd_large worker process and its JSON-lines protocol."""

    def __init__(self, seed: int, workdir: Path, env: dict):
        start = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(seed)], cwd=workdir, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            if not self._read().get("ready"):
                raise RuntimeError("worker did not report ready")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - start

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("worker stopped answering")
        return json.loads(line)

    def request(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        """End the worker's input and reap it; return its resource usage."""
        self.proc.stdin.close()
        code, rusage, _, _ = wait_for(self.proc, OP_TIMEOUT_S)
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return rusage

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class QftdLarge:
    """One worker serves every op; each round is one exact and one 1e7-shot call.

    Set-up (worker start, import and one warm-up call) is repeated
    ``WORKER_SETUPS`` times; the last worker runs the ops. With ``trace`` every
    other round is traced.
    """

    def __init__(self, seed: int, workdir: Path, env: dict, trace: bool):
        self.seed, self.workdir, self.trace = seed, workdir, trace
        self.samples = make_samples(seed)
        self.setups = []
        self.worker = None
        for _ in range(WORKER_SETUPS - 1):
            self.worker = Worker(seed, workdir, env)
            self.setups.append(self.worker.setup_s)
            self.worker.close()
        self.spans_path = workdir / "spans.json"
        self.worker = Worker(seed, workdir, dict(env, PERFBENCH_SPANS=str(self.spans_path)))
        self.setups.append(self.worker.setup_s)
        self.ops_started = 0
        self.exact_success = None

    def round(self) -> list[Op]:
        traced = self.trace and self.ops_started % 4 == 0
        ops = []
        for shots in (None, QFTD_SHOTS):
            index = self.ops_started
            self.ops_started += 1
            out = self.workdir / "series.npz"
            out.unlink(missing_ok=True)
            shot_seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
            reply = self.worker.request(op=index, shots=shots, seed=shot_seed, out=str(out), trace=traced)
            op = Op("exact" if shots is None else "sampled", reply["op_s"], traced, error=reply.get("error"), index=index)
            if op.error is None:
                with np.load(out) as series:
                    if shots is None:
                        check(op, verify.check_qftd_exact, self.samples, DX, series["value_sq"])
                        self.exact_success = float(series["success_probability"])
                    else:
                        check(op, verify.check_qftd_sampled, self.samples, DX, series["value_sq"],
                              series["retained"], shots, self.exact_success)
            op.points = 0 if op.error else self.samples.size
            ops.append(op)
        return ops

    def finish(self, ops: list[Op]) -> tuple[list[float], int]:
        rusage = self.worker.close()
        if self.spans_path.exists():
            spans = json.loads(self.spans_path.read_text(encoding="utf-8"))
            for op in ops:
                op.spans = [span for span in spans if span["op"] == op.index]
        return self.setups, rusage.ru_maxrss

    def close(self) -> None:
        if self.worker is not None:
            self.worker.kill()


WORKLOADS = {"figures": Figures, "qfti_trend": QftiTrend, "qftd_large": QftdLarge}


def run_rounds(workload, seconds: float, trace: bool) -> list[Op]:
    """Run rounds until ``seconds`` have passed.

    Traced runs stop after an even number of rounds, so every kind of op is
    traced equally often and the per-op counts repeat exactly.
    """
    ops = []
    start = time.monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or (trace and rounds % 2) or time.monotonic() - start < seconds:
        ops.extend(workload.round())
        rounds += 1
    return ops


def end_to_end(ops: list[Op], setups: list[float], rss_kib: int) -> tuple[dict, str]:
    times = sorted(op.time_s for op in ops)
    tail_index = max(len(times) - 11, 0)  # the highest sample with 10 beyond it
    tail_note = (
        f"p{100.0 * (tail_index + 1) / len(times):.1f} of {len(times)} ops, "
        f"{len(times) - 1 - tail_index} beyond"
    )
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[tail_index],
        "setup_s": statistics.median(setups),
        "points_per_s": sum(op.points for op in ops) / sum(times),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    return metrics, tail_note


def per_layer(ops: list[Op], workload: str, seed: int, source: str) -> tuple[dict, list[str]]:
    traced = [op for op in ops if op.traced]
    metrics = tracer.layer_metrics([op.spans for op in traced])
    for package in ("numpy", "scipy", "qftcalc"):
        values = [op.imports[package] for op in traced if op.imports is not None]
        metrics[f"import.{package}_ms"] = statistics.fmean(values) if values else 0.0
    metrics = {name: metrics[name] for name, _ in tracer.LAYER_METRICS}
    untraced = [op.time_s for op in ops if not op.traced]
    metrics["trace.overhead_s"] = statistics.median(op.time_s for op in traced) - statistics.median(untraced)
    flags = count_mismatches(workload, seed, source, metrics)
    metrics["counts.mismatches"] = len(flags)
    return metrics, flags


def count_mismatches(workload: str, seed: int, source: str, metrics: dict) -> list[str]:
    """Compare the exact counts with earlier traced runs of the same source."""
    path = WORK / "counts.json"
    store = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    current = {
        f"{source}/{workload}": {name: metrics[name] for name in tracer.EXACT_COUNTS},
        # Success fractions depend on the input, which the seed generates.
        f"{source}/{workload}/seed={seed}": {"pipelines.success_fraction": metrics["pipelines.success_fraction"]},
    }
    flags = []
    for key, values in current.items():
        earlier = store.setdefault(key, values)
        flags += [
            f"{name} was {earlier[name]!r} in an earlier run of this source, now {value!r}"
            for name, value in values.items()
            if earlier.get(name) != value
        ]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return flags


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through its C API."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, symbol):
                function = getattr(library, symbol)
                function.restype = ctypes.c_int
                return int(function())
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qftcalc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload: str, seed: int, source: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = result.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": workload != "qfti_trend",
        "load": "closed loop, one client, at most one op process alive",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(args, ops: list[Op], setups: list[float], rss_kib: int) -> dict:
    """Print the human-readable report and the environment record; return the result."""
    source = source_digest()
    failed = [op for op in ops if op.error]
    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, {len(ops)} ops, {len(failed)} failed")
    if args.trace:
        metrics, flags = per_layer(ops, args.workload, args.seed, source)
        units = dict(tracer.LAYER_METRICS, **{"trace.overhead_s": "s", "counts.mismatches": "count"})
        traced_ms = 1000.0 * statistics.fmean(op.time_s for op in ops if op.traced)
        shares = {
            "import.*": sum(metrics[f"import.{p}_ms"] for p in ("numpy", "scipy", "qftcalc")),
            "psmpo.build_block_encoding": metrics["psmpo.build_block_encoding_ms"],
            "state.apply_gate + pipelines.self": metrics["state.apply_gate_ms"] + metrics["pipelines.self_ms"],
        }
        for traced in (True, False):
            times = [op.time_s for op in ops if op.traced is traced]
            print(f"  {'traced' if traced else 'untraced'} ops: {len(times)}, op p50 {statistics.median(times):.4f} s")
        for name, value in shares.items():
            print(f"  share of the mean traced op: {name} {100.0 * value / traced_ms:.1f}%")
        for flag in flags:
            print(f"  FLAG count changed: {flag}")
    else:
        metrics, tail_note = end_to_end([op for op in ops if not op.traced], setups, rss_kib)
        units = dict(END_TO_END)
        print(f"  op_tail_s is the {tail_note}")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6f} {units[name]}")
    print(f"  {'fail_rate':38s} {len(failed) / len(ops):14.6f} ratio ({len(failed)} of {len(ops)} ops)")
    for op in failed:
        print(f"  FAILED {op.label}: {op.error}")
    print("record " + json.dumps(environment(args.workload, args.seed, source), sort_keys=True))
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    args = parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, env, bool(args.trace))
        ops = run_rounds(workload, args.seconds, bool(args.trace))
        setups, rss_kib = workload.finish(ops)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if not setups:
        print("perfbench: no op got as far as importing qftcalc.cli", file=sys.stderr)
        return 1
    result = report(args, ops, setups, rss_kib)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
