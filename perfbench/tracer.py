"""Outside-in span tracing of qftcalc's public functions.

The benchmark wraps the public functions of each layer from outside the
program: every ``qftcalc`` module attribute bound to one of the traced
functions is rebound to a wrapper that records a span (name, start, end,
parent span). Spans stay in memory and are written out when the traced
process ends. ``RegisterLayout.index_for`` is deliberately not wrapped: its
65,536 calls per n=16 op would distort the numbers, and its cost shows as
pipeline self time.

The same module parses ``python -X importtime`` output and turns the spans of
traced ops into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function, in call-graph order.
TRACED = (
    ("qftcalc.cli", "main"),
    ("qftcalc.experiments", "run_experiment"),
    ("qftcalc.experiments", "write_series_csv"),
    ("qftcalc.plots", "emit_plot"),
    ("qftcalc.oracles", "r_squared"),
    ("qftcalc.oracles", "mean_absolute_error"),
    ("qftcalc.pipelines", "qftd_run"),
    ("qftcalc.pipelines", "qfti_run"),
    ("qftcalc.spectral", "qft"),
    ("qftcalc.spectral", "wavenumber_rotation"),
    ("qftcalc.psmpo", "build_block_encoding"),
    ("qftcalc.psmpo", "apply_partial_sum"),
    ("qftcalc.state", "amplitude_encode"),
    ("qftcalc.state", "apply_gate"),
    ("qftcalc.state", "apply_register_unitary"),
    ("qftcalc.state", "sample"),
    ("qftcalc.state", "exact_probabilities"),
)

# Per-layer metrics, in the order they are reported. Times are milliseconds
# per op; counts are per op.
LAYER_METRICS = (
    ("import.numpy_ms", "ms"),
    ("import.scipy_ms", "ms"),
    ("import.qftcalc_ms", "ms"),
    ("cli.main_self_ms", "ms"),
    ("experiments.run_experiment_self_ms", "ms"),
    ("experiments.write_series_csv_ms", "ms"),
    ("plots.emit_plot_ms", "ms"),
    ("oracles.metrics_ms", "ms"),
    ("pipelines.qftd_run_total_ms", "ms"),
    ("pipelines.qfti_run_total_ms", "ms"),
    ("pipelines.self_ms", "ms"),
    ("pipelines.success_fraction", "ratio"),
    ("spectral.qft_ms", "ms"),
    ("spectral.qft_controlled_ms", "ms"),
    ("spectral.wavenumber_rotation_ms", "ms"),
    ("spectral.gates", "count"),
    ("state.apply_gate_ms", "ms"),
    ("state.apply_gate_calls", "count"),
    ("state.amplitude_encode_ms", "ms"),
    ("state.sample_ms", "ms"),
    ("state.exact_probabilities_ms", "ms"),
    ("state.apply_register_unitary_ms", "ms"),
    ("psmpo.apply_partial_sum_self_ms", "ms"),
    ("psmpo.build_block_encoding_ms", "ms"),
    ("psmpo.build_block_encoding_calls", "count"),
)

# Counts that must repeat exactly between runs of the same source.
EXACT_COUNTS = ("spectral.gates", "state.apply_gate_calls", "psmpo.build_block_encoding_calls")


def _span_name(module: str, attr: str, args, kwargs) -> str:
    name = f"{module.rsplit('.', 1)[1]}.{attr}"
    if name == "spectral.qft":
        control = kwargs.get("control", args[3] if len(args) > 3 else None)
        if control is not None:
            return "spectral.qft_controlled"
    return name


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the op that caused them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, module: str, attr: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "op": self.op,
                "id": len(self.spans),
                "name": _span_name(module, attr, args, kwargs),
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            statevector = args[0] if args and hasattr(args[0], "gate_count") else None
            gates_before = statevector.gate_count if statevector is not None else 0
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if statevector is not None:
                span["gates"] = statevector.gate_count - gates_before
            if hasattr(result, "success_probability"):
                span["success_probability"] = result.success_probability
                span["exact"] = result.shots_used is None
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded qftcalc module that holds it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qftcalc"]
        for module, attr in TRACED:
            if module not in sys.modules:  # the worker never imports qftcalc.cli
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(module, attr, original)
            for holder in modules:
                if getattr(holder, attr, None) is original:
                    self._originals.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._originals):
            setattr(holder, attr, original)
        self._originals.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def import_times_ms(stderr_text: str) -> dict[str, float]:
    """Split ``-X importtime`` self times between numpy, scipy and qftcalc.

    Each module's self time goes to the first of the three packages found on
    its own name or, failing that, on its nearest importing ancestor, so the
    three totals are disjoint (``argparse`` under ``qftcalc.cli`` counts as
    qftcalc, ``scipy`` under ``qftcalc.checks`` counts as scipy). Modules
    imported outside all three (interpreter start-up) are left out.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, _cumulative, name_field = line.split("|", 2)
        level = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        rows.append((level, name_field.strip(), int(head.split(":")[1])))
    totals = {"numpy": 0.0, "scipy": 0.0, "qftcalc": 0.0}
    owner_at_level: list[str | None] = []
    # importtime prints children before their parent; walk backwards so each
    # ancestor is seen before its descendants.
    for level, name, self_us in reversed(rows):
        del owner_at_level[level:]
        root = name.split(".")[0]
        owner = root if root in totals else (owner_at_level[-1] if owner_at_level else None)
        owner_at_level.append(owner)
        if owner is not None:
            totals[owner] += self_us / 1000.0
    return totals


def layer_metrics(spans_per_op: list[list[dict]]) -> dict[str, float]:
    """Per-op per-layer metrics from the spans of each traced op."""
    total = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    gates = 0
    success = {True: [], False: []}
    for spans in spans_per_op:
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            duration = (s["end"] - s["start"]) * 1000.0
            total[s["name"]] += duration
            calls[s["name"]] += 1
            if s["parent"] is not None:
                child[by_id[s["parent"]]["name"]] += duration
            if s["name"].startswith("spectral."):
                gates += s.get("gates", 0)
            if "success_probability" in s:
                success[s["exact"]].append(s["success_probability"])

    def self_ms(name):
        return total[name] - child[name]

    fractions = success[True] or success[False]
    raw = {
        "cli.main_self_ms": self_ms("cli.main"),
        "experiments.run_experiment_self_ms": self_ms("experiments.run_experiment"),
        "experiments.write_series_csv_ms": total["experiments.write_series_csv"],
        "plots.emit_plot_ms": total["plots.emit_plot"],
        "oracles.metrics_ms": total["oracles.r_squared"] + total["oracles.mean_absolute_error"],
        "pipelines.qftd_run_total_ms": total["pipelines.qftd_run"],
        "pipelines.qfti_run_total_ms": total["pipelines.qfti_run"],
        "pipelines.self_ms": self_ms("pipelines.qftd_run") + self_ms("pipelines.qfti_run"),
        "spectral.qft_ms": self_ms("spectral.qft"),
        "spectral.qft_controlled_ms": self_ms("spectral.qft_controlled"),
        "spectral.wavenumber_rotation_ms": self_ms("spectral.wavenumber_rotation"),
        "spectral.gates": gates,
        "state.apply_gate_ms": self_ms("state.apply_gate"),
        "state.apply_gate_calls": calls["state.apply_gate"],
        "state.amplitude_encode_ms": self_ms("state.amplitude_encode"),
        "state.sample_ms": self_ms("state.sample"),
        "state.exact_probabilities_ms": self_ms("state.exact_probabilities"),
        "state.apply_register_unitary_ms": self_ms("state.apply_register_unitary"),
        "psmpo.apply_partial_sum_self_ms": self_ms("psmpo.apply_partial_sum"),
        "psmpo.build_block_encoding_ms": total["psmpo.build_block_encoding"],
        "psmpo.build_block_encoding_calls": calls["psmpo.build_block_encoding"],
    }
    metrics = {name: value / len(spans_per_op) for name, value in raw.items()}
    metrics["pipelines.success_fraction"] = sum(fractions) / len(fractions) if fractions else 0.0
    return metrics
