"""Command-line experiment runner.

Subcommands: ``run`` (one experiment), ``sweep`` (a family of experiments over
qubit counts), ``presets`` (list built-in configurations), ``validate`` (self
checks). Exit codes: 0 success, 1 configuration error, 2 I/O error,
3 validation failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import checks, experiments
from .experiments import (
    MAX_SHOTS,
    ConfigError,
    DataError,
    ExperimentConfig,
    RUN_PRESETS,
    SWEEP_PRESETS,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors."""

    def error(self, message):
        raise ConfigError("usage", message)


def _add_config_flags(parser: argparse.ArgumentParser, qubits_nargs=None) -> None:
    parser.add_argument("--preset", help="start from a named preset configuration")
    parser.add_argument("--config", help="JSON file with configuration fields")
    parser.add_argument("--mode", choices=("qftd", "qfti"))
    parser.add_argument("--function", help="catalog id or path to an x,f CSV")
    if qubits_nargs is None:
        parser.add_argument("--qubits", type=int)
    else:
        parser.add_argument("--qubits", type=int, nargs="+")
    parser.add_argument("--domain", type=float, nargs=2, metavar=("MIN", "MAX"))
    parser.add_argument("--shots", help="shot count or 'exact'")
    parser.add_argument("--seed", type=int)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qftcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write CSV + metrics JSON")
    _add_config_flags(run)
    run.add_argument("--output", help="result CSV path (metrics JSON lands beside it)")
    run.add_argument("--plot", help="optional SVG plot path")
    run.add_argument("--scale", choices=("linear", "semilog"))

    sweep = sub.add_parser("sweep", help="run a family of experiments over qubit counts")
    _add_config_flags(sweep, qubits_nargs="+")
    sweep.add_argument("--output-dir", required=True, help="directory for per-run results")
    sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    sub.add_parser("presets", help="list built-in preset configurations")

    validate = sub.add_parser("validate", help="run the self-check suite")
    validate.add_argument("suite", nargs="?", default="fast", choices=("fast", "full"))
    return parser


def _parse_shots(value) -> int | None:
    if value is None or value == "exact":
        return None
    try:
        # Integers and digit strings stay exact: a float rounds 2^63 - 1 up to 2^63.
        exact = isinstance(value, int) or (isinstance(value, str) and value.isdigit())
        count = int(value) if exact else float(value)
    except (TypeError, ValueError):
        raise ConfigError("shots", f"expected an integer or 'exact', got {value!r}") from None
    if not (1 <= count <= MAX_SHOTS and count == int(count)):
        raise ConfigError("shots", f"expected an integer shot count in 1..{MAX_SHOTS}, got {value!r}")
    return int(count)


def _load_config_file(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config", "config file must hold a JSON object")
    return payload


_NULL = type(None)
# Accepted JSON value types per config-file key (_NULL is JSON null).
_CONFIG_TYPES = {
    "mode": str, "function": str, "qubits": (int, _NULL), "domain": (list, _NULL),
    "shots": (int, float, str, _NULL), "seed": int, "output": str, "plot": (str, _NULL),
    "scale": str,
}


def _merge_run_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults < preset < config file < explicit flags."""
    merged: dict = {}
    if args.preset:
        base = experiments.preset_config(args.preset)
        merged.update(
            mode=base.mode, function=base.function, qubits=base.n_qubits,
            domain=base.domain, shots=base.shots, seed=base.seed, scale=base.scale,
        )
        merged["output"] = f"{args.preset}.csv"
    if args.config:
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(_CONFIG_TYPES)
        if unknown:
            raise ConfigError("config", f"unknown config keys {sorted(unknown)}")
        for key, value in file_values.items():
            # bool is an int subclass in Python but a distinct JSON type.
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
                raise ConfigError(key, f"config file value {value!r} has the wrong type")
        merged.update(file_values)
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if "mode" not in merged:
        raise ConfigError("mode", "mode is required (qftd or qfti)")
    if "function" not in merged:
        raise ConfigError("function", "function is required (catalog id or CSV path)")
    domain = merged.get("domain")
    if domain is not None:
        if len(domain) != 2 or not all(isinstance(v, (int, float)) for v in domain):
            raise ConfigError("domain", f"domain takes exactly two numbers MIN MAX, got {domain!r}")
        domain = (float(domain[0]), float(domain[1]))
    return ExperimentConfig(
        mode=merged["mode"],
        function=str(merged["function"]),
        n_qubits=merged.get("qubits"),
        domain=domain,
        shots=_parse_shots(merged.get("shots", "exact")),
        seed=int(merged.get("seed", 0)),
        output=merged.get("output", "result.csv"),
        plot=merged.get("plot"),
        scale=merged.get("scale", "linear"),
    ).validated()


def _cmd_run(args: argparse.Namespace) -> int:
    config = _merge_run_config(args)
    _, metrics = experiments.run_experiment(config)
    print(f"wrote {config.output} and {experiments.metrics_path_for(config.output)}")
    if config.plot:
        print(f"wrote {config.plot}")
    for key in sorted(metrics):
        print(f"  {key}: {metrics[key]}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError("jobs", f"worker count must be >= 1, got {args.jobs}")
    if args.preset:
        if args.preset not in SWEEP_PRESETS:
            raise ConfigError("preset", f"unknown sweep preset {args.preset!r} (have {sorted(SWEEP_PRESETS)})")
        entry = SWEEP_PRESETS[args.preset]
        base: ExperimentConfig = entry["base"]
        qubit_counts = tuple(args.qubits) if args.qubits else entry["qubits"]
    else:
        if not (args.mode and args.function and args.qubits):
            raise ConfigError("usage", "sweep needs --preset or --mode/--function/--qubits")
        base = ExperimentConfig(mode=args.mode, function=args.function)
        qubit_counts = tuple(args.qubits)
    base = replace(
        base,
        domain=tuple(args.domain) if args.domain else base.domain,
        shots=_parse_shots(args.shots) if args.shots is not None else base.shots,
        seed=args.seed if args.seed is not None else base.seed,
    )
    out_dir = Path(args.output_dir)
    configs = experiments.sweep_configs(base, qubit_counts, out_dir)
    for config in configs:
        config.validated()
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(args.jobs, len(configs), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(experiments.run_one_sweep_point, configs))
    else:
        rows = [experiments.run_one_sweep_point(config) for config in configs]
    summary = out_dir / "sweep_summary.csv"
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    experiments._atomic_write_text("\n".join(lines) + "\n", summary)
    print(f"wrote {len(rows)} runs and {summary}")
    return 0


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _cmd_presets() -> int:
    print("run presets:")
    for name, cfg in RUN_PRESETS.items():
        shots = "exact" if cfg.shots is None else f"{cfg.shots:.0e}"
        print(
            f"  {name:7s} {cfg.mode}  {cfg.function:10s} n={cfg.n_qubits}  "
            f"domain=[{cfg.domain[0]:g},{cfg.domain[1]:g}]  shots={shots}  scale={cfg.scale}"
        )
    print("sweep presets:")
    for name, entry in SWEEP_PRESETS.items():
        cfg = entry["base"]
        shots = "exact" if cfg.shots is None else f"{cfg.shots:.0e}"
        print(
            f"  {name:7s} {cfg.mode}  {cfg.function:10s} n={list(entry['qubits'])}  "
            f"domain=[{cfg.domain[0]:g},{cfg.domain[1]:g}]  shots={shots}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "presets":
            return _cmd_presets()
        if args.command == "validate":
            return 0 if checks.run_suite(args.suite) else 3
        raise ConfigError("usage", f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
