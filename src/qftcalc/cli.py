"""Command-line experiment runner.

Subcommands: ``run`` (one experiment), ``sweep`` (one run per qubit count),
``presets`` (list built-in configurations), ``validate`` (self checks). ``run``
and ``sweep`` merge defaults < preset < ``--config`` JSON file < explicit
flags into a config that checks itself when it is built. A sweep config file
may list its ``qubits``; a repeated count, an ``output``/``plot``/``scale`` key,
a run preset and an input CSV at the summary's path are configuration errors
there, and a sweep writes nothing unless every run and its summary succeed.
Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import experiments
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
    """argparse that reports usage problems as configuration errors and reads no abbreviated flag."""

    def __init__(self, *args, **kwargs):  # subcommand parsers are _Parsers too
        super().__init__(*args, allow_abbrev=False, **kwargs)  # so sweep's --output is not --output-dir
        # Any -<digit> or -.<digit> is a value: argparse's own pattern takes -1e-3 for a flag.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ConfigError("usage", message)


def _add_config_flags(parser: argparse.ArgumentParser, qubits_nargs=None) -> None:
    parser.add_argument("--preset", help="start from a named preset configuration")
    parser.add_argument("--config", help="JSON file with configuration fields")
    parser.add_argument("--mode", choices=("qftd", "qfti"))
    parser.add_argument("--function", help="catalog id or path to an x,f CSV")
    parser.add_argument("--qubits", type=int, nargs=qubits_nargs)
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
    except ValueError as exc:  # malformed JSON, or an integer past Python's 4300-digit limit
        raise DataError(f"config {path} cannot be read as JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config", "config file must hold a JSON object")
    return payload


_NULL = type(None)
# Accepted JSON value types per config-file key (_NULL is JSON null). A sweep
# also takes a list of qubit counts, and none of the run-only keys.
_CONFIG_TYPES = {
    "mode": str, "function": str, "qubits": (int, _NULL), "domain": (list, _NULL),
    "shots": (int, float, str, _NULL), "seed": int, "output": str, "plot": (str, _NULL),
    "scale": str,
}
_RUN_ONLY = ("output", "plot", "scale")


def _presets(command: str) -> dict[str, tuple[ExperimentConfig, int | list[int]]]:
    """A subcommand's presets: name -> (config, qubit count or sweep counts)."""
    if command == "run":
        return {name: (config, config.n_qubits) for name, config in RUN_PRESETS.items()}
    return {name: (config, list(qubits)) for name, (config, qubits) in SWEEP_PRESETS.items()}


def _preset_values(name: str, command: str) -> dict:
    """The fields of a subcommand's preset, keyed as in a config file."""
    other = "sweep" if command == "run" else "run"
    if name in _presets(other):
        raise ConfigError("preset", f"{name} is a {other} preset; use the {other} subcommand")
    presets = _presets(command)
    if name not in presets:
        raise ConfigError("preset", f"unknown {command} preset {name!r} (have {sorted(presets)})")
    config, qubits = presets[name]
    values = dict(mode=config.mode, function=config.function, qubits=qubits, domain=config.domain,
                  shots=config.shots, seed=config.seed)
    if command == "run":
        values.update(scale=config.scale, output=f"{name}.csv")
    return values


def _merge_configs(args: argparse.Namespace) -> tuple[ExperimentConfig, tuple[int, ...] | None]:
    """Defaults < preset < config file < explicit flags, for run and sweep.

    Returns the config and a sweep's qubit counts (None for ``run``). A sweep's
    config is the base of ``experiments.run_sweep``: it holds the first count,
    so its checks fail in the order its first run's do, and no output.
    """
    sweep = args.command == "sweep"
    merged: dict = {}
    if args.preset:
        merged.update(_preset_values(args.preset, args.command))
    if args.config:
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(_CONFIG_TYPES)
        if unknown:
            raise ConfigError("config", f"unknown config keys {sorted(unknown)}")
        for key, value in file_values.items():
            if sweep and key in _RUN_ONLY:
                raise ConfigError(key, f"sweep takes no {key}; it writes each run's results under --output-dir")
            types = (int, list) if sweep and key == "qubits" else _CONFIG_TYPES[key]
            # bool is an int subclass in Python but a distinct JSON type.
            if isinstance(value, bool) or not isinstance(value, types):
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
        # A bool is no JSON number (type() excludes the int subclass), and an int past float range has no float.
        if len(domain) != 2 or not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in domain):
            raise ConfigError("domain", f"domain takes exactly two finite numbers MIN MAX, got {domain!r}")
        domain = (float(domain[0]), float(domain[1]))
    shots = _parse_shots(merged.get("shots", "exact"))
    counts = merged.get("qubits")
    if sweep:
        counts = [counts] if isinstance(counts, int) else counts
        if not counts:
            raise ConfigError("qubits", "sweep needs qubit counts (--qubits N [N ...] or a config 'qubits' list)")
        if any(isinstance(n, bool) or not isinstance(n, int) for n in counts):
            raise ConfigError("qubits", f"sweep qubit counts must be integers, got {counts!r}")
        if len(set(counts)) != len(counts):
            raise ConfigError("qubits", f"qubit counts {counts} repeat; each run's files are named by its count")
    config = ExperimentConfig(
        mode=merged["mode"],
        function=str(merged["function"]),
        n_qubits=counts[0] if sweep else counts,
        domain=domain,
        shots=shots,
        seed=int(merged.get("seed", 0)),
        output=None if sweep else merged.get("output", "result.csv"),
        plot=merged.get("plot"),
        scale=merged.get("scale", "linear"),
    )
    return config, tuple(counts) if sweep else None


def _cmd_run(args: argparse.Namespace) -> int:
    config, _ = _merge_configs(args)
    _, metrics = experiments.run_experiment(config)
    print(f"wrote {config.output} and {experiments.metrics_path_for(config.output)}")
    if config.plot:
        print(f"wrote {config.plot}")
    for key in sorted(metrics):
        print(f"  {key}: {metrics[key]}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.output_dir:  # Path("") would be the working directory
        raise ConfigError("output-dir", "path '' names no directory")
    base, counts = _merge_configs(args)
    summary = experiments.run_sweep(base, counts, args.output_dir)
    print(f"wrote {len(counts)} runs and {summary}")
    return 0


def _cmd_presets() -> int:
    for command in ("run", "sweep"):
        print(f"{command} presets:")
        for name, (config, qubits) in _presets(command).items():
            shots = "exact" if config.shots is None else f"{config.shots:.0e}"
            scale = f"  scale={config.scale}" if command == "run" else ""
            print(
                f"  {name:7s} {config.mode}  {config.function:10s} n={qubits}  "
                f"domain=[{config.domain[0]:g},{config.domain[1]:g}]  shots={shots}{scale}"
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
            from . import checks  # run and sweep need none of the suite

            return 0 if checks.run_suite(args.suite) else 3
        raise ConfigError("usage", f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
