"""Command-line entry point: argument parsing, parameter resolution and
artifact output over the experiment registry.

Every run first deletes the reports an earlier run left in its directory,
then writes a manifest echoing the fully resolved configuration.  Each
command runs with numpy's OpenBLAS on one thread (``blas.one_blas_thread``),
so the report, CSV and plot-script bytes depend on the manifest alone: they
are identical across runs, across --workers settings and whatever the BLAS
thread variables of the environment say.  Tiers scale Monte Carlo effort
only; every tolerance is pinned in code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .blas import one_blas_thread
from .experiments import DEFAULT_SEED, EXPERIMENTS, TIERS, ConfigError, Context, Result
from .lens import AliasingGuardError
from .picard import DivergenceError
from .reports import write_csv, write_manifest, write_report

REGISTRY = {e.name: e for e in EXPERIMENTS}

COMMANDS = tuple(REGISTRY)

GNUPLOT_TEMPLATE = """# gnuplot script for {csv}
set datafile separator ','
set key autotitle columnhead
set grid
plot '{csv}' using 1:2 with linespoints
"""


def _typed(key: str, value, preset, source: str):
    """A --config or --set value as the type of its preset field, and each
    element of a list as the type of the preset's elements; an int also
    reads as a float."""
    kind = type(preset)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ConfigError(f"{source} {key}: cannot read {value!r} as {kind.__name__}")
    if kind is list and preset:
        value = [_typed(key, item, preset[0], source) for item in value]
    return value


def _resolve_params(command: str, args) -> dict:
    presets = REGISTRY[command].params_by_tier[args.tier]
    params = dict(presets)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        section = loaded.get(command, loaded) if isinstance(loaded, dict) else loaded
        if not isinstance(section, dict):
            raise ConfigError(f"config for {command!r} must be a JSON object, got {section!r}")
        for key, value in section.items():
            if key not in params:
                raise ConfigError(f"unknown config field {key!r} for command {command!r}")
            params[key] = _typed(key, value, presets[key], "--config")
    for item in args.override or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        if key not in params:
            raise ConfigError(f"unknown override field {key!r} for command {command!r}")
        kind = type(presets[key])
        try:
            parsed = json.loads(value) if kind is list else kind(value)
        except ValueError:  # json.JSONDecodeError is a ValueError; the string fails the check
            parsed = value
        params[key] = _typed(key, parsed, presets[key], "--set")
    return params


def _write(name: str, result: Result, out_dir: Path) -> None:
    """Each curve as CSV plus a gnuplot script, each table as CSV, then the report."""
    for csv_name, columns in {**result.curves, **result.tables}.items():
        write_csv(csv_name, columns, out_dir)
    for csv_name in result.curves:
        (out_dir / f"{csv_name}.gp").write_text(GNUPLOT_TEMPLATE.format(csv=f"{csv_name}.csv"))
    write_report(name, result.stats, out_dir, verdict=result.verdict, meta=result.meta)


def _clear_reports(out_dir: Path) -> None:
    """Delete an earlier run's top-level reports, CSVs and plot scripts, so that none
    outlives the run it came from.  The trajectory checkpoint, which --resume reads,
    and subdirectories (acceptance's per-command runs) stay."""
    if out_dir.is_dir():
        for path in out_dir.iterdir():
            if path.suffix in (".json", ".csv", ".gp") and path.name != "manifest.json" and path.is_file():
                path.unlink()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscilab",
        description="Spectral and Monte Carlo experiments for the harmonic oscillator laboratory",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--tier", choices=TIERS, default="reference")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=Path("runs"))
    parallel = ", ".join(e.name for e in EXPERIMENTS if e.parallel)
    parser.add_argument(
        "--workers", type=int, default=1, help=f"worker threads of {parallel}; never changes results"
    )
    parser.add_argument("--config", type=Path, default=None, help="JSON file of parameter overrides")
    parser.add_argument(
        "--set", dest="override", metavar="KEY=VALUE", action="append", help="override one preset field (repeatable)"
    )
    parser.add_argument("--resume", action="store_true", help="reload the trajectory checkpoint if present")
    args = parser.parse_args(argv)
    with one_blas_thread():
        return _run(args)


def _run(args) -> int:
    """Resolve the parsed command's parameters, run it and write its artifacts; returns the exit code."""
    name = args.command.replace("-", "_")
    out_dir = args.out / name
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        params = _resolve_params(args.command, args)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2

    _clear_reports(out_dir)
    write_manifest(out_dir, args.command, {"params": params, "seed": args.seed, "tier": args.tier, "workers": args.workers})
    ctx = Context(seed=args.seed, workers=args.workers, tier=args.tier, out_dir=out_dir, resume=args.resume)
    experiment = REGISTRY[args.command]
    try:
        if args.workers > 1 and not experiment.parallel:
            raise ConfigError(f"{args.command} runs on one worker; --workers {args.workers} would be ignored")
        result = experiment.run(params, ctx)
    except (DivergenceError, AliasingGuardError, ValueError) as exc:
        stats = {"error_type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, DivergenceError):
            stats.update(time_node=exc.time_node, history=[float(h) for h in exc.history])
        write_report(
            "error",
            stats,
            out_dir,
            verdict=False,
            meta={"command": args.command, "seed": args.seed},
        )
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    _write(name, result, out_dir)
    for line in result.lines:
        print(line)
    return 0 if result.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
