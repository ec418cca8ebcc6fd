"""Command-line entry point: argument parsing, parameter resolution and
artifact output over the experiment registry.

Every run writes a manifest echoing the fully resolved configuration; for a
fixed manifest and BLAS thread count the report and CSV bytes are identical
across runs (and across --workers settings).  Tiers scale Monte Carlo effort
only; every tolerance is pinned in code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import acceptance
from .experiments import DEFAULT_SEED, EXPERIMENTS, TIERS, ConfigError, Context, Result
from .lens import AliasingGuardError
from .picard import DivergenceError
from .reports import write_csv, write_manifest, write_report

REGISTRY = {e.name: e for e in (*EXPERIMENTS, acceptance.EXPERIMENT)}

COMMANDS = tuple(REGISTRY)

GNUPLOT_TEMPLATE = """# gnuplot script for {csv}
set datafile separator ','
set key autotitle columnhead
set grid
plot '{csv}' using 1:2 with linespoints
"""


def _resolve_params(command: str, args) -> dict:
    params = dict(REGISTRY[command].params_by_tier[args.tier])
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        section = loaded.get(command, loaded)
        for key, value in section.items():
            if key not in params:
                raise ConfigError(f"unknown config field {key!r} for command {command!r}")
            params[key] = value
    for item in args.override or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        if key not in params:
            raise ConfigError(f"unknown override field {key!r} for command {command!r}")
        params[key] = type(params[key])(value) if not isinstance(params[key], list) else json.loads(value)
    return params


def _write(name: str, result: Result, out_dir: Path) -> None:
    """Each curve as CSV plus a gnuplot script, each table as CSV, then the report."""
    for csv_name, columns in {**result.curves, **result.tables}.items():
        write_csv(csv_name, columns, out_dir)
    for csv_name in result.curves:
        (out_dir / f"{csv_name}.gp").write_text(GNUPLOT_TEMPLATE.format(csv=f"{csv_name}.csv"))
    write_report(name, result.stats, out_dir, verdict=result.verdict, meta=result.meta)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscilab",
        description="Spectral and Monte Carlo experiments for the harmonic oscillator laboratory",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--tier", choices=TIERS, default="reference")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=Path("runs"))
    parser.add_argument("--workers", type=int, default=1, help="worker threads; never changes results")
    parser.add_argument("--config", type=Path, default=None, help="JSON file of parameter overrides")
    parser.add_argument(
        "--set", dest="override", metavar="KEY=VALUE", action="append", help="override one preset field (repeatable)"
    )
    parser.add_argument("--resume", action="store_true", help="reload the trajectory checkpoint if present")
    args = parser.parse_args(argv)

    name = args.command.replace("-", "_")
    out_dir = args.out / name
    try:
        params = _resolve_params(args.command, args)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2

    write_manifest(out_dir, args.command, {"params": params, "seed": args.seed, "tier": args.tier, "workers": args.workers})
    ctx = Context(seed=args.seed, workers=args.workers, tier=args.tier, out_dir=out_dir, resume=args.resume)
    try:
        result = REGISTRY[args.command].run(params, ctx)
    except (DivergenceError, AliasingGuardError, ValueError) as exc:
        write_report(
            "error",
            {"error_type": type(exc).__name__, "message": str(exc)},
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
