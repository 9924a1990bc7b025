"""Command-line dispatcher.

Subcommands mirror the experiment kinds; each loads an optional config file,
applies flag overrides, runs the experiment, writes the report directory, and
exits 0 only if every verdict passed.  Reports are byte-reproducible by
default; pass --stamp to record a wall-clock timestamp in the manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from datetime import datetime, timezone
from pathlib import Path

from .experiments import ConfigError, ExperimentConfig, ORACLES, RUNNERS
from .config import parse_config
from .grid import GridError
from .moments_ode import IntegrationError
from .params import ParameterError
from .report import ReplayMismatchError, emit_report, render_summary

_COMMANDS = {
    "swap": "swap",
    "rwa-validity": "rwa_validity",
    "cat-state": "cat_state",
    "feasibility": "feasibility",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravswap",
        description="coupled-oscillator state swapping under quantum, rotating-wave, "
        "and mean-field gravity models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, kind in _COMMANDS.items():
        p = sub.add_parser(command, help=f"run the {kind} experiment")
        p.add_argument("--config", type=Path, default=None, help="key-value config file")
        p.add_argument("--out", type=Path, default=None, help="report output directory")
        p.add_argument("--oracle", choices=list(ORACLES), default=None, help="numerical oracles to enable")
        p.add_argument("--seed", type=int, default=None, help="seed for any sampled inputs")
        p.add_argument("--force", action="store_true", help="overwrite a mismatching report directory")
        p.add_argument(
            "--stamp",
            action="store_true",
            help="record wall-clock time in the manifest (breaks byte-reproducibility)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    kind = _COMMANDS[args.command]
    try:
        if args.config is not None:
            cfg = parse_config(args.config)
            if cfg.kind != kind:
                raise ConfigError(
                    f"config kind {cfg.kind!r} does not match subcommand {args.command!r}"
                )
        else:
            cfg = ExperimentConfig(kind=kind)
        overrides = {}
        if args.oracle is not None:
            overrides["oracle"] = args.oracle
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.stamp:
            overrides["timestamp"] = datetime.now(timezone.utc).isoformat()
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)

        report = RUNNERS[kind](cfg)
        out_dir = args.out or cfg.out_dir or Path("runs") / kind
        emit_report(report, out_dir, force=args.force)
        sys.stdout.write(render_summary(report))
        sys.stdout.write(f"report written to {out_dir}\n")
        return 0 if report.passed else 1
    except (ConfigError, ParameterError, IntegrationError, GridError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ReplayMismatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
