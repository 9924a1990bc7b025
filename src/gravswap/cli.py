"""Command-line dispatcher.

Subcommands mirror the experiment kinds; each loads an optional config file,
applies flag overrides, runs the experiment, writes the report directory
(--out, else runs/<kind>), and exits 0 only if every verdict passed.
Reports are byte-reproducible; --stamp writes the wall-clock time on the
manifest's `timestamp =` line and changes no other byte.

The config is parsed and checked before the experiments, the report writer
and numpy are imported, so a refusal or `--help` never waits for them.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import dataclasses
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .config import KINDS, ORACLES, ExperimentConfig, parse_config
from .params import ConfigError, ParameterError

_COMMANDS = {kind.replace("_", "-"): kind for kind in KINDS}  # subcommand -> experiment kind


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
            help="record wall-clock time on the manifest's timestamp line (its only byte that changes)",
        )
    return parser


def emit_report(report, out_dir, force=False):
    """`report.emit_report`, imported on first call.  `main` calls it through
    this module's global, so a replacement set here is the one called."""
    from .report import emit_report as emit

    return emit(report, out_dir, force=force)


def _config(args, kind: str) -> ExperimentConfig:
    """The run's config: the --config file or the kind's defaults, with the
    flag overrides applied."""
    if args.config is not None:
        cfg = parse_config(args.config)
        if cfg.kind != kind:
            raise ConfigError(f"config kind {cfg.kind!r} does not match subcommand {args.command!r}")
    else:
        cfg = ExperimentConfig(kind=kind)
    overrides = {}
    if args.oracle is not None:
        overrides["oracle"] = args.oracle
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.stamp:
        overrides["timestamp"] = datetime.now(timezone.utc).isoformat()
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    kind = _COMMANDS[args.command]
    try:
        cfg = _config(args, kind)
    except (ConfigError, ParameterError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    # the config holds: only now load the runners and numpy
    from .experiments import RUNNERS
    from .grid import GridError
    from .moments_ode import IntegrationError
    from .report import ReportError, render_summary

    try:
        report = RUNNERS[kind](cfg)
        out_dir = args.out or Path("runs") / kind
        emit_report(report, out_dir, force=args.force)
        try:
            sys.stdout.write(render_summary(report))
            sys.stdout.write(f"report written to {out_dir}\n")
        except BrokenPipeError:
            # the reader has gone and the report on disk is whole: point fd 1
            # at os.devnull, so that what stdout still buffers drains there
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 0 if report.passed else 1
    except (ConfigError, ParameterError, IntegrationError, GridError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ReportError as exc:  # the output directory is at fault
        sys.stderr.write(f"error: {exc}\n")
        return 3


def run() -> None:
    """The process entry point: `main`, then the atexit handlers, a flush of
    stdout and stderr, and os._exit with main's code.  That skips the
    interpreter's teardown (its last GC pass, module teardown and C library
    destructors), about 12 ms once numpy is loaded on a 2-vCPU VM, which
    nothing here needs: every report file is closed by its `with`,
    `fork_map` has reaped its children, and gravswap starts no threads.
    argparse's exit (after --help or a usage error) takes the same way out
    with its code, so its text meeting a closed stdout ends no differently
    from a report's summary; any other exception out of `main` leaves the
    usual way."""
    try:
        code = main()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(BrokenPipeError):  # its reader has gone
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
