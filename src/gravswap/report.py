"""Report emission: manifest, CSV tables, plot bundle, text summary.

Emission is a pure serialization of the report object: identical reports
produce byte-identical files (floats at 17 significant digits, fixed key
order, LF line endings).  `_fmt` is the one definition of a value's text;
CSV rows of common value types are rendered with one cached %-format per
row shape, which writes the same bytes as `_fmt` value by value.  A
directory already holding a manifest from a different configuration refuses
re-emission unless forced, so a replay can never silently mix artifacts from
two runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import config_digest, format_config
from .experiments import ExperimentReport, Table


class ReplayMismatchError(RuntimeError):
    pass


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        return "%.17g" % v
    if isinstance(value, complex):
        return "%.17g%+.17gj" % (value.real, value.imag)
    return str(value)


# Exact value types whose `_fmt` text is one %-conversion: "%.17g" prints nan
# without a sign as `_fmt` does, and "%d" prints a bool as 1 or 0.
_FAST_FORMATS = {
    float: "%.17g",
    np.float64: "%.17g",
    int: "%d",
    bool: "%d",
    np.int64: "%d",
    np.bool_: "%d",
    str: "%s",
}


def _row_format(shape: tuple[type, ...]) -> str | None:
    """One %-format for a row of these exact value types, or None when some
    type needs `_fmt` (complex values, subclasses, other numpy scalars)."""
    try:
        return ",".join(_FAST_FORMATS[t] for t in shape)
    except KeyError:
        return None


def render_csv(table: Table) -> str:
    width = len(table.columns)
    formats: dict[tuple[type, ...], str | None] = {}  # only shapes of the header's width
    lines = [",".join(table.columns)]
    for row in table.rows:
        shape = tuple(map(type, row))
        try:
            fmt = formats[shape]
        except KeyError:
            if len(shape) != width:
                raise ValueError(f"table {table.name}: row width {len(shape)} != header {width}") from None
            fmt = formats[shape] = _row_format(shape)
        lines.append(fmt % tuple(row) if fmt is not None else ",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_manifest(report: ExperimentReport) -> str:
    cfg = report.config
    lines = [
        "# gravswap run manifest",
        f"version = {report.version}",
        f"kind = {report.kind}",
        f"seed = {cfg.seed}",
        f"timestamp = {cfg.timestamp if cfg.timestamp is not None else '(unset)'}",
        f"config_digest = {config_digest(cfg)}",
        f"source_config_digest = {cfg.source_digest if cfg.source_digest is not None else '(inline)'}",
        f"passed = {'true' if report.passed else 'false'}",
        "",
        "# thresholds in effect (name, comparison, value)",
    ]
    for v in report.verdicts:
        lines.append(f"threshold {v.name} {v.comparison} {_fmt(v.threshold)}")
    lines.append("")
    lines.append("# --- effective configuration ---")
    lines.append(format_config(cfg))
    return "\n".join(lines)


def render_summary(report: ExperimentReport) -> str:
    lines = [
        f"gravswap {report.kind} report: {'PASS' if report.passed else 'FAIL'}",
        f"config digest: {config_digest(report.config)}",
        "",
        "verdicts:",
    ]
    if not report.verdicts:
        lines.append("  (none)")
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        line = f"  [{status}] {v.name}: observed {_fmt(v.observed)} (require {v.comparison} {_fmt(v.threshold)})"
        if v.note:
            line += f" -- {v.note}"
        lines.append(line)
    if report.notes:
        lines.append("")
        lines.append("notes:")
        for note in report.notes:
            lines.append(f"  - {note}")
    lines.append("")
    return "\n".join(lines)


def render_plots(report: ExperimentReport) -> str:
    bundle = {"kind": report.kind, "figures": report.figures}
    return json.dumps(bundle, indent=2, sort_keys=True) + "\n"


def _existing_digest(manifest_path: Path) -> str | None:
    for line in manifest_path.read_text(encoding="utf-8").splitlines():
        if line.startswith("config_digest = "):
            return line.split(" = ", 1)[1].strip()
    return None


def emit_report(report: ExperimentReport, out_dir: str | Path, force: bool = False) -> list[Path]:
    """Write the report's file set into out_dir; idempotent for identical
    reports, refuses (ReplayMismatchError) to overwrite a directory holding a
    different configuration's artifacts unless `force`."""
    out = Path(out_dir)
    manifest_path = out / "manifest.txt"
    new_digest = config_digest(report.config)
    if manifest_path.exists() and not force:
        old = _existing_digest(manifest_path)
        if old is not None and old != new_digest:
            raise ReplayMismatchError(
                f"{out}: existing manifest was produced by config {old}, "
                f"refusing to overwrite with {new_digest} (use force)"
            )
    try:
        out.mkdir(parents=True, exist_ok=True)
        files: dict[str, str] = {
            "manifest.txt": render_manifest(report),
            "summary.txt": render_summary(report),
            "config.echo.txt": format_config(report.config),
            "plots.json": render_plots(report),
        }
        for name, table in report.tables.items():
            files[f"{name}.csv"] = render_csv(table)
        written = []
        for name in sorted(files):
            path = out / name
            path.write_text(files[name], encoding="utf-8", newline="\n")
            written.append(path)
    except OSError as exc:
        raise RuntimeError(f"failed to emit report into {out}: {exc}") from exc
    return written

