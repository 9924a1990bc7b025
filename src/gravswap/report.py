"""Report emission: manifest, CSV tables, plot bundle, text summary.

Emission is a pure serialization of the report object: identical reports
produce byte-identical files (floats at 17 significant digits, fixed key
order, LF line endings).  `_fmt` is the one definition of a value's text.
CSV tables are streamed to disk a fixed number of rows at a time, through
one %-format per column block derived from the column dtypes, which writes
the same bytes as `_fmt` value by value; other columns go through `_fmt`.
The tables are split into one group per CPU, balanced by cell count; the
first group is written in this process, each other one in a forked child.
The manifest is written last, so a manifest implies a complete file set.  A
directory already holding a manifest from a different configuration refuses
re-emission unless forced, so a replay can never silently mix artifacts from
two runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TextIO

import numpy as np

from .config import config_digest, format_config
from .experiments import ExperimentReport, Table, cpu_count, fork_map


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


CSV_CHUNK_ROWS = 4096  # rows formatted per write, which bounds the text held at once

# dtype kinds whose values, after `.tolist()`, take one %-conversion with the
# text of `_fmt`: "%.17g" prints nan without a sign as `_fmt` does, and "%d"
# prints a bool as 1 or 0
_KIND_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


def _column_format(column) -> str | None:
    """The %-conversion of every value of a column, or None when each value
    needs `_fmt` (complex and object arrays, non-string sequences)."""
    if isinstance(column, np.ndarray):
        return _KIND_FORMATS.get(column.dtype.kind)
    return "%s" if all(type(v) is str for v in column) else None


def write_csv(table: Table, out: TextIO, chunk_rows: int = CSV_CHUNK_ROWS) -> None:
    """Stream the table to the text file `out`, `chunk_rows` rows of a block
    at a time, each row through the block's one %-format."""
    out.write(",".join(table.columns) + "\n")
    for block in table.blocks:
        formats = [_column_format(column) for column in block]
        line = ",".join(f or "%s" for f in formats) + "\n"
        for start in range(0, len(block[0]), chunk_rows):
            parts = [column[start : start + chunk_rows] for column in block]
            values = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
            texts = [v if f else [_fmt(x) for x in v] for v, f in zip(values, formats)]
            out.write("".join([line % row for row in zip(*texts)]))


def csv_groups(tables: dict[str, Table], n: int) -> list[list[str]]:
    """The table names split into at most `n` non-empty groups of about equal
    cell count: largest table first, each into the group with the fewest
    cells so far."""
    cells = {name: len(t.columns) * sum(len(block[0]) for block in t.blocks) for name, t in tables.items()}
    groups: list[list[str]] = [[] for _ in range(n)]
    loads = [0] * n
    for name in sorted(tables, key=lambda name: (-cells[name], name)):
        i = loads.index(min(loads))
        groups[i].append(name)
        loads[i] += cells[name]
    return [g for g in groups if g]


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
        manifest_path.unlink(missing_ok=True)  # written last: a manifest implies a complete report

        def write_group(names: list[str]) -> None:
            for name in names:
                with (out / f"{name}.csv").open("w", encoding="utf-8", newline="\n") as fh:
                    write_csv(report.tables[name], fh)

        fork_map(write_group, csv_groups(report.tables, cpu_count()))
        written = [out / f"{name}.csv" for name in sorted(report.tables)]
        texts = {
            "config.echo.txt": format_config(report.config),
            "plots.json": render_plots(report),
            "summary.txt": render_summary(report),
            "manifest.txt": render_manifest(report),
        }
        for name, text in texts.items():
            path = out / name
            path.write_text(text, encoding="utf-8", newline="\n")
            written.append(path)
    except OSError as exc:
        raise RuntimeError(f"failed to emit report into {out}: {exc}") from exc
    return written

