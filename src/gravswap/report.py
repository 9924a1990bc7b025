"""Report emission: manifest, CSV tables, plot bundle, text summary.

Emission is a pure serialization of the report object: identical reports
produce byte-identical files (floats at 17 significant digits, fixed key
order, LF line endings).  `_fmt` is the one definition of a value's text.
CSV tables are streamed to disk a fixed number of rows at a time, through
one %-format per chunk derived from the column dtypes, which writes the same
bytes as `_fmt` value by value; other columns go through `_fmt`.  Every
table is split by rows: of its run of chunks, process k of one per CPU
writes the k-th contiguous part.  This process writes the header and the
first part straight into the table's file, each forked child its part into a
hidden part file beside it; the parts are then appended in order and
deleted, also when a child fails.  The manifest is written last, so a
manifest implies a complete file set.  A directory already holding a
manifest from a different configuration refuses re-emission unless forced,
so a replay can never silently mix artifacts from two runs.
"""

from __future__ import annotations

import json
import math
import shutil
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


# rows formatted per write, which bounds the text held at once, and the unit
# a table is split in between the processes: the peak RSS of `swap_ode` comes
# from the 13-column displacement chunks, and with the split 4096 rows raised
# it by 2.6-3.0 MB (5%), 2048 kept it level and 1024 lowered it by 1.6-2.0 MB,
# on a 2-vCPU machine
CSV_CHUNK_ROWS = 1024

# dtype kinds whose values, after `.tolist()`, take one %-conversion with the
# text of `_fmt`: "%.17g" prints nan without a sign as `_fmt` does, and "%d"
# prints a bool as 1 or 0
_KIND_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


def _column_format(column) -> str | None:
    """The %-conversion of every value of a column chunk, or None when each
    value needs `_fmt` (complex and object arrays, non-string sequences)."""
    if isinstance(column, np.ndarray):
        return _KIND_FORMATS.get(column.dtype.kind)
    return "%s" if all(type(v) is str for v in column) else None


def _n_rows(table: Table) -> int:
    return sum(len(block[0]) for block in table.blocks)


def write_csv(table: Table, out: TextIO, lo: int = 0, hi: int | None = None) -> None:
    """Stream rows [lo, hi) of the table's blocks, taken end to end, to the
    text file `out`, after the header when lo is 0: at most CSV_CHUNK_ROWS
    rows of a block at a time, each row through the chunk's one %-format."""
    hi = _n_rows(table) if hi is None else hi
    if lo == 0:
        out.write(",".join(table.columns) + "\n")
    end = 0
    for block in table.blocks:
        start, end = end, end + len(block[0])
        for a in range(max(lo, start) - start, min(hi, end) - start, CSV_CHUNK_ROWS):
            parts = [column[a : min(a + CSV_CHUNK_ROWS, hi - start)] for column in block]
            formats = [_column_format(p) for p in parts]
            line = ",".join(f or "%s" for f in formats) + "\n"
            values = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
            texts = [v if f else [_fmt(x) for x in v] for v, f in zip(values, formats)]
            out.write("".join([line % row for row in zip(*texts)]))


def csv_spans(n_rows: int, n: int) -> list[range]:
    """The rows of each of `n` processes: the k-th contiguous part of the
    table's run of CSV_CHUNK_ROWS chunks.  The parts differ by at most one
    chunk and none is larger than the first, so a table of one chunk stays
    whole in the first."""
    chunks = -(-n_rows // CSV_CHUNK_ROWS)
    bounds = [min(n_rows, -(-chunks * k // n) * CSV_CHUNK_ROWS) for k in range(n + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


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

        n = cpu_count()
        spans = {name: csv_spans(_n_rows(table), n) for name, table in report.tables.items()}
        # the processes with rows to write; the first also writes every header
        workers = [k for k in range(n) if k == 0 or any(s[k] for s in spans.values())]

        def csv_path(name: str, k: int) -> Path:
            return out / (f"{name}.csv" if k == 0 else f".{name}.csv.part{k}")

        def write_part(k: int) -> None:
            for name, table in report.tables.items():
                rows = spans[name][k]
                if k == 0 or rows:
                    with csv_path(name, k).open("w", encoding="utf-8", newline="\n") as fh:
                        write_csv(table, fh, rows.start, rows.stop)

        try:
            fork_map(write_part, workers)
            for name in report.tables:
                with csv_path(name, 0).open("ab") as whole:
                    for k in workers[1:]:
                        if spans[name][k]:
                            with csv_path(name, k).open("rb") as part:
                                shutil.copyfileobj(part, whole)
        finally:
            for name in report.tables:
                for k in workers[1:]:
                    csv_path(name, k).unlink(missing_ok=True)
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

