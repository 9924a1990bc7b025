"""Report emission: manifest, CSV tables, plot bundle, text summary.

Emission is a pure serialization of the report object: identical reports
produce byte-identical files (floats at 17 significant digits, fixed key
order, LF line endings).  `config.format_float` is the one definition of a
number's text.  CSV tables are streamed to disk a fixed number of rows at a
time, each chunk laid out as bytes in numpy.  A table column holds numbers
or one string per block (`experiments.Table`): the numbers, ints and bools
among them, take the cells of a kernel that writes the 17 digits of "%.17g"
and hands the cells it cannot vouch for to `format_float` one by one; a
string is one text, laid out once and repeated down its rows.  Every table
is split by rows: of its run of chunks, process k of one per CPU writes the
k-th contiguous part.  This process writes the header and the first part
straight into the table's file, each forked child its part into a hidden
part file beside it; the parts are then appended in order and deleted, also
when a child fails.  The manifest is written last, so a
manifest implies a complete file set.  A directory already holding a
manifest from a different configuration refuses re-emission unless forced,
so a replay can never silently mix artifacts from two runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import shutil
from pathlib import Path
from types import SimpleNamespace
from typing import TextIO

import numpy as np

from . import __version__
from .config import config_digest, format_config, format_float
from .experiments import ExperimentReport, Table, cpu_count, fork_map


class ReportError(RuntimeError):
    """Raised when a report cannot be written to its directory."""


class ReplayMismatchError(ReportError):
    pass


# rows formatted per write, which bounds the memory held at once, and the
# unit a table is split in between the processes.  The work arrays of a
# chunk grow with it: the peak RSS of `swap_ode` reads 46.5 MB at 512 rows,
# 47.4 at 1024 and 49.6 at 2048, and its wall time 0.360, 0.367 and 0.362 s,
# medians of 30 runs on a 2-vCPU machine: the smallest peak at no measured cost
CSV_CHUNK_ROWS = 512

# The float kernel.  For a finite x with 1e-40 <= |x| <= 1e40, let k =
# floor(log10 |x|).  S = |x| * 10**(16 - k) is formed in double-double
# arithmetic: Dekker's exact product of |x| and hi, plus |x| * lo, where hi +
# lo is 10**(16 - k) to 2**-106.  S lies in [1e16, 1e17) with an error below
# 1e-13, so its nearest integer D holds the 17 digits "%.17g" prints.  Where
# 10**(16 - k) is a double (lo = 0) the product is exact, and np.rint rounds
# a tie to even as "%.17g" does.  `format_float` writes the cells the kernel
# cannot vouch for: nan, inf, |x| outside [1e-40, 1e40] (0 aside; no report of
# the benchmark's workloads or of the CLI's defaults holds such a value), S
# within 1e-6 of a tie where lo is not 0, and S outside [1e16, 1e17), where
# log10 was one off next to a power of ten.
#
# A cell is laid out on 48 slots, six pieces of eight taken from one table:
# the sign, "0.000", the first digit and a point; four digit/point pairs for
# each group of four digits; "e", the exponent's sign and two digits, the
# separator and three slots never kept.  Which slots a cell keeps depends only
# on its sign, k and its number of digits once trailing zeros go, so one row
# of the table `keep` holds each combination; np.compress drops the rest.
_CELL = 48
_SEP = 44  # the separator's slot
_X_MIN, _X_MAX = 1e-40, 1e40  # the range of |x| the kernel writes
_K_MIN, _K_MAX = -41, 41  # the exponents with a row, log10 one off at either end
_SPLIT = 2.0**27 + 1  # Dekker's splitter: x * _SPLIT cuts x into two halves of 26 bits
_LEAD, _TAIL = 10000, 10010  # the first rows of the first and the last piece in `pieces`
_EXP_CLASS = 21  # the class of exponent-format cells, after k = 0..16 and -1..-4
_COMPRESS_BYTES = 1 << 15  # slots compressed at once: np.compress holds 8 bytes per slot kept


@functools.cache
def _powers() -> SimpleNamespace:
    """For each k in [_K_MIN, _K_MAX], at row k - _K_MIN: hi, the double
    nearest 10**(16 - k), the halves of its Dekker split, lo, the double
    nearest the rest, so that hi + lo is the power to about 2**-106, and the
    largest distance |S - rint(S)| at which rint(S) is certainly the nearest
    integer to the exact product (any, where lo = 0 and the product is
    exact).  hi and lo come from exact integer arithmetic, in which an int /
    int division rounds correctly."""
    hi, lo = np.zeros(_K_MAX - _K_MIN + 1), np.zeros(_K_MAX - _K_MIN + 1)
    for row in range(len(hi)):
        m = 16 - (row + _K_MIN)
        if m >= 0:
            n = 10**m
            hi[row] = float(n)
            lo[row] = float(n - int(hi[row]))
        else:
            n = 10**-m
            hi[row] = h = 1 / n
            num, den = h.as_integer_ratio()
            lo[row] = (den - num * n) / (den * n)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    return SimpleNamespace(hi=hi, hi_hi=hi_hi, hi_lo=hi - hi_hi, lo=lo, margin=np.where(lo == 0, 0.5, 0.5 - 1e-6))


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables of the float kernel but the powers of ten, built on
    first use."""
    k = np.arange(_K_MIN, _K_MAX + 1)

    # the pieces of a cell: "d.d.d.d." for each group of four digits, then
    # "-0.000d." for each first digit, then "e-dd," and three more per k
    pieces = np.zeros((_TAIL + len(k), 8), np.uint8)
    groups = pieces[:_LEAD].reshape(10, 10, 10, 10, 8)
    digit = np.arange(ord("0"), ord("9") + 1)
    for j in range(4):
        groups[..., 2 * j] = digit.reshape([10 if i == j else 1 for i in range(4)])
    pieces[:_TAIL, 1::2] = ord(".")
    pieces[_LEAD:_TAIL, :6] = np.frombuffer(b"-0.000", np.uint8)
    pieces[_LEAD:_TAIL, 6] = digit
    pieces[_TAIL:, 0] = ord("e")
    pieces[_TAIL:, 1] = np.where(k < 0, ord("-"), ord("+"))
    pieces[_TAIL:, 2:4] = np.abs(k)[:, None] // [10, 1] % 10 + ord("0")
    pieces[_TAIL:, 4] = ord(",")
    # the last nonzero digit of a group as one bit of a byte, 0 for the other
    # pieces: the four groups read as a little-endian uint32 then have their
    # highest set bit at b = 8j + place - 1 in the last nonzero group j
    last_bit = np.zeros(len(pieces), np.uint8)
    bits = last_bit[:_LEAD].reshape(10, 10, 10, 10)
    bits[...] = 8
    bits[..., 0] = 4
    bits[..., 0, 0] = 2
    bits[..., 0, 0, 0] = 1
    bits[0, 0, 0, 0] = 0
    # twice the number of digits kept, by the biased exponent 1023 + b of that
    # uint32 as a double (0 when all four groups are 0)
    b = np.arange(32)
    twice_digits = np.full(1023 + 32, 2)
    twice_digits[1023:] = 2 * (2 + 4 * (b // 8) + b % 8)

    # a cell's class: k digits before the point (k = 0..16, classes 0-16),
    # "0." and -k - 1 zeros before the digits (k = -1..-4, classes 17-20), or
    # the exponent format (class 21)
    cls = np.select([(k >= 0) & (k <= 16), (k >= -4) & (k < 0)], [k, 16 - k], _EXP_CLASS)

    # the slots kept by class c, digit count d (1-17) and sign s, at row 36c + 2d + s
    c = np.arange(_EXP_CLASS + 1)[:, None, None]
    d = np.arange(18)[None, :, None]
    keep = np.zeros((_EXP_CLASS + 1, 18, 2, _CELL), bool)
    keep[..., 0] = np.arange(2)
    prefix = np.where((c >= 17) & (c < _EXP_CLASS), c - 15, 0)  # "0.000": 1 - k slots
    keep[..., 1:6] = np.arange(5) < prefix[..., None]
    shown = np.where(c <= 16, np.maximum(d, c + 1), d)  # an integer part keeps its zeros
    point = np.where(c <= 16, c, np.where(c == _EXP_CLASS, 0, -1))  # the digit before the point
    point = np.where(d > point + 1, point, -1)  # no point without a digit after it
    place = np.arange(17)
    keep[..., 6:40:2] = place < shown[..., None]
    keep[..., 7:40:2] = place == point[..., None]
    keep[..., 40:_SEP] = (c == _EXP_CLASS)[..., None]
    keep[..., _SEP] = True

    return SimpleNamespace(
        cls=cls * 36, pieces=pieces.view("V8").ravel(), last_bit=last_bit, twice_digits=twice_digits,
        keep=keep.reshape(-1, _CELL).view(np.uint8).view(f"V{_CELL}").ravel(),
    )


class _CsvWriter:
    """Writes the chunks of one table part as CSV text.  Its work arrays are
    sized for the part's largest chunk of numbers and reused chunk after chunk
    through `out=`: fresh arrays for every chunk cost page faults that cancel
    the kernel's gain.  The float kernel's phases share them: the doubles of the
    product become the digits' integers and then the cells, the table
    indices become the kept slots."""

    def __init__(self):
        self.size = 0  # the numbers the work arrays hold
        self.line = np.empty(0, np.uint8)  # a chunk's rows, where not all columns are numbers
        self.line_keep = np.empty(0, bool)

    def _reserve(self, n: int) -> None:
        if n > self.size:  # the first chunk of a part is its largest
            self.size = n
            self.work = np.empty(6 * n)  # |x| and five temporaries, then the cells
            self.index = np.empty((n, 6), np.intp)  # each cell's pieces, then its kept slots
            self.row = np.empty(n, np.intp)  # k - _K_MIN: each value's row of the tables
            self.key = np.empty((2, n), np.intp)
            self.bits = np.empty((n, 6), np.uint8)
            self.flags = np.empty((4, n), bool)

    def _kernel(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells of the (rows, cols) float64 values x, their kept slots, and
        the indices of the cells the kernel cannot vouch for."""
        t, p, n = _tables(), _powers(), x.size
        work = self.work[: 6 * n].reshape(6, n)
        a, t0, t1, t2, t3, t4 = work
        row = self.row[:n]
        neg, zero, bad, tmp = self.flags[:, :n]
        x = x.ravel()
        np.signbit(x, out=neg)
        np.abs(x, out=a)
        np.greater_equal(a, _X_MIN, out=bad)
        np.less_equal(a, _X_MAX, out=tmp)
        bad &= tmp
        np.equal(a, 0, out=zero)
        np.logical_not(bad, out=bad)  # nan, inf, 0 and |x| outside [1e-40, 1e40]
        np.copyto(a, 1.0, where=bad)
        bad ^= zero  # 0 is kept, as D = 0 with k = 0

        # k and S = s + r in double-double
        np.log10(a, out=t0)
        np.floor(t0, out=t0)
        t0 -= _K_MIN
        np.copyto(row, t0, casting="unsafe")
        np.multiply(a, _SPLIT, out=t0)
        np.subtract(t0, a, out=t1)
        t0 -= t1  # the high half of |x|
        np.subtract(a, t0, out=t1)  # its low half
        np.take(p.hi, row, out=t2, mode="clip")
        t2 *= a  # p
        np.take(p.hi_hi, row, out=t3, mode="clip")
        np.multiply(t0, t3, out=t4)
        t4 -= t2
        t3 *= t1
        t4 += t3
        np.take(p.hi_lo, row, out=t3, mode="clip")
        t0 *= t3
        t4 += t0
        t1 *= t3
        t4 += t1  # e: p + e is the product of |x| and hi
        np.take(p.lo, row, out=t3, mode="clip")
        t3 *= a
        t4 += t3
        np.add(t2, t4, out=t0)  # s, an integer since S > 2**53
        np.subtract(t0, t2, out=t1)
        t4 -= t1  # r, |r| <= 8
        np.rint(t4, out=t1)
        np.subtract(t4, t1, out=t2)
        np.abs(t2, out=t2)
        np.take(p.margin, row, out=t3, mode="clip")
        np.greater(t2, t3, out=tmp)
        bad |= tmp  # near a tie
        np.subtract(t0, 1e16, out=t2)
        t2 += t4
        np.less(t2, 0, out=tmp)
        bad |= tmp  # S < 1e16: log10 was one too high
        np.greater_equal(t0, 1e17, out=tmp)
        bad |= tmp  # S >= 1e17: one too low

        # D = s + rint(r): its first digit, four groups of four, and k
        d, q, tmp_i, lead, g1, g3 = work.view(np.int64)
        index = self.index[:n]
        np.copyto(d, t0, casting="unsafe")  # over |x|
        np.copyto(q, t1, casting="unsafe")
        d += q
        np.copyto(d, 0, where=zero)
        np.floor_divide(d, 10**8, out=q)
        np.multiply(q, 10**8, out=tmp_i)
        d -= tmp_i  # the last eight digits
        np.floor_divide(q, 10**8, out=lead)
        np.multiply(lead, 10**8, out=tmp_i)
        q -= tmp_i  # the eight after the first
        np.floor_divide(q, 10**4, out=g1)
        np.floor_divide(d, 10**4, out=g3)
        np.add(lead, _LEAD, out=index[:, 0])
        index[:, 1] = g1
        g1 *= 10**4
        np.subtract(q, g1, out=index[:, 2])
        index[:, 3] = g3
        g3 *= 10**4
        np.subtract(d, g3, out=index[:, 4])
        np.add(row, _TAIL, out=index[:, 5])
        cells = work.reshape(-1).view("V8").reshape(n, 6)
        np.take(t.pieces, index, out=cells, mode="clip")

        # the kept slots: row 36 * class + 2 * digits + sign of `keep`
        bits, (key, tmp_i) = self.bits[:n], self.key[:, :n]
        np.take(t.last_bit, index, out=bits, mode="clip")
        word = self.index.reshape(-1)[:n].view(np.float64)
        np.copyto(word, bits[:, 1:5].view("<u4").reshape(n))
        np.right_shift(word.view(np.int64), 52, out=tmp_i)
        np.take(t.twice_digits, tmp_i, out=key, mode="clip")
        np.take(t.cls, row, out=tmp_i, mode="clip")
        key += tmp_i
        key += neg
        keep = self.index.reshape(-1)[: n * _CELL // 8].view(f"V{_CELL}")
        np.take(t.keep, key, out=keep, mode="clip")
        return cells.view(np.uint8).reshape(n, _CELL), keep.view(bool).reshape(n, _CELL), np.flatnonzero(bad)

    def _numbers(self, columns: list) -> tuple[np.ndarray, np.ndarray]:
        """The (rows, cols, _CELL) cells of number columns of one length, as
        float64, and their kept slots: the kernel's, and `format_float`'s
        where it cannot vouch."""
        n, f = len(columns[0]), len(columns)
        self._reserve(n * f)
        cells, keep, bad = self._kernel(np.stack(columns, axis=1, out=self.work[: n * f].reshape(n, f)))
        for i in bad.tolist():
            text = format_float(columns[i % f][i // f]).encode()
            cells[i, : len(text)] = np.frombuffer(text, np.uint8)
            keep[i, :_SEP] = np.arange(_SEP) < len(text)
        return cells.reshape(n, f, _CELL), keep.reshape(n, f, _CELL)

    def write(self, parts: list, out: TextIO) -> None:
        """Writes the CSV lines of a chunk: a part of each column, of one length."""
        n = len(parts[0])
        numbers = [i for i, p in enumerate(parts) if p.dtype.kind != "U"]
        cells = keep = None
        if numbers:
            cells, keep = self._numbers([parts[i] for i in numbers])
        if len(numbers) == len(parts):
            line, line_keep = cells.reshape(n, -1), keep.reshape(n, -1)
        else:
            line, line_keep = self._line(parts, numbers, cells, keep)
        # the last separator: the last slot of a text cell, slot _SEP of a number cell
        line[:, -1 - (_CELL - 1 - _SEP if len(parts) - 1 in numbers else 0)] = ord("\n")
        step = max(1, _COMPRESS_BYTES // line.shape[1])
        for a in range(0, n, step):
            out.write(str(np.compress(line_keep[a : a + step].ravel(), line[a : a + step].ravel()), "utf-8"))

    def _line(self, parts: list, numbers: list, cells, keep) -> tuple[np.ndarray, np.ndarray]:
        """The lines of a chunk whose columns are not all numbers, and their
        kept slots: each run of number columns as laid out by the kernel,
        each string column's one text, with its separator, in every row."""
        n = len(parts[0])
        pieces = []
        done = 0  # number columns laid out
        for is_number, run in itertools.groupby(range(len(parts)), numbers.__contains__):
            run = list(run)
            if is_number:
                pieces.append((cells[:, done : done + len(run)].reshape(n, -1),
                               keep[:, done : done + len(run)].reshape(n, -1)))
                done += len(run)
                continue
            for i in run:
                pieces.append((np.frombuffer(f"{parts[i][0]},".encode(), np.uint8), True))
        size = n * sum(c.shape[-1] for c, _ in pieces)
        if self.line.size < size:
            self.line = np.empty(size, np.uint8)
            self.line_keep = np.empty(size, bool)
        line = self.line[:size].reshape(n, -1)
        line_keep = self.line_keep[:size].reshape(n, -1)
        o = 0
        for c, k in pieces:
            w = c.shape[-1]
            line[:, o : o + w] = c
            line_keep[:, o : o + w] = k
            o += w
        return line, line_keep


def _n_rows(table: Table) -> int:
    return sum(len(block[0]) for block in table.blocks)


def write_csv(table: Table, out: TextIO, lo: int = 0, hi: int | None = None) -> None:
    """Stream rows [lo, hi) of the table's blocks, taken end to end, to the
    text file `out`, after the header when lo is 0: at most CSV_CHUNK_ROWS
    rows of a block at a time, each chunk laid out as bytes in numpy by one
    `_CsvWriter`, whose work arrays the whole part reuses."""
    hi = _n_rows(table) if hi is None else hi
    if lo == 0:
        out.write(",".join(table.columns) + "\n")
    writer = _CsvWriter()
    end = 0
    for block in table.blocks:
        start, end = end, end + len(block[0])
        for a in range(max(lo, start) - start, min(hi, end) - start, CSV_CHUNK_ROWS):
            writer.write([column[a : min(a + CSV_CHUNK_ROWS, hi - start)] for column in block], out)


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
        f"version = {__version__}",
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
        lines.append(f"threshold {v.name} {v.comparison} {format_float(v.threshold)}")
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
        line = (f"  [{status}] {v.name}: observed {format_float(v.observed)} "
                f"(require {v.comparison} {format_float(v.threshold)})")
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
    """The config digest a manifest records, or None if it records none.  A
    manifest that is not UTF-8 text was not written by this program and is
    refused like another configuration's."""
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ReplayMismatchError(
            f"{manifest_path.parent}: existing manifest is not UTF-8 ({exc}), refusing to overwrite it (use force)"
        ) from None
    for line in text.splitlines():
        if line.startswith("config_digest = "):
            return line.split(" = ", 1)[1].strip()
    return None


def emit_report(report: ExperimentReport, out_dir: str | Path, force: bool = False) -> list[Path]:
    """Write the report's file set into out_dir; idempotent for identical
    reports, refuses (ReplayMismatchError) to overwrite a directory holding a
    different configuration's artifacts unless `force`, and raises
    ReportError where the directory or a file cannot be written."""
    out = Path(out_dir)
    manifest_path = out / "manifest.txt"
    new_digest = config_digest(report.config)
    try:
        if manifest_path.exists() and not force:
            old = _existing_digest(manifest_path)
            if old is not None and old != new_digest:
                raise ReplayMismatchError(
                    f"{out}: existing manifest was produced by config {old}, "
                    f"refusing to overwrite with {new_digest} (use force)"
                )
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
            _tables(), _powers()  # before the fork: every process writes with them
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
        raise ReportError(f"failed to emit report into {out}: {exc}") from exc
    return written

