"""write_csv streams a table block by block, a fixed number of rows at a
time, each chunk laid out as bytes in numpy; over generated tables that span
several chunks that must give exactly the per-value `_fmt` text, and a float
column from any 64-bit pattern, or next to a power of ten, must read as
"%.17g" row by row.  emit_report splits every table by rows between the CPUs
and writes the same bytes as one write_csv per table, leaving no part file.
A block that does not fit the header is refused when it is added, and
emission of the largest benchmark report holds only a chunk at a time."""

import io
import math
import os
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gravswap.report
from gravswap import ExperimentConfig, Platform, run_swap
from gravswap.experiments import ExperimentReport, Table
from gravswap.report import _fmt, emit_report, write_csv

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)

SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-320, 2.2250738585072014e-308]
floats = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(SPECIAL_FLOATS))
# numpy's fixed-width strings drop trailing NULs, so columns never hold them
texts = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=6)

# (values, column built from a list of them): float, int, bool and str arrays
# and str lists are laid out in numpy; the rest go through `_fmt` value by value
COLUMN_KINDS = (
    (floats, lambda vs: np.array(vs, dtype=np.float64)),
    (st.integers(min_value=-(2**63), max_value=2**63 - 1), lambda vs: np.array(vs, dtype=np.int64)),
    (st.booleans(), lambda vs: np.array(vs, dtype=bool)),
    (texts, lambda vs: np.array(vs, dtype=str)),
    (texts, list),
    (floats, list),
    (st.integers(min_value=-(2**80), max_value=2**80), list),
)


def _text(value) -> str:
    """A cell's text: a string as it is, a number as `_fmt` writes it."""
    return value if isinstance(value, str) else _fmt(value)


@st.composite
def chunked_tables(draw):
    """A table, a chunk size and the table's per-value text: the first block
    spans several chunks and ends in a partial one, the others have any
    length, and each column is one of COLUMN_KINDS."""
    chunk_rows = draw(st.integers(min_value=2, max_value=5))
    width = draw(st.integers(min_value=1, max_value=5))
    first = chunk_rows * draw(st.integers(min_value=1, max_value=3)) + draw(st.integers(1, chunk_rows - 1))
    lengths = [first, *draw(st.lists(st.integers(min_value=0, max_value=12), max_size=3))]
    table = Table(name="generated", columns=tuple(f"c{i}" for i in range(width)))
    lines = [",".join(table.columns)]
    for n in lengths:
        kinds = [draw(st.sampled_from(COLUMN_KINDS)) for _ in range(width)]
        values = [draw(st.lists(strategy, min_size=n, max_size=n)) for strategy, _ in kinds]
        table.add(*(build(vs) for (_, build), vs in zip(kinds, values)))
        lines += [",".join(_text(v) for v in row) for row in zip(*values)]
    return table, chunk_rows, "\n".join(lines) + "\n"


def _streamed(table, lo=0, hi=None):
    out = io.StringIO()
    write_csv(table, out, lo, hi)
    return out.getvalue()


@PROPERTY_SETTINGS
@given(chunked_tables(), st.data())
def test_render_csv_matches_per_value_text(case, data):
    table, chunk_rows, expected = case
    n_rows = len(table.rows)
    cut = data.draw(st.integers(min_value=1, max_value=n_rows))  # the header goes with row 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gravswap.report, "CSV_CHUNK_ROWS", chunk_rows)
        assert _streamed(table) == expected
        # any two runs of rows, end to end, make the whole
        assert _streamed(table, 0, cut) + _streamed(table, cut, n_rows) == expected
    # the row tuples hold the values the text was made from
    rows = [",".join(table.columns)] + [",".join(_text(v) for v in row) for row in table.rows]
    assert "\n".join(rows) + "\n" == expected


@st.composite
def split_reports(draw):
    """A chunk size and a report of one to three generated tables whose blocks
    (empty, one-value and mixed-dtype ones) total around multiples of the
    chunk size."""
    chunk_rows = draw(st.integers(min_value=1, max_value=4))
    # k chunks and one row less, none or one more: 0 for an empty block
    lengths = st.builds(lambda k, e: max(0, k * chunk_rows + e), st.integers(0, 4), st.sampled_from([-1, 0, 1]))
    report = ExperimentReport(ExperimentConfig())
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        width = draw(st.integers(min_value=1, max_value=3))
        table = report.tables[f"t{t}"] = Table(name=f"t{t}", columns=tuple(f"c{i}" for i in range(width)))
        for n in draw(st.lists(lengths, max_size=3)):
            kinds = [draw(st.sampled_from(COLUMN_KINDS)) for _ in range(width)]
            values = [draw(st.lists(strategy, min_size=n, max_size=n)) for strategy, _ in kinds]
            table.add(*(build(vs) for (_, build), vs in zip(kinds, values)))
        if draw(st.booleans()):
            table.add_row(*(draw(draw(st.sampled_from(COLUMN_KINDS))[0]) for _ in range(width)))
    return chunk_rows, report


@settings(max_examples=100, deadline=None)
@given(split_reports())
def test_split_emission_writes_each_table_whole(case):
    chunk_rows, report = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gravswap.report, "CSV_CHUNK_ROWS", chunk_rows)
        whole = {f"{name}.csv": _streamed(table).encode("utf-8") for name, table in report.tables.items()}
        for n in (1, 2, 3):
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
            with tempfile.TemporaryDirectory() as out:
                emit_report(report, out)
                files = {p.name: p for p in Path(out).iterdir()}
                assert set(files) == set(whole) | {"config.echo.txt", "plots.json", "summary.txt", "manifest.txt"}
                assert {name: files[name].read_bytes() for name in whole} == whole


def test_table_refuses_a_block_that_does_not_fit():
    table = Table(name="generated", columns=("a", "b", "c"))
    with pytest.raises(ValueError, match="table generated: block of 3 columns of lengths \\[3, 4\\]"):
        table.add(np.zeros(4), np.zeros(3), ["x"] * 4)
    with pytest.raises(ValueError, match="table generated: block of 2 columns"):
        table.add(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="table generated: block of 4 columns"):
        table.add_row(1.0, 2.0, "x", 4)
    assert table.blocks == [] and table.rows == []


@pytest.mark.parametrize(
    "value",
    [math.nan, -math.nan, math.inf, -math.inf, -0.0, 1e-320, 2**70, np.True_, np.False_, np.int64(-7), True, "x%sy"],
)
def test_render_csv_edge_values(value):
    # the value in a one-value column of add_row, and in a numpy array
    table = Table(name="edge", columns=("a", "b"))
    table.add_row(value, 1.5)
    table.add(np.array([value, value]), np.array([1.5, 1.5]))
    assert _streamed(table) == "a,b\n" + f"{_text(value)},1.5\n" * 3


# float64 values of arbitrary 64-bit patterns: nan payloads, signed zeros,
# subnormals, infinities and the largest finite values among them
bit_patterns = st.integers(min_value=0, max_value=2**64 - 1)


def _power_lattice() -> np.ndarray:
    """The doubles nearest the powers of ten 1e-300 to 1e300 and the switch
    points of "%g" (1e-5, 1e-4, 1e16, 1e17), three neighbours on each side of
    each: where log10 is off by one and the 17-digit rounding comes nearest to
    carrying into the next decade.  Exact ties of that rounding, half to even,
    where the power of ten that scales them to 17 digits is not a double
    (odd multiples of 2**-24 and 2**-25 near 1e-7) and where it is (1e15 +
    j/8).  0, the subnormal and normal extremes, the largest double, and all
    of them negated."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)] + [1e-5, 1e-4, 1e16, 1e17])
    near, below, above = [powers], powers, powers
    for _ in range(3):
        below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
        near += [below, above]
    ties = [m * 2.0**-24 for m in range(3, 17, 2)] + [2.0**-25, 3 * 2.0**-25] + [1e15 + j / 8 for j in range(1, 8)]
    extremes = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate(near + [ties, extremes])
    return np.concatenate([values, -values])


def _float_lines(columns: np.ndarray) -> list[str]:
    """The CSV lines below the header of a table of the float64 columns."""
    table = Table(name="floats", columns=tuple(f"c{i}" for i in range(len(columns))))
    table.add(*columns)
    return _streamed(table).splitlines()[1:]


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda width: st.lists(st.lists(bit_patterns, min_size=width, max_size=width), min_size=1, max_size=30)),
    st.integers(min_value=1, max_value=5))
def test_float_columns_match_percent_17g_on_any_bit_pattern(rows, chunk_rows):
    columns = np.array(rows, dtype=np.uint64).view(np.float64).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gravswap.report, "CSV_CHUNK_ROWS", chunk_rows)
        lines = _float_lines(columns)
    assert lines == [",".join("%.17g" % v for v in row) for row in columns.T.tolist()]


@pytest.mark.parametrize("source", ["lattice", "patterns"])
def test_float_column_matches_percent_17g_in_bulk(source):
    # the power lattice, and 200,000 random 64-bit patterns, each a column
    if source == "lattice":
        values = _power_lattice()
    else:
        values = np.random.default_rng(0).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    assert _float_lines(values[None]) == ["%.17g" % v for v in values.tolist()]


@pytest.mark.parametrize("shift", [-1, 1])
def test_a_decimal_exponent_one_off_falls_back_to_percent_17g(shift):
    # np.log10 one off either way, as next to a power of ten, puts the scaled
    # value outside [1e16, 1e17): every other cell must still print as "%.17g"
    log10 = np.log10

    def off_by_one(a, out=None):
        out = log10(a, out=out)
        out[::2] += shift
        return out

    values = np.concatenate([_power_lattice(), np.random.default_rng(1).normal(0, 1e3, 2000)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "log10", off_by_one)
        lines = _float_lines(values[None])
    assert lines == ["%.17g" % v for v in values.tolist()]


def test_a_near_tie_where_the_power_is_inexact_falls_back_to_percent_17g():
    # lo off by hi * 1e-24 wherever 10**(16 - k) is not a double puts the
    # exact ties of the lattice 1e-8 to 1e-7 above a half, where np.rint
    # rounds up whatever the parity: only the 1e-6 near-tie margin sends them
    # to `_fmt`, and every cell must still print as "%.17g"
    powers = gravswap.report._powers()
    off = SimpleNamespace(**vars(powers))
    off.lo = powers.lo + np.where(powers.lo != 0, powers.hi * 1e-24, 0)
    values = _power_lattice()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gravswap.report, "_powers", lambda: off)
        lines = _float_lines(values[None])
    assert lines == ["%.17g" % v for v in values.tolist()]


def test_emit_report_streams_the_largest_report(tmp_path):
    # swap --oracle ode at 20,000 samples and 10,000 random pairs: 151,212
    # rows, 19 MB of CSV; building it whole took 47 MB above the report
    cfg = ExperimentConfig(
        kind="swap",
        platform=Platform(delta=0.02),
        alpha=2 + 1j,
        beta=-1 + 0.5j,
        samples=20000,
        random_pairs=10000,
        oracle="ode",
    )
    report = run_swap(cfg)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        paths = emit_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(p.stat().st_size for p in paths) > 19e6
    assert peak - start < 8e6
