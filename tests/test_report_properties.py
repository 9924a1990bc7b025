"""render_csv renders each row with one cached %-format per row shape; over
generated tables that must give exactly the per-value `_fmt` text, and every
row must still be checked against the header's width."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravswap.experiments import Table
from gravswap.report import _fmt, render_csv

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)

SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-320, 2.2250738585072014e-308]
floats = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(SPECIAL_FLOATS))

# one strategy per kind of value: the first seven take the cached format,
# the rest fall back to `_fmt`
VALUE_KINDS = (
    floats,
    floats.map(np.float64),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=6),
    st.complex_numbers(allow_subnormal=True),
    st.floats(width=32, allow_subnormal=True).map(np.float32),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int32),
)


@st.composite
def tables(draw):
    """A table whose columns each mix two kinds of value, so row shapes both
    repeat and change partway through."""
    width = draw(st.integers(min_value=1, max_value=6))
    palettes = [draw(st.lists(st.sampled_from(VALUE_KINDS), min_size=1, max_size=2)) for _ in range(width)]
    n_rows = draw(st.integers(min_value=0, max_value=12))
    rows = [tuple(draw(st.one_of(palette)) for palette in palettes) for _ in range(n_rows)]
    return Table(name="generated", columns=tuple(f"c{i}" for i in range(width)), rows=rows)


def _per_value(table):
    lines = [",".join(table.columns)] + [",".join(_fmt(v) for v in row) for row in table.rows]
    return "\n".join(lines) + "\n"


@PROPERTY_SETTINGS
@given(tables())
def test_render_csv_matches_per_value_text(table):
    assert render_csv(table) == _per_value(table)


@PROPERTY_SETTINGS
@given(tables(), st.data())
def test_render_csv_checks_every_row_width(table, data):
    width = len(table.columns)
    short = tuple(table.rows[0][:-1]) if table.rows else (0.5,) * (width - 1)
    at = data.draw(st.integers(min_value=0, max_value=len(table.rows)))
    bad = Table(name="generated", columns=table.columns, rows=[*table.rows[:at], short, *table.rows[at:]])
    with pytest.raises(ValueError, match=f"table generated: row width {width - 1} != header {width}"):
        render_csv(bad)


@pytest.mark.parametrize(
    "value",
    [math.nan, -math.nan, math.inf, -math.inf, -0.0, 1e-320, 2**70, np.True_, np.False_, np.int64(-7), True, "x%sy"],
)
def test_render_csv_edge_values(value):
    table = Table(name="edge", columns=("a", "b"), rows=[(value, 1.5), (value, 1.5)])
    assert render_csv(table) == _per_value(table)
