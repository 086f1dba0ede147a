"""The columnar CSV writer, byte for byte against the row formatter it
replaced, and the JSONL writer against ``json.dumps``."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from talcil import output
from talcil.errors import DomainError
from talcil.output import fmt_cell, write_csv, write_jsonl

EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-5, 1e16, np.inf, -np.inf, np.nan]


def row_csv(header, rows) -> str:
    """The row-by-row text the writer produced before it took columns."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _narrow_ints(draw, n):
    """Integers spanning at most n values, at either end of their dtype or
    around zero: the columns the writer spells from one table."""
    dtype = draw(st.sampled_from([np.int8, np.uint8, np.int64, np.uint64]))
    info = np.iinfo(dtype)
    width = draw(st.integers(1, max(n, 1)))
    lo = draw(st.sampled_from([int(info.min), int(info.max) - width + 1, max(int(info.min), -2)]))
    return np.array(draw(st.lists(st.integers(lo, lo + width - 1), min_size=n, max_size=n)), dtype)


def _column(draw, n):
    kinds = ["f8", "f4", "g", "i8", "u1", "narrow", "bool", "mixed", "ints"]
    kind = draw(st.sampled_from(kinds))
    if kind == "f8":
        floats = st.floats(allow_subnormal=True) | st.sampled_from(EDGE_FLOATS)
        return draw(hnp.arrays(np.float64, n, elements=floats))
    if kind == "f4":
        return draw(hnp.arrays(np.float32, n, elements=st.floats(width=32)))
    if kind == "g":  # long double: wider than the one-pass float path takes
        return draw(hnp.arrays(np.longdouble, n, elements=st.floats()))
    if kind == "i8":
        return draw(hnp.arrays(np.int64, n))
    if kind == "u1":
        return draw(hnp.arrays(np.uint8, n))
    if kind == "narrow":
        return _narrow_ints(draw, n)
    if kind == "bool":
        return draw(hnp.arrays(np.bool_, n))
    if kind == "ints":
        return draw(st.lists(st.integers() | st.booleans(), min_size=n, max_size=n))
    cell = st.none() | st.floats() | st.sampled_from(EDGE_FLOATS) | st.text("ab-_. xyz", max_size=4)
    return draw(st.lists(cell, min_size=n, max_size=n))


@st.composite
def tables(draw):
    n = draw(st.integers(0, 30))
    width = draw(st.integers(1, 5))
    header = tuple(f"c{j}" for j in range(width))
    return header, [_column(draw, n) for _ in range(width)]


# one narrow column of each kind, so every run spells some from a table
NARROW_TABLE = (
    ("int8", "uint8", "int64_low", "int64_high", "uint64", "repeats"),
    [
        np.array([-128, -127, -128, -123, -126, -128], np.int8),
        np.array([255, 250, 255, 251, 252, 253], np.uint8),
        np.array([-2**63 + 5, -2**63, -2**63, -2**63 + 1, -2**63 + 3, -2**63 + 2], np.int64),
        np.array([2**63 - 1, 2**63 - 6, 2**63 - 2, 2**63 - 1, 2**63 - 3, 2**63 - 4], np.int64),
        np.array([2**64 - 1, 2**64 - 6, 2**64 - 1, 2**64 - 2, 2**64 - 4, 2**64 - 3], np.uint64),
        np.array([3, -2, 3, 3, 0, -2], np.int64),
    ],
)


@given(table=tables(), chunk=st.sampled_from([1, 3, 4096]))
@example(table=NARROW_TABLE, chunk=1)
@example(table=NARROW_TABLE, chunk=4096)
def test_columns_match_row_formatter(tmp_path_factory, table, chunk):
    header, columns = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with mock.patch.object(output, "_CSV_CHUNK_ROWS", chunk):
        write_csv(path, header, columns)
    assert path.read_text() == row_csv(header, zip(*columns))


@pytest.mark.parametrize(
    "column",
    [
        np.arange(-128, 128, dtype=np.int8),  # every int8: a span of 256 rows
        np.arange(99, -101, -1, dtype=np.int8),  # offsets up to 199, past int8's max
        np.arange(256, dtype=np.uint8).repeat(2),
        np.arange(-150, 150, dtype=">i2"),  # big-endian
    ],
    ids=["int8-all", "int8-wide-offsets", "uint8-all", "int16-big-endian"],
)
@pytest.mark.parametrize("chunk", [3, 4096])
def test_long_narrow_int_columns_match_row_formatter(tmp_path, column, chunk):
    """Columns longer than the drawn tables, so a span can outgrow its dtype."""
    with mock.patch.object(output, "_CSV_CHUNK_ROWS", chunk):
        write_csv(tmp_path / "t.csv", ("a",), (column,))
    assert (tmp_path / "t.csv").read_text() == row_csv(("a",), zip(column))


def test_zero_rows_write_the_header_only(tmp_path):
    write_csv(tmp_path / "t.csv", ("a", "b"), (np.array([]), []))
    assert (tmp_path / "t.csv").read_text() == "a,b\n"


@pytest.mark.parametrize(
    "header, columns",
    [
        (("a", "b"), (np.arange(3), [1.0, 2.0])),  # unequal lengths
        (("a", "b"), (np.arange(3),)),  # one column short of the header
        (("a",), (np.zeros((3, 2)),)),  # not one-dimensional
    ],
)
def test_malformed_columns_raise_before_anything_is_written(tmp_path, header, columns):
    with pytest.raises(DomainError):
        write_csv(tmp_path / "sub" / "t.csv", header, columns)
    assert not (tmp_path / "sub").exists()


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")


def test_failure_while_formatting_leaves_target_and_no_temp_file(tmp_path):
    target = tmp_path / "t.csv"
    target.write_text("old\n")
    column = [1, 2, 3, 4, 5, _Unprintable()]
    with mock.patch.object(output, "_CSV_CHUNK_ROWS", 2), pytest.raises(RuntimeError):
        write_csv(target, ("a",), (column,))
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


# the values a training run logs: ints, and finite floats of every magnitude
_EVENT_VALUES = (
    st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([3e-12, 1e16, -0.0, 5e-324, 1.7976931348623157e308])
)


@st.composite
def event_tables(draw):
    """``{key: column}`` of one length, each column a list or, when its
    values fit one, a float64 or int64 array."""
    keys = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 20))
    columns = {}
    for key in draw(st.permutations(keys)):
        column = [draw(_EVENT_VALUES) for _ in range(n)]
        if draw(st.booleans()) and all(type(v) is float for v in column):
            column = np.array(column, dtype=np.float64)
        elif draw(st.booleans()) and all(type(v) is int and abs(v) < 2**63 for v in column):
            column = np.array(column, dtype=np.int64)
        columns[key] = column
    return columns


@given(columns=event_tables())
@example(columns={"step": np.arange(3), "loss": np.array([0.5, -0.0, 1e16]), "b": [1, 2, 3]})
def test_jsonl_lines_are_json_dumps_with_sorted_keys(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("jsonl") / "events.jsonl"
    write_jsonl(path, columns)
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    rows = [dict(zip(columns, row)) for row in zip(*values)]
    assert path.read_text() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)


@pytest.mark.parametrize(
    "records",
    [
        [{"a": 1}, {"b": 1}],
        [{"a": 1}, {"a": 1, "b": 2}],
        [{1: 1}],
        [{"a": True}],  # repr spells it True, JSON true
        [{"a": None}],
        [{"a": "text"}],
        [{"a": np.float64(0.5)}],  # repr spells it np.float64(0.5)
        [{"a": 0.5}, {"a": float("nan")}],
        [{"a": float("inf")}],
        [{"a": -float("inf")}],
    ],
    ids=repr,
)
def test_jsonl_refuses_what_one_template_cannot_spell(tmp_path, records):
    # the table in column form; a key a row lacks is an empty (None) cell there
    keys = dict.fromkeys(key for record in records for key in record)
    columns = {key: [record.get(key) for record in records] for key in keys}
    with pytest.raises(DomainError):
        write_jsonl(tmp_path / "sub" / "events.jsonl", columns)
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize(
    "columns",
    [
        {"a": [1, 2], "b": [0.5]},
        {"a": np.arange(3), "b": np.zeros(2)},
        {"a": np.zeros((2, 1))},
        {"a": np.array([True])},
        {"a": np.array([0.5, np.nan])},
    ],
    ids=["lists", "arrays", "2-d", "bool array", "nan array"],
)
def test_jsonl_refuses_unequal_lengths_and_arrays_it_cannot_spell(tmp_path, columns):
    with pytest.raises(DomainError):
        write_jsonl(tmp_path / "sub" / "events.jsonl", columns)
    assert not (tmp_path / "sub").exists()
