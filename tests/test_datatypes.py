"""Unit tests for schemas, columns, and date conversion."""

import datetime

import pytest

from repro.db.datatypes import (
    Column, DataType, Schema, TUPLE_HEADER_BYTES, char, date, date_to_num,
    float8, int4, num_to_date,
)


def test_column_default_widths():
    assert int4("a").width == 4
    assert float8("b").width == 8
    assert date("c").width == 4
    assert Column("d", DataType.INT8).width == 8


def test_char_requires_width():
    with pytest.raises(ValueError):
        Column("x", DataType.CHAR)
    assert char("x", 25).width == 25


def test_schema_offsets_are_cumulative():
    s = Schema("t", [int4("a"), char("b", 10), float8("c")])
    assert s.offsets == [TUPLE_HEADER_BYTES, TUPLE_HEADER_BYTES + 4,
                         TUPLE_HEADER_BYTES + 14]
    assert s.tuple_size == TUPLE_HEADER_BYTES + 4 + 10 + 8


def test_schema_lookup():
    s = Schema("t", [int4("a"), float8("b")])
    assert s.column_index("b") == 1
    assert "a" in s and "zz" not in s
    assert s.names() == ["a", "b"]
    assert len(s) == 2


def test_schema_rejects_duplicates():
    with pytest.raises(ValueError):
        Schema("t", [int4("a"), float8("a")])


def test_date_roundtrip():
    n = date_to_num("1995-03-15")
    assert num_to_date(n) == datetime.date(1995, 3, 15)
    assert date_to_num(datetime.date(1992, 1, 1)) == 0
    assert date_to_num(5) == 5  # already a day number


def test_date_ordering_matches_calendar():
    assert date_to_num("1994-06-01") < date_to_num("1995-06-01")
    assert date_to_num("1995-01-31") + 1 == date_to_num("1995-02-01")
