"""Unit tests for expression trees, compilation, and LIKE matching."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.expr import (
    AggCall, And, Between, BinOp, Cmp, Col, Const, InList, Not, Or,
    columns_of, compile_expr, contains_agg, like_matcher, op_count,
)

POS = {"a": 0, "b": 1, "c": 2}


def ev(expr, row):
    return compile_expr(expr, POS)(row)


def test_arithmetic():
    e = BinOp("+", Col("a"), BinOp("*", Col("b"), Const(2)))
    assert ev(e, [1, 3, 0]) == 7
    assert ev(BinOp("/", Col("a"), Const(4)), [10, 0, 0]) == 2.5
    assert ev(BinOp("-", Col("a"), Col("b")), [10, 4, 0]) == 6


def test_comparisons():
    assert ev(Cmp("=", Col("a"), Const(5)), [5, 0, 0])
    assert ev(Cmp("<>", Col("a"), Const(5)), [6, 0, 0])
    assert ev(Cmp("<=", Col("a"), Col("b")), [3, 3, 0])
    assert not ev(Cmp(">", Col("a"), Const(9)), [9, 0, 0])


def test_boolean_connectives():
    e = And((Cmp(">", Col("a"), Const(0)), Cmp("<", Col("a"), Const(10))))
    assert ev(e, [5, 0, 0]) and not ev(e, [20, 0, 0])
    o = Or((Cmp("=", Col("a"), Const(1)), Cmp("=", Col("a"), Const(2))))
    assert ev(o, [2, 0, 0]) and not ev(o, [3, 0, 0])
    assert ev(Not(Cmp("=", Col("a"), Const(1))), [0, 0, 0])


def test_between_inclusive():
    e = Between(Col("a"), Const(2), Const(4))
    assert ev(e, [2, 0, 0]) and ev(e, [4, 0, 0]) and not ev(e, [5, 0, 0])


def test_in_list():
    e = InList(Col("c"), (Const("x"), Const("y")))
    assert ev(e, [0, 0, "x"]) and not ev(e, [0, 0, "z"])


def test_like_patterns():
    assert like_matcher("abc")("abc") and not like_matcher("abc")("abd")
    assert like_matcher("ab%")("abcdef")
    assert like_matcher("%ef")("abcdef")
    assert like_matcher("%cd%")("abcdef")
    assert not like_matcher("%cd%")("abef")
    assert like_matcher("a%c%e")("abcde")
    assert not like_matcher("a%c%e")("abce_")
    assert like_matcher("%")("anything")
    assert not like_matcher("%x%")(None)


def test_like_middle_parts_ordered():
    assert like_matcher("%ab%cd%")("zzabzzcdzz")
    assert not like_matcher("%ab%cd%")("zzcdzzabzz")


def test_columns_of():
    e = And((Cmp("=", Col("a"), Const(1)), Between(Col("b"), Const(0), Col("c"))))
    assert columns_of(e) == {"a", "b", "c"}
    assert columns_of(AggCall("SUM", Col("a"))) == {"a"}
    assert columns_of(AggCall("COUNT", None)) == set()


def test_contains_agg():
    assert contains_agg(BinOp("+", AggCall("SUM", Col("a")), Const(1)))
    assert not contains_agg(BinOp("+", Col("a"), Const(1)))


def test_op_count_positive_and_monotone():
    simple = Cmp("=", Col("a"), Const(1))
    nested = And((simple, Between(Col("b"), Const(0), Const(9))))
    assert 0 < op_count(simple) < op_count(nested)


def test_aggcall_validation():
    with pytest.raises(ValueError):
        AggCall("MEDIAN", Col("a"))


def test_compile_rejects_aggregates():
    with pytest.raises(TypeError):
        compile_expr(AggCall("SUM", Col("a")), POS)


def test_unknown_column_raises_keyerror():
    with pytest.raises(KeyError):
        compile_expr(Col("zz"), POS)


@settings(max_examples=100, deadline=None)
@given(st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100))
def test_between_equiv_to_two_comparisons(a, lo, hi):
    row = [a, 0, 0]
    between = ev(Between(Col("a"), Const(lo), Const(hi)), row)
    pair = ev(And((Cmp(">=", Col("a"), Const(lo)),
                   Cmp("<=", Col("a"), Const(hi)))), row)
    assert between == pair


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab%", min_size=1, max_size=8),
       st.text(alphabet="ab", max_size=12))
def test_like_matches_regex_semantics(pattern, s):
    import re

    regex = "^" + "".join(".*" if ch == "%" else re.escape(ch)
                          for ch in pattern) + "$"
    assert like_matcher(pattern)(s) == bool(re.match(regex, s))
