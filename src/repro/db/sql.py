"""A mini-SQL front end covering the paper's query shapes.

Supported grammar (one SELECT block, the "limited form of SQL" the paper
itself worked within):

    SELECT item [, item]...
    FROM table [, table]...
    [WHERE predicate]
    [GROUP BY column [, column]...]
    [ORDER BY key [ASC|DESC] [, key [ASC|DESC]]...]

with items being expressions (optionally aliased with ``AS``), aggregate
calls (``SUM``/``COUNT``/``AVG``/``MIN``/``MAX``), arithmetic, comparisons,
``BETWEEN``, ``IN``, ``LIKE``, ``AND``/``OR``/``NOT``, and date literals
``DATE 'YYYY-MM-DD'`` (stored as day numbers).
"""

import re
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.db.datatypes import date_to_num
from repro.db.expr import (
    AggCall, And, Between, BinOp, Cmp, Col, Const, InList, Like, Not, Or,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "AND", "OR", "NOT",
    "AS", "BETWEEN", "IN", "LIKE", "ASC", "DESC", "DATE",
    "SUM", "COUNT", "AVG", "MIN", "MAX",
    "INSERT", "INTO", "VALUES", "DELETE",
}

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+\.\d+|\.\d+|\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<string>'(?:[^']|'')*')"
    r"|(?P<symbol><=|>=|<>|!=|=|<|>|\(|\)|,|\*|\+|-|/)"
    r")"
)


class SqlError(ValueError):
    """Raised for syntax errors in a query string."""


@dataclass
class SelectItem:
    """One output expression with an optional alias."""

    expr: Any
    alias: Optional[str] = None


@dataclass
class OrderItem:
    """One ORDER BY key: a column name or alias, plus direction."""

    key: str
    asc: bool = True


@dataclass
class SelectStatement:
    """Parsed single-block SELECT."""

    items: List[SelectItem]
    tables: List[str]
    where: List[Any] = field(default_factory=list)  # top-level conjuncts
    group_by: List[str] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)


@dataclass
class InsertStatement:
    """``INSERT INTO table VALUES (...), (...)`` with full-width rows."""

    table: str
    rows: List[List[Any]]


@dataclass
class DeleteStatement:
    """``DELETE FROM table [WHERE predicate]``."""

    table: str
    where: List[Any] = field(default_factory=list)


def tokenize(text):
    """Split a query string into (kind, value) tokens."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise SqlError(f"cannot tokenize near {rest[:25]!r}")
        pos = match.end()
        if match.lastgroup == "number":
            value = match.group("number")
            tokens.append(("number", float(value) if "." in value else int(value)))
        elif match.lastgroup == "ident":
            word = match.group("ident")
            if word.upper() in _KEYWORDS:
                tokens.append(("keyword", word.upper()))
            else:
                tokens.append(("ident", word.lower()))
        elif match.lastgroup == "string":
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(("string", raw))
        else:
            tokens.append(("symbol", match.group("symbol")))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("eof", None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            self.pos += 1
            return tok[1]
        return None

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise SqlError(f"expected {value or kind}, got {tok[1]!r}")
        return tok[1]

    # -- statement ---------------------------------------------------------------

    def statement(self):
        kind, value = self.peek()
        if (kind, value) == ("keyword", "SELECT"):
            return self.select_statement()
        if (kind, value) == ("keyword", "INSERT"):
            return self.insert_statement()
        if (kind, value) == ("keyword", "DELETE"):
            return self.delete_statement()
        raise SqlError(f"expected a statement, got {value!r}")

    def insert_statement(self):
        self.expect("keyword", "INSERT")
        self.expect("keyword", "INTO")
        table = self.expect("ident")
        self.expect("keyword", "VALUES")
        rows = [self.value_row()]
        while self.accept("symbol", ","):
            rows.append(self.value_row())
        if self.peek()[0] != "eof":
            raise SqlError(f"trailing tokens at {self.peek()[1]!r}")
        return InsertStatement(table, rows)

    def value_row(self):
        self.expect("symbol", "(")
        values = [self.constant().value]
        while self.accept("symbol", ","):
            values.append(self.constant().value)
        self.expect("symbol", ")")
        return values

    def delete_statement(self):
        self.expect("keyword", "DELETE")
        self.expect("keyword", "FROM")
        table = self.expect("ident")
        where = self.optional_where()
        if self.peek()[0] != "eof":
            raise SqlError(f"trailing tokens at {self.peek()[1]!r}")
        return DeleteStatement(table, where)

    def optional_where(self):
        if self.accept("keyword", "WHERE"):
            pred = self.or_expr()
            return list(pred.parts) if isinstance(pred, And) else [pred]
        return []

    def select_statement(self):
        self.expect("keyword", "SELECT")
        items = [self.select_item()]
        while self.accept("symbol", ","):
            items.append(self.select_item())
        self.expect("keyword", "FROM")
        tables = [self.expect("ident")]
        while self.accept("symbol", ","):
            tables.append(self.expect("ident"))
        where = []
        if self.accept("keyword", "WHERE"):
            pred = self.or_expr()
            where = list(pred.parts) if isinstance(pred, And) else [pred]
        group_by = []
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            group_by.append(self.expect("ident"))
            while self.accept("symbol", ","):
                group_by.append(self.expect("ident"))
        order_by = []
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            order_by.append(self.order_item())
            while self.accept("symbol", ","):
                order_by.append(self.order_item())
        if self.peek()[0] != "eof":
            raise SqlError(f"trailing tokens at {self.peek()[1]!r}")
        return SelectStatement(items, tables, where, group_by, order_by)

    def select_item(self):
        expr = self.or_expr()
        alias = None
        if self.accept("keyword", "AS"):
            alias = self.expect("ident")
        return SelectItem(expr, alias)

    def order_item(self):
        key = self.expect("ident")
        asc = True
        if self.accept("keyword", "DESC"):
            asc = False
        else:
            self.accept("keyword", "ASC")
        return OrderItem(key, asc)

    # -- expressions (precedence: OR < AND < NOT < cmp < add < mul < unary) -------

    def or_expr(self):
        parts = [self.and_expr()]
        while self.accept("keyword", "OR"):
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_expr(self):
        parts = [self.not_expr()]
        while self.accept("keyword", "AND"):
            parts.append(self.not_expr())
        if len(parts) == 1:
            return parts[0]
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, And) else [p])
        return And(tuple(flat))

    def not_expr(self):
        if self.accept("keyword", "NOT"):
            return Not(self.not_expr())
        return self.comparison()

    def comparison(self):
        left = self.additive()
        tok = self.peek()
        if tok == ("keyword", "BETWEEN"):
            self.next()
            lo = self.additive()
            self.expect("keyword", "AND")
            hi = self.additive()
            return Between(left, lo, hi)
        if tok == ("keyword", "IN"):
            self.next()
            self.expect("symbol", "(")
            values = [self.constant()]
            while self.accept("symbol", ","):
                values.append(self.constant())
            self.expect("symbol", ")")
            return InList(left, tuple(values))
        if tok == ("keyword", "LIKE"):
            self.next()
            pattern = self.expect("string")
            return Like(left, pattern)
        if tok[0] == "symbol" and tok[1] in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.next()
            right = self.additive()
            return Cmp(tok[1], left, right)
        return left

    def additive(self):
        left = self.multiplicative()
        while True:
            tok = self.peek()
            if tok[0] == "symbol" and tok[1] in ("+", "-"):
                self.next()
                left = BinOp(tok[1], left, self.multiplicative())
            else:
                return left

    def multiplicative(self):
        left = self.unary()
        while True:
            tok = self.peek()
            if tok[0] == "symbol" and tok[1] in ("*", "/"):
                self.next()
                left = BinOp(tok[1], left, self.unary())
            else:
                return left

    def unary(self):
        if self.accept("symbol", "-"):
            operand = self.unary()
            if isinstance(operand, Const):
                return Const(-operand.value)
            return BinOp("-", Const(0), operand)
        return self.primary()

    def primary(self):
        kind, value = self.peek()
        if kind == "symbol" and value == "(":
            self.next()
            inner = self.or_expr()
            self.expect("symbol", ")")
            return inner
        if kind == "number":
            self.next()
            return Const(value)
        if kind == "string":
            self.next()
            return Const(value)
        if kind == "keyword" and value == "DATE":
            self.next()
            literal = self.expect("string")
            return Const(date_to_num(literal))
        if kind == "keyword" and value in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            self.next()
            self.expect("symbol", "(")
            if value == "COUNT" and self.accept("symbol", "*"):
                self.expect("symbol", ")")
                return AggCall("COUNT", None)
            arg = self.or_expr()
            self.expect("symbol", ")")
            return AggCall(value, arg)
        if kind == "ident":
            self.next()
            return Col(value)
        raise SqlError(f"unexpected token {value!r}")

    def constant(self):
        kind, value = self.next()
        if kind in ("number", "string"):
            return Const(value)
        if kind == "keyword" and value == "DATE":
            return Const(date_to_num(self.expect("string")))
        raise SqlError(f"expected a constant, got {value!r}")


def parse(text):
    """Parse SQL text into a statement (SELECT, INSERT or DELETE)."""
    return _Parser(tokenize(text)).statement()
