"""Schema and value types for the relational engine.

Tuples are fixed-width: each column has a declared byte width, and a tuple's
attributes live at fixed offsets from the start of its slot in an 8-KB
buffer block.  Fixed widths keep the address arithmetic exact, which is what
the simulation needs; TPC-D's variable-width comment columns are modeled at
their average width.

Dates are stored as integer day counts from 1992-01-01 (the start of the
TPC-D business period).
"""

import datetime
from dataclasses import dataclass
from enum import Enum

TUPLE_HEADER_BYTES = 8
EPOCH = datetime.date(1992, 1, 1)


class DataType(Enum):
    """Column data types with their on-page byte widths."""

    INT4 = "int4"
    INT8 = "int8"
    FLOAT8 = "float8"
    DATE = "date"
    CHAR = "char"  # fixed width, given per column

    def default_width(self):
        return {"int4": 4, "int8": 8, "float8": 8, "date": 4}.get(self.value)


@dataclass(frozen=True)
class Column:
    """One attribute of a relation."""

    name: str
    type: DataType
    width: int = 0

    def __post_init__(self):
        if self.type is DataType.CHAR:
            if self.width <= 0:
                raise ValueError(f"char column {self.name!r} needs an explicit width")
        elif self.width == 0:
            object.__setattr__(self, "width", self.type.default_width())


class Schema:
    """Ordered set of columns with precomputed attribute offsets."""

    def __init__(self, name, columns):
        self.name = name
        self.columns = list(columns)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in schema {name!r}")
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        offsets = []
        off = TUPLE_HEADER_BYTES
        for col in self.columns:
            offsets.append(off)
            off += col.width
        self.offsets = offsets
        self.tuple_size = off

    def __len__(self):
        return len(self.columns)

    def __contains__(self, name):
        return name in self._index

    def column_index(self, name):
        """Position of column ``name``; raises ``KeyError`` if absent."""
        return self._index[name]

    def names(self):
        return [c.name for c in self.columns]


def date_to_num(value):
    """Convert ``'YYYY-MM-DD'`` or a ``datetime.date`` to a day number."""
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        value = datetime.date.fromisoformat(value)
    return (value - EPOCH).days


def num_to_date(num):
    """Convert a day number back to a ``datetime.date``."""
    return EPOCH + datetime.timedelta(days=num)


def int4(name):
    """Shorthand for a 4-byte integer column."""
    return Column(name, DataType.INT4)


def float8(name):
    """Shorthand for an 8-byte float column."""
    return Column(name, DataType.FLOAT8)


def date(name):
    """Shorthand for a date column."""
    return Column(name, DataType.DATE)


def char(name, width):
    """Shorthand for a fixed-width character column."""
    return Column(name, DataType.CHAR, width)
