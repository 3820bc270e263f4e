"""Unit tests for heap tables: geometry, addressing, statistics."""

import pytest

from repro.db.datatypes import Schema, char, int4
from repro.db.shmem import PAGE_SIZE, SharedMemory
from repro.db.table import HeapTable, PAGE_HEADER_BYTES
from repro.memsim.events import DataClass


def make_table(rows=100, width=50):
    shm = SharedMemory()
    schema = Schema("t", [int4("k"), char("pad", width)])
    t = HeapTable(schema, shm, oid=1)
    t.load([[i, "x" * 3] for i in range(rows)])
    return t, shm


def test_tuples_per_page():
    t, _ = make_table()
    expected = (PAGE_SIZE - PAGE_HEADER_BYTES) // t.schema.tuple_size
    assert t.tuples_per_page == expected


def test_pages_allocated_to_cover_rows():
    t, _ = make_table(rows=500)
    assert t.n_pages == (500 + t.tuples_per_page - 1) // t.tuples_per_page


def test_page_slot_mapping():
    t, _ = make_table(rows=300)
    tpp = t.tuples_per_page
    page, slot = t.page_slot(tpp + 3)
    assert page == t.pages[1]
    assert slot == 3


def test_tuple_addresses_fixed_stride_within_page():
    t, shm = make_table()
    a0 = t.tuple_addr(0)
    a1 = t.tuple_addr(1)
    assert a1 - a0 == t.schema.tuple_size
    assert a0 == shm.page_addr(t.pages[0]) + PAGE_HEADER_BYTES


def test_attr_addr_offsets():
    t, _ = make_table()
    base = t.tuple_addr(5)
    assert t.attr_addr(5, 0) == base
    assert t.attr_addr(5, 1) == base + 4


def test_attr_addr_classifies_as_data():
    t, shm = make_table()
    assert shm.classify(t.attr_addr(10, 1)) == DataClass.DATA


def test_append_returns_rid():
    t, _ = make_table(rows=10)
    rid = t.append([999, "zz"])
    assert rid == 10
    assert t.rows[rid][0] == 999


def test_load_rejects_wrong_arity():
    t, _ = make_table(rows=1)
    with pytest.raises(ValueError):
        t.load([[1, 2, 3]])


def test_oversized_tuple_rejected():
    shm = SharedMemory()
    schema = Schema("fat", [char("blob", 9000)])
    with pytest.raises(ValueError):
        HeapTable(schema, shm, oid=1)


def test_stats_distinct_and_minmax():
    t, _ = make_table(rows=50)
    distinct, lo, hi = t.stats()[0]
    assert distinct == 50 and lo == 0 and hi == 49


def test_stats_invalidate_on_load():
    t, _ = make_table(rows=5)
    t.stats()
    t.append([100, "y"])
    distinct, _, hi = t.stats()[0]
    assert distinct == 6 and hi == 100


def test_data_bytes():
    t, _ = make_table(rows=10)
    assert t.data_bytes() == 10 * t.schema.tuple_size
