"""Unit and property tests for the page-based B+-tree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.btree import BTreeIndex, NODE_CAPACITY
from repro.db.cost import CostModel
from repro.db.datatypes import Schema, int4
from repro.db.shmem import SharedMemory
from repro.db.table import HeapTable
from repro.db.tracing import collect, drain
from repro.memsim.events import DataClass, EV_READ


def make_index(values, key_cols=("a",)):
    shm = SharedMemory(max_pages=4096)
    schema = Schema("t", [int4("a"), int4("b")])
    table = HeapTable(schema, shm, oid=1)
    table.load([[v, i] for i, v in enumerate(values)])
    ix = BTreeIndex("ix", table, list(key_cols), shm, CostModel())
    ix.bulk_build()
    return ix, table, shm


def scan_rids(gen):
    return [item for item in gen if type(item) is not tuple]


def test_bulk_build_invariants():
    ix, _, _ = make_index(list(range(2000)))
    ix.check_invariants()
    assert ix.n_entries == 2000
    assert ix.height >= 2


def test_empty_index():
    ix, _, _ = make_index([])
    ix.check_invariants()
    assert drain(ix.search(5)) == []
    assert scan_rids(ix.scan_range()) == []


def test_search_exact():
    ix, _, _ = make_index([10, 20, 20, 30])
    assert sorted(drain(ix.search(20))) == [1, 2]
    assert drain(ix.search(15)) == []


def test_search_accepts_scalar_and_tuple_keys():
    ix, _, _ = make_index([1, 2, 3])
    assert drain(ix.search(2)) == drain(ix.search((2,)))


def test_range_scan_inclusive_exclusive():
    values = list(range(100))
    ix, _, _ = make_index(values)
    assert scan_rids(ix.scan_range(10, 20)) == list(range(10, 21))
    assert scan_rids(ix.scan_range(10, 20, lo_incl=False)) == list(range(11, 21))
    assert scan_rids(ix.scan_range(10, 20, hi_incl=False)) == list(range(10, 20))


def test_range_scan_open_bounds():
    ix, _, _ = make_index(list(range(50)))
    assert scan_rids(ix.scan_range(lo=45)) == list(range(45, 50))
    assert scan_rids(ix.scan_range(hi=4)) == list(range(5))
    assert len(scan_rids(ix.scan_range())) == 50


def test_full_scan_returns_key_order():
    vals = [5, 3, 9, 1, 7]
    ix, table, _ = make_index(vals)
    rids = scan_rids(ix.scan_range())
    keys = [table.rows[r][0] for r in rids]
    assert keys == sorted(vals)


def test_composite_key_prefix_search():
    shm = SharedMemory()
    schema = Schema("t", [int4("a"), int4("b")])
    table = HeapTable(schema, shm, oid=1)
    table.load([[i % 10, i] for i in range(100)])
    ix = BTreeIndex("ix", table, ["a", "b"], shm, CostModel())
    ix.bulk_build()
    got = sorted(drain(ix.search((3,))))
    want = sorted(r for r in range(100) if r % 10 == 3)
    assert got == want
    assert drain(ix.search((3, 13))) == [13]


def test_duplicates_spanning_leaves():
    # One value repeated past node capacity forces duplicate runs across
    # leaf boundaries.
    values = [7] * (NODE_CAPACITY + 50) + [8] * 10
    ix, _, _ = make_index(values)
    assert len(drain(ix.search(7))) == NODE_CAPACITY + 50
    assert len(drain(ix.search(8))) == 10


def test_insert_then_search():
    ix, table, _ = make_index(list(range(100)))
    rid = table.append([1000, 0])
    drain(ix.insert((1000,), rid))
    assert drain(ix.search(1000)) == [rid]
    ix.check_invariants()


def test_insert_below_minimum_updates_fences():
    ix, table, _ = make_index(list(range(10, 1000)))
    rid = table.append([1, 0])
    drain(ix.insert((1,), rid))
    ix.check_invariants()
    assert drain(ix.search(1)) == [rid]


def test_insert_splits_to_new_root():
    ix, table, _ = make_index([0])
    for i in range(1, NODE_CAPACITY + 2):
        rid = table.append([i, i])
        drain(ix.insert((i,), rid))
    assert ix.height >= 2
    ix.check_invariants()


def test_insert_rejects_wrong_arity():
    ix, _, _ = make_index([1, 2])
    with pytest.raises(ValueError):
        drain(ix.insert((1, 2), 0))


def test_delete_specific_entry():
    ix, _, _ = make_index([5, 5, 5])
    assert drain(ix.delete((5,), 1)) is True
    assert sorted(drain(ix.search(5))) == [0, 2]
    assert drain(ix.delete((5,), 99)) is False
    ix.check_invariants()


def test_events_are_index_class():
    ix, _, shm = make_index(list(range(500)))
    events, _ = collect(ix.search(250))
    reads = [e for e in events if e[0] == EV_READ]
    assert reads, "search must emit index reads"
    for e in reads:
        assert e[3] == DataClass.INDEX
        assert shm.classify(e[1]) == DataClass.INDEX


def test_repeated_descent_rereads_top_levels():
    """Temporal locality on upper levels: distinct searches share node
    addresses near the root (the effect the paper measures on indices)."""
    ix, _, _ = make_index(list(range(5000)))
    ev1, _ = collect(ix.search(100))
    ev2, _ = collect(ix.search(4900))
    addrs1 = {e[1] >> 13 for e in ev1 if e[0] == EV_READ}
    addrs2 = {e[1] >> 13 for e in ev2 if e[0] == EV_READ}
    assert addrs1 & addrs2  # shared pages: the root at least


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 200), min_size=0, max_size=400),
       st.lists(st.integers(0, 200), min_size=0, max_size=50))
def test_btree_matches_sorted_reference(initial, inserts):
    """Property: search/scan agree with a brute-force reference."""
    ix, table, _ = make_index(initial)
    for v in inserts:
        rid = table.append([v, 0])
        drain(ix.insert((v,), rid))
    ix.check_invariants()
    rows = table.rows
    for probe in set(initial[:5] + inserts[:5] + [0, 100, 200]):
        got = sorted(drain(ix.search(probe)))
        want = sorted(r for r, row in enumerate(rows) if row[0] == probe)
        assert got == want
    got = sorted(scan_rids(ix.scan_range(50, 150)))
    want = sorted(r for r, row in enumerate(rows) if 50 <= row[0] <= 150)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=100),
       st.data())
def test_btree_delete_property(values, data):
    """Property: deleting an entry removes exactly that (key, rid)."""
    ix, table, _ = make_index(values)
    rid = data.draw(st.integers(0, len(values) - 1))
    key = table.rows[rid][0]
    assert drain(ix.delete((key,), rid)) is True
    assert rid not in drain(ix.search(key))
    assert ix.n_entries == len(values) - 1
    ix.check_invariants()
