"""Tests for the TPC-D population generator, schemas, and scale presets."""

import pytest

from repro.db.datatypes import date_to_num
from repro.tpcd.dbgen import END_DATE, START_DATE, populate, table_cardinalities
from repro.tpcd.scales import SCALES, get_scale
from repro.tpcd.schema import INDEX_DEFS, SEGMENTS, SHIPMODES, TABLE_SCHEMAS


def test_cardinalities_scale_linearly():
    c1 = table_cardinalities(0.01)
    c2 = table_cardinalities(0.001)
    assert c1["orders"] == 15000 and c2["orders"] == 1500
    assert c1["region"] == 5 and c1["nation"] == 25
    assert c2["region"] == 5


def test_populate_is_deterministic():
    a = populate(sf=0.0005, seed=7)
    b = populate(sf=0.0005, seed=7)
    assert a["lineitem"] == b["lineitem"]
    c = populate(sf=0.0005, seed=8)
    assert a["lineitem"] != c["lineitem"]


def test_row_arities_match_schemas():
    data = populate(sf=0.0005, seed=1)
    for name, rows in data.items():
        width = len(TABLE_SCHEMAS[name])
        assert all(len(r) == width for r in rows), name


def test_lineitem_value_ranges():
    data = populate(sf=0.0005, seed=1)
    li = TABLE_SCHEMAS["lineitem"]
    qty = li.column_index("l_quantity")
    disc = li.column_index("l_discount")
    ship = li.column_index("l_shipdate")
    commit = li.column_index("l_commitdate")
    receipt = li.column_index("l_receiptdate")
    mode = li.column_index("l_shipmode")
    for row in data["lineitem"]:
        assert 1 <= row[qty] <= 50
        assert 0.0 <= row[disc] <= 0.10
        assert START_DATE < row[ship] < END_DATE + 160
        assert row[receipt] > row[ship]
        assert row[commit] > START_DATE
        assert row[mode] in SHIPMODES


def test_orders_reference_valid_customers():
    data = populate(sf=0.0005, seed=1)
    n_cust = len(data["customer"])
    ck = TABLE_SCHEMAS["orders"].column_index("o_custkey")
    assert all(1 <= row[ck] <= n_cust for row in data["orders"])


def test_lineitems_reference_valid_orders():
    data = populate(sf=0.0005, seed=1)
    n_orders = len(data["orders"])
    ok = TABLE_SCHEMAS["lineitem"].column_index("l_orderkey")
    assert all(1 <= row[ok] <= n_orders for row in data["lineitem"])


def test_customer_segments_cover_all_five():
    data = populate(sf=0.001, seed=1)
    seg = TABLE_SCHEMAS["customer"].column_index("c_mktsegment")
    assert {row[seg] for row in data["customer"]} == set(SEGMENTS)


def test_orderdates_span_business_period():
    data = populate(sf=0.001, seed=1)
    od = TABLE_SCHEMAS["orders"].column_index("o_orderdate")
    dates = [row[od] for row in data["orders"]]
    assert min(dates) < date_to_num("1992-06-01")
    assert max(dates) > date_to_num("1997-06-01")


def test_index_defs_reference_real_columns():
    for name, table, cols in INDEX_DEFS:
        schema = TABLE_SCHEMAS[table]
        for c in cols:
            assert c in schema, (name, c)


def test_no_index_on_date_columns():
    """The paper's index set has no date indices -- that is what makes
    Q1/Q4/Q6/Q12 sequential queries."""
    date_cols = {"o_orderdate", "l_shipdate", "l_commitdate", "l_receiptdate"}
    for _, _, cols in INDEX_DEFS:
        assert not (set(cols) & date_cols)


def test_column_names_globally_unique():
    seen = set()
    for schema in TABLE_SCHEMAS.values():
        for c in schema.names():
            assert c not in seen, c
            seen.add(c)


def test_scales_consistent():
    for name, sc in SCALES.items():
        assert sc.name == name
        cfg = sc.machine_config()
        assert cfg.l1_size == sc.l1_size and cfg.l2_size == sc.l2_size
        huge = sc.huge_machine_config()
        assert huge.l1_size == sc.l1_size * sc.huge_factor


def test_scale_machine_config_overrides():
    cfg = get_scale("small").machine_config(l2_line=128, l1_line=64)
    assert cfg.l2_line == 128 and cfg.l1_line == 64


def test_get_scale_passthrough_and_errors():
    sc = get_scale("tiny")
    assert get_scale(sc) is sc
    with pytest.raises(KeyError):
        get_scale("enormous")


def test_db_size_tracks_scale(tiny_db, small_db):
    tiny_total = sum(v["bytes"] for v in tiny_db.size_report().values())
    small_total = sum(v["bytes"] for v in small_db.size_report().values())
    assert small_total > 3 * tiny_total


def test_lineitem_dominates_database(small_db):
    """The paper: lineitem is ~70% of the database data."""
    report = small_db.size_report()
    total = sum(v["bytes"] for v in report.values())
    assert report["lineitem"]["bytes"] / total > 0.55
