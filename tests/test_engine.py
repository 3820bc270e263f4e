"""Tests for the Database facade and Backend management."""

import pytest

from repro.db.datatypes import Schema, int4
from repro.db.engine import Database, QueryResult
from tests.conftest import norm_rows


def test_create_table_assigns_oids(toy_db):
    oids = {t.oid for t in toy_db.tables.values()}
    assert len(oids) == len(toy_db.tables)


def test_duplicate_table_rejected(toy_db):
    with pytest.raises(ValueError):
        toy_db.create_table(Schema("ta", [int4("zz")]))


def test_duplicate_index_rejected(toy_db):
    with pytest.raises(ValueError):
        toy_db.create_index("ix_a_key", "ta", ["a_key"])


def test_table_indexes_listing(toy_db):
    names = {ix.name for ix in toy_db.table_indexes("ta")}
    assert names == {"ix_a_key", "ix_a_val"}


def test_load_rebuilds_indexes(toy_db):
    from repro.db.tracing import drain

    toy_db.load("ta", [[5000, 7, "red"]])
    ix = toy_db.indexes["ix_a_key"]
    rid = toy_db.tables["ta"].n_rows - 1
    assert drain(ix.search(5000)) == [rid]


def test_run_returns_query_result(toy_db):
    res = toy_db.run("SELECT a_key, a_val FROM ta WHERE a_val < 3")
    assert isinstance(res, QueryResult)
    assert res.columns == ["a_key", "a_val"]
    assert all(len(row) == 2 for row in res.rows)


def test_run_accepts_prebuilt_plan(toy_db):
    plan = toy_db.plan("SELECT a_key FROM ta WHERE a_val < 3")
    res = toy_db.run(plan)
    want = toy_db.run("SELECT a_key FROM ta WHERE a_val < 3")
    assert norm_rows(res.rows) == norm_rows(want.rows)


def test_backends_get_distinct_private_regions(toy_db):
    b0 = toy_db.backend(0)
    b1 = toy_db.backend(1)
    assert b0.priv.base != b1.priv.base
    assert b0.xid != b1.xid


def test_operator_set_api(toy_db):
    ops = toy_db.operator_set("SELECT SUM(a_val) AS s FROM ta")
    assert ops == {"SS", "Aggr"}


def test_run_reference_rejects_non_select(toy_db):
    with pytest.raises(TypeError):
        toy_db.run_reference(42)


def test_size_report_shape(toy_db):
    rep = toy_db.size_report()
    assert set(rep) == {"ta", "tb"}
    assert rep["ta"]["rows"] >= 200
    assert rep["ta"]["bytes"] > 0


def test_consecutive_queries_on_one_backend(toy_db):
    """A backend can run many queries; heap reuse keeps addresses stable."""
    from repro.db.tracing import drain

    backend = toy_db.backend(0)
    first_alloc = backend.priv._bump
    for _ in range(3):
        drain(toy_db.execute("SELECT a_key FROM ta WHERE a_val < 2", backend))
        backend.priv.reset_heap()
        assert backend.priv._bump == first_alloc


def test_fresh_database_is_empty():
    db = Database()
    assert db.tables == {} and db.indexes == {}
