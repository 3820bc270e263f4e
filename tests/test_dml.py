"""DML tests: INSERT / DELETE semantics, locking, and tracing."""

import pytest

from repro.db.dml import DmlError
from repro.db.locks import LockConflictError
from repro.db.sql import SqlError
from repro.db.tracing import collect, drain
from repro.memsim.events import DataClass, EV_LOCK_ACQ, EV_WRITE
from repro.tpcd.updates import uf1_statements, uf2_statements
from tests.conftest import norm_rows


def test_insert_visible_to_queries(toy_db):
    before = toy_db.run("SELECT COUNT(*) AS n FROM ta").rows[0][0]
    count = toy_db.run("INSERT INTO ta VALUES (9001, 7, 'red'), (9002, 8, 'blue')")
    assert count == 2
    after = toy_db.run("SELECT COUNT(*) AS n FROM ta").rows[0][0]
    assert after == before + 2
    got = toy_db.run("SELECT a_val FROM ta WHERE a_key = 9001")
    assert got.rows == [[7]]


def test_insert_updates_indexes(toy_db):
    toy_db.run("INSERT INTO ta VALUES (9100, 3, 'red')")
    ix = toy_db.indexes["ix_a_key"]
    rids = drain(ix.search(9100))
    assert len(rids) == 1
    ix.check_invariants()


def test_insert_wrong_arity_rejected(toy_db):
    with pytest.raises(DmlError):
        toy_db.run("INSERT INTO ta VALUES (1, 2)")


def test_delete_removes_rows_everywhere(toy_db):
    keys = [r[0] for r in toy_db.run("SELECT a_key FROM ta WHERE a_val = 0").rows]
    count = toy_db.run("DELETE FROM ta WHERE a_val = 0")
    assert count == len(keys)
    assert toy_db.run("SELECT a_key FROM ta WHERE a_val = 0").rows == []
    # Index agrees.
    for key in keys:
        assert drain(toy_db.indexes["ix_a_key"].search(key)) == []
    # Reference evaluator agrees.
    assert toy_db.run_reference("SELECT a_key FROM ta WHERE a_val = 0") == []


def test_delete_via_index_path(toy_db):
    count = toy_db.run("DELETE FROM ta WHERE a_key = 5")
    assert count == 1
    assert toy_db.run("SELECT a_key FROM ta WHERE a_key = 5").rows == []


def test_delete_everything(toy_db):
    assert toy_db.run("DELETE FROM tb") == 600
    assert toy_db.tables["tb"].n_rows == 0
    assert toy_db.run("SELECT COUNT(*) AS n FROM tb").rows == [[0]]


def test_update_statement_rejected(toy_db):
    """Only INSERT and DELETE are DML here (UF1/UF2 need no more)."""
    with pytest.raises(SqlError):
        toy_db.run("UPDATE ta SET a_val = 1")


def test_dml_emits_data_writes_and_write_lock(toy_db):
    backend = toy_db.backend(0)
    events, count = collect(
        toy_db.execute("DELETE FROM ta WHERE a_key = 10", backend)
    )
    assert count == 1
    assert any(e[0] == EV_LOCK_ACQ for e in events)
    data_writes = [e for e in events
                   if e[0] == EV_WRITE and e[3] == DataClass.DATA]
    assert data_writes


def test_write_lock_conflicts_with_readers(toy_db):
    """Relation-level WRITE datalocks conflict with concurrent readers --
    the limitation the paper points out for update queries."""
    from repro.db.locks import LockMode

    reader = toy_db.backend(0)
    writer = toy_db.backend(1)
    oid = toy_db.tables["ta"].oid
    drain(toy_db.lockmgr.acquire(oid, reader.xid, LockMode.READ))
    with pytest.raises(LockConflictError):
        drain(toy_db.execute("DELETE FROM ta WHERE a_key = 1", writer))
    drain(toy_db.lockmgr.release(oid, reader.xid))


def test_locks_released_after_dml(toy_db):
    backend = toy_db.backend(2)
    drain(toy_db.execute("INSERT INTO ta VALUES (9500, 1, 'x')", backend))
    assert toy_db.lockmgr.holders(toy_db.tables["ta"].oid) == {}


def test_select_after_mixed_dml_matches_reference(toy_db):
    toy_db.run("INSERT INTO ta VALUES (9600, 5, 'red')")
    toy_db.run("DELETE FROM ta WHERE a_val = 1")
    sql = "SELECT a_key, a_val, a_tag FROM ta WHERE a_val < 6"
    assert norm_rows(toy_db.run(sql).rows) == \
        norm_rows(toy_db.run_reference(sql))


def test_uf1_inserts_orders_and_lineitems(tiny_db):
    # tiny_db is session-scoped; use private keys far above the existing
    # range so other tests are unaffected, then roll back by deleting.
    before_orders = tiny_db.tables["orders"].n_rows
    before_items = tiny_db.tables["lineitem"].n_rows
    stmts = uf1_statements(tiny_db, batch=3, seed=1)
    for sql in stmts:
        tiny_db.run(sql)
    assert tiny_db.tables["orders"].n_rows == before_orders + 3
    assert tiny_db.tables["lineitem"].n_rows > before_items
    # Roll back via UF2-style deletes of the inserted keys.
    for key in range(before_orders + 1, before_orders + 4):
        tiny_db.run(f"DELETE FROM lineitem WHERE l_orderkey = {key}")
        tiny_db.run(f"DELETE FROM orders WHERE o_orderkey = {key}")
    assert tiny_db.tables["orders"].n_rows == before_orders
    assert tiny_db.tables["lineitem"].n_rows == before_items


def test_uf2_deletes_orders(toy_db):
    pass  # covered by the tiny_db rollback above; toy_db has no orders


def test_uf2_statement_shape(tiny_db):
    stmts = uf2_statements(tiny_db, batch=2, seed=5)
    assert len(stmts) == 4
    assert stmts[0].startswith("DELETE FROM lineitem")
    assert stmts[1].startswith("DELETE FROM orders")
