"""Executor tests: every operator's results against the reference, and the
event-stream contracts the simulation relies on."""

from repro.db.executor import sort_rows
from repro.db.tracing import drain
from repro.memsim.events import (
    DataClass, EV_BUSY, EV_HIT, EV_LOCK_ACQ, EV_READ, EV_WRITE,
)
from tests.conftest import norm_rows


def check(db, sql, hints=None):
    got = db.run(sql, hints=hints)
    want = db.run_reference(sql)
    assert norm_rows(got.rows) == norm_rows(want), sql
    return got


def test_seq_scan_filter(toy_db):
    got = check(toy_db, "SELECT a_key, a_val FROM ta WHERE a_val < 10")
    assert len(got.rows) > 0


def test_seq_scan_no_filter(toy_db):
    got = check(toy_db, "SELECT a_key FROM ta")
    assert len(got.rows) == 200


def test_index_scan_equality(toy_db):
    check(toy_db, "SELECT a_val FROM ta WHERE a_key = 17")


def test_index_scan_range(toy_db):
    check(toy_db, "SELECT a_key FROM ta WHERE a_val BETWEEN 2 AND 4")


def test_index_scan_with_residual(toy_db):
    check(toy_db, "SELECT a_key FROM ta WHERE a_val BETWEEN 2 AND 4 "
                  "AND a_tag = 'red'")


def test_nestloop_join(toy_db):
    check(toy_db, "SELECT a_tag, b_amt FROM ta, tb "
                  "WHERE a_key = b_key AND a_val < 8")


def test_hash_join(toy_db):
    check(toy_db,
          "SELECT a_tag, b_amt FROM ta, tb WHERE a_key = b_key AND a_val < 8",
          hints={"tb": "hash"})


def test_merge_join(toy_db):
    check(toy_db,
          "SELECT a_tag, b_amt FROM ta, tb WHERE a_key = b_key AND a_val < 8",
          hints={"tb": "merge"})


def test_all_join_algorithms_agree(toy_db):
    sql = "SELECT a_key, b_amt FROM ta, tb WHERE a_key = b_key AND a_val < 15"
    nl = toy_db.run(sql)
    h = toy_db.run(sql, hints={"tb": "hash"})
    m = toy_db.run(sql, hints={"tb": "merge"})
    assert norm_rows(nl.rows) == norm_rows(h.rows) == norm_rows(m.rows)


def test_group_aggregates(toy_db):
    check(toy_db, "SELECT a_tag, SUM(a_val) AS s, COUNT(*) AS n, "
                  "AVG(a_val) AS av, MIN(a_val) AS lo, MAX(a_val) AS hi "
                  "FROM ta GROUP BY a_tag")


def test_group_without_aggregates_deduplicates(toy_db):
    got = check(toy_db, "SELECT a_tag FROM ta GROUP BY a_tag")
    assert len(got.rows) == 3


def test_ungrouped_aggregate_single_row(toy_db):
    got = check(toy_db, "SELECT SUM(b_amt) AS total, COUNT(*) AS n FROM tb")
    assert len(got.rows) == 1


def test_aggregate_over_empty_input(toy_db):
    got = toy_db.run("SELECT COUNT(*) AS n, SUM(a_val) AS s FROM ta "
                     "WHERE a_val > 9999")
    assert got.rows == [[0, None]]


def test_order_by_multiple_keys(toy_db):
    got = toy_db.run("SELECT a_val, a_key FROM ta WHERE a_val < 6 "
                     "ORDER BY a_val DESC, a_key")
    vals = [r[0] for r in got.rows]
    assert vals == sorted(vals, reverse=True)
    # Within equal a_val, a_key ascending.
    for i in range(len(got.rows) - 1):
        if got.rows[i][0] == got.rows[i + 1][0]:
            assert got.rows[i][1] < got.rows[i + 1][1]


def test_projection_expressions(toy_db):
    check(toy_db, "SELECT a_key * 2 + 1 AS twice FROM ta WHERE a_val < 4")


def test_aggregate_expression_rewrite(toy_db):
    check(toy_db, "SELECT a_tag, SUM(a_val * 2) + 1 AS s FROM ta "
                  "WHERE a_val < 20 GROUP BY a_tag")


def test_join_filter_applied(toy_db):
    # Second equi-pred becomes a join filter.
    check(toy_db, "SELECT b_amt FROM ta, tb WHERE a_key = b_key "
                  "AND a_val = b_key AND a_tag = 'red'")


def test_sort_rows_stability():
    rows = [[1, "b"], [0, "a"], [1, "a"], [0, "b"]]
    sort_rows(rows, [(0, True), (1, False)])
    assert rows == [[0, "b"], [0, "a"], [1, "b"], [1, "a"]]


def test_event_stream_contract(toy_db):
    """Executor generators yield only event tuples; rows are collected."""
    backend = toy_db.backend(0)
    gen = toy_db.execute("SELECT a_key FROM ta WHERE a_val < 5", backend)
    kinds = set()
    try:
        while True:
            ev = next(gen)
            assert type(ev) is tuple
            kinds.add(ev[0])
    except StopIteration as stop:
        rows = stop.value
    assert rows
    assert {EV_READ, EV_WRITE, EV_BUSY, EV_HIT, EV_LOCK_ACQ} <= kinds


def test_events_classify_consistently(toy_db):
    """Every shared-address event carries the class of its region."""
    from repro.db.tracing import collect

    backend = toy_db.backend(1)
    events, _ = collect(
        toy_db.execute("SELECT a_tag, b_amt FROM ta, tb "
                       "WHERE a_key = b_key AND a_val < 5", backend)
    )
    shm = toy_db.shmem
    checked = 0
    for e in events:
        if e[0] in (EV_READ, EV_WRITE):
            assert shm.classify(e[1]) == e[3], e
            checked += 1
    assert checked > 100


def test_private_events_target_backend_region(toy_db):
    from repro.db.tracing import collect

    backend = toy_db.backend(2)
    events, _ = collect(
        toy_db.execute("SELECT a_key FROM ta WHERE a_val < 5", backend)
    )
    for e in events:
        if e[0] in (EV_READ, EV_WRITE) and e[3] == DataClass.PRIV:
            assert backend.priv.base <= e[1] < backend.priv.base + 0x0800_0000


def test_locks_released_at_end(toy_db):
    backend = toy_db.backend(3)
    drain(toy_db.execute("SELECT a_key FROM ta WHERE a_val < 3", backend))
    assert toy_db.lockmgr.holders(toy_db.tables["ta"].oid) == {}


def test_buffers_unpinned_at_end(toy_db):
    backend = toy_db.backend(0)
    drain(toy_db.execute("SELECT a_key FROM ta", backend))
    assert all(v == 0 for v in toy_db.bufmgr.pin_counts.values())
