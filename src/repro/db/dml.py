"""DML execution: INSERT and DELETE with write datalocks.

The paper traces only the read-only TPC-D queries, noting that "update
queries are much more demanding on the locking algorithm" and that
Postgres95 implements datalocks fully at the relation level only.  This
module implements exactly that: every DML statement takes a relation-level
WRITE datalock (which conflicts with everything), mutates the heap and
every index through the traced paths, and emits the same kinds of memory
events the read paths do -- so update workloads (TPC-D UF1/UF2) can be
simulated alongside queries.
"""

from repro.db.expr import columns_of, compile_expr, op_count
from repro.db.locks import LockMode
from repro.db.sql import DeleteStatement, InsertStatement
from repro.memsim.events import busy, hit, read, write


class DmlError(ValueError):
    """Raised for invalid DML statements."""


def execute_dml(db, stmt, backend):
    """Traced generator: run a DML statement; returns the row count."""
    if isinstance(stmt, InsertStatement):
        return (yield from _insert(db, stmt, backend))
    if isinstance(stmt, DeleteStatement):
        return (yield from _delete(db, stmt, backend))
    raise DmlError(f"not a DML statement: {stmt!r}")


def _table(db, name):
    try:
        return db.tables[name]
    except KeyError:
        raise DmlError(f"unknown table {name!r}") from None


def _matching_rids(db, table, where, backend):
    """Traced generator: rids matching ``where`` (index-assisted if we can).

    Mirrors the read path: an equality on an indexed column probes the
    B-tree; anything else scans the heap sequentially.
    """
    cost = db.cost
    if not where:
        rids = table.live_rids()
        for rid in rids:
            yield hit(cost.stack_refs_scan_tuple)
        return rids

    positions = {c: i for i, c in enumerate(table.schema.names())}
    for c in columns_of(_conj(where)):
        if c not in positions:
            raise DmlError(f"unknown column {c!r} in WHERE")
    pred = compile_expr(_conj(where), positions)

    # Index-assisted path: single equality on an index's leading column.
    from repro.db.expr import Cmp, Col, Const

    for p in where:
        if (isinstance(p, Cmp) and p.op == "=" and isinstance(p.left, Col)
                and isinstance(p.right, Const)):
            for ix in db.table_indexes(table.name):
                if ix.key_cols[0] == p.left.name and len(ix.key_cols) == 1:
                    candidates = yield from ix.search(p.right.value)
                    out = []
                    for rid in candidates:
                        if rid in table.deleted:
                            continue
                        yield hit(cost.stack_refs_fetch)
                        yield read(table.tuple_addr(rid),
                                   table.schema.tuple_size, 1)
                        if pred(table.rows[rid]):
                            out.append(rid)
                    return out

    # Sequential path.
    out = []
    pred_cost = op_count(_conj(where)) * cost.predicate_op
    for rid, row in enumerate(table.rows):
        if rid in table.deleted:
            continue
        yield hit(cost.stack_refs_scan_tuple)
        yield read(table.tuple_addr(rid), table.schema.tuple_size, 1)
        yield busy(pred_cost)
        if pred(row):
            out.append(rid)
    return out


def _conj(preds):
    from repro.db.expr import And

    return preds[0] if len(preds) == 1 else And(tuple(preds))


def _insert(db, stmt, backend):
    table = _table(db, stmt.table)
    ncols = len(table.schema)
    for row in stmt.rows:
        if len(row) != ncols:
            raise DmlError(
                f"{stmt.table}: INSERT row has {len(row)} values, "
                f"schema has {ncols}"
            )
    yield from db.lockmgr.acquire(table.oid, backend.xid, LockMode.WRITE)
    cost = db.cost
    for row in stmt.rows:
        rid = table.append(list(row))
        page, _ = table.page_slot(rid)
        yield from db.bufmgr.pin(page)
        yield hit(cost.stack_refs_fetch)
        yield write(table.tuple_addr(rid), table.schema.tuple_size, 1)
        for ix in db.table_indexes(table.name):
            yield from ix.insert(ix.key_of_row(row), rid)
        yield from db.bufmgr.unpin(page)
    yield from db.lockmgr.release(table.oid, backend.xid)
    return len(stmt.rows)


def _delete(db, stmt, backend):
    table = _table(db, stmt.table)
    yield from db.lockmgr.acquire(table.oid, backend.xid, LockMode.WRITE)
    rids = yield from _matching_rids(db, table, stmt.where, backend)
    cost = db.cost
    for rid in rids:
        page, _ = table.page_slot(rid)
        yield from db.bufmgr.pin(page)
        yield hit(cost.stack_refs_fetch)
        # Tombstone the tuple header.
        yield write(table.tuple_addr(rid), 8, 1)
        row = table.rows[rid]
        for ix in db.table_indexes(table.name):
            yield from ix.delete(ix.key_of_row(row), rid)
        table.delete(rid)
        yield from db.bufmgr.unpin(page)
    yield from db.lockmgr.release(table.oid, backend.xid)
    return len(rids)
