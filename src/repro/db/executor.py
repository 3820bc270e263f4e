"""Iterator-model executor: plan trees become event-emitting pipelines.

Every operator is a generator that yields a mix of *events* (tuples; memory
references and busy cycles, see :mod:`repro.memsim.events`) and *rows*
(Python lists).  Parents forward their children's events upward and consume
the rows, so a whole query execution is one generator whose events drive
the machine simulator while it computes the query's actual answer.

Private-memory modeling: each operator owns a fixed output slot that it
rewrites for every emitted row (the reuse the paper observes in private
data), plus a small state block touched per tuple.  Materializing operators
(Sort, HashJoin build, MergeJoin caching) write into per-query private
blocks or the rotating arena, which is what gives private data its large
primary-cache footprint.  Intermediate rows are laid out at 8 bytes per
column.
"""

import math
import zlib

from repro.db.expr import columns_of, compile_expr, op_count
from repro.db.plan import (
    Aggregate, Group, HashJoin, IndexScan, MergeJoin, NestLoop, Param,
    Project, SeqScan, Sort,
)
from repro.memsim.events import busy, hit, read, write

COL_BYTES = 8
_SENTINEL = object()


def _stable_hash(key):
    """Process-independent hash for simulated hash-table addressing.

    ``hash(str)`` is randomized per interpreter, which would make the
    simulated probe addresses (and so the whole miss profile) differ from
    run to run and between sweep worker processes.  Numbers already hash
    deterministically.
    """
    if isinstance(key, str):
        return zlib.crc32(key.encode())
    return hash(key)


class ExecError(RuntimeError):
    """Raised when a plan cannot be executed."""


def sort_rows(rows, key_specs):
    """Stable multi-key sort of ``rows``.

    ``key_specs`` is a list of ``(position, ascending)``.  Uses repeated
    stable sorts from the least-significant key, so mixed-direction,
    mixed-type keys work without comparator tricks.
    """
    for pos, asc in reversed(key_specs):
        rows.sort(key=lambda r: r[pos], reverse=not asc)
    return rows


def _agg_init(func):
    if func == "COUNT":
        return 0
    if func == "SUM":
        return None
    if func == "AVG":
        return (0.0, 0)
    return None  # MIN / MAX


def _agg_step(func, acc, value):
    if func == "COUNT":
        return acc + 1
    if func == "SUM":
        return value if acc is None else acc + value
    if func == "AVG":
        return (acc[0] + value, acc[1] + 1)
    if func == "MIN":
        return value if acc is None or value < acc else acc
    if func == "MAX":
        return value if acc is None or value > acc else acc
    raise ExecError(f"unknown aggregate {func!r}")


def _agg_final(func, acc):
    if func == "AVG":
        return acc[0] / acc[1] if acc[1] else None
    return acc


class _Op:
    """Base operator: owns an output slot and a state block."""

    def __init__(self, node, ex):
        self.node = node
        self.ex = ex
        self.output = node.output
        self.positions = {c: i for i, c in enumerate(node.output)}
        self.width = max(COL_BYTES * len(node.output), COL_BYTES)
        self.slot_addr = ex.backend.priv.alloc(self.width)
        self.state_addr = ex.backend.priv.alloc(64)
        self.cost = ex.db.cost
        # Small scattered heap objects this operator touches per tuple
        # (plan-node state, expression nodes, list cells).
        priv = ex.backend.priv
        self.hot_fields = [priv.hot_alloc() for _ in range(16)]
        self._hot_pos = 0

    def _touch_hot(self):
        """Events for one tuple's worth of scattered heap-object traffic."""
        hf = self.hot_fields
        i = self._hot_pos
        self._hot_pos = (i + 1) % 16
        return (
            read(hf[i], 8, 0),
            read(hf[(i + 5) % 16], 8, 0),
            read(hf[(i + 11) % 16], 8, 0),
            write(hf[(i + 7) % 16], 8, 0),
        )


class SeqScanOp(_Op):
    """Sequential Scan select: visit every tuple of the table in order."""

    def __init__(self, node, ex):
        super().__init__(node, ex)
        self.table = ex.db.tables[node.table]
        schema = self.table.schema
        base_positions = {c: i for i, c in enumerate(schema.names())}
        self.pred = compile_expr(node.pred, base_positions) if node.pred else None
        self.pred_cost = op_count(node.pred) * self.cost.predicate_op if node.pred else 0
        pred_cols = sorted(columns_of(node.pred)) if node.pred else []
        self.pred_idxs = [schema.column_index(c) for c in pred_cols]
        out_idxs = [schema.column_index(c) for c in node.output]
        self.extra_idxs = [i for i in out_idxs if i not in set(self.pred_idxs)]
        self.out_idxs = out_idxs

    def run(self):
        table = self.table
        cost = self.cost
        rows = table.rows
        widths = [c.width for c in table.schema.columns]
        state = self.state_addr
        slot = self.slot_addr
        pred = self.pred
        tpp = table.tuples_per_page
        bufmgr = self.ex.db.bufmgr
        priv = self.ex.backend.priv
        scratch_bytes = cost.scratch_bytes
        deleted = table.deleted
        n = len(rows)
        pages = table.pages
        rid = 0
        for page in pages:
            yield from bufmgr.pin(page)
            last = min(rid + tpp, n)
            while rid < last:
                if rid in deleted:
                    rid += 1
                    continue
                row = rows[rid]
                yield hit(cost.stack_refs_scan_tuple)
                yield read(state, 8, 0)
                yield busy(cost.tuple_overhead)
                # Per-tuple palloc churn: deform the tuple into a fresh
                # private scratch block, then read it back for evaluation.
                scratch = priv.arena_alloc(scratch_bytes)
                yield write(scratch, scratch_bytes, 0)
                yield read(scratch, 16, 0)
                for ev in self._touch_hot():
                    yield ev
                for i in self.pred_idxs:
                    yield read(table.attr_addr(rid, i), widths[i], 1)
                if pred is not None:
                    yield busy(self.pred_cost)
                    yield write(state + 8, 8, 0)
                    ok = pred(row)
                else:
                    ok = True
                if ok:
                    for i in self.extra_idxs:
                        yield read(table.attr_addr(rid, i), widths[i], 1)
                    yield write(slot, self.width, 0)
                    yield busy(cost.emit_row)
                    yield [row[i] for i in self.out_idxs]
                rid += 1
            yield from bufmgr.unpin(page)


class IndexScanOp(_Op):
    """Index Scan select: B-tree probe, then per-rid heap fetches.

    May be parameterized: :class:`Param` entries in ``eq_values`` are bound
    per rescan by the enclosing join, and every rescan performs a
    lock-manager check -- the source of the paper's LockSLock traffic.
    """

    def __init__(self, node, ex):
        super().__init__(node, ex)
        self.table = ex.db.tables[node.table]
        self.index = ex.db.indexes[node.index]
        schema = self.table.schema
        base_positions = {c: i for i, c in enumerate(schema.names())}
        self.pred = compile_expr(node.pred, base_positions) if node.pred else None
        self.pred_cost = op_count(node.pred) * self.cost.predicate_op if node.pred else 0
        pred_cols = sorted(columns_of(node.pred)) if node.pred else []
        self.pred_idxs = [schema.column_index(c) for c in pred_cols]
        out_idxs = [schema.column_index(c) for c in node.output]
        self.extra_idxs = [i for i in out_idxs if i not in set(self.pred_idxs)]
        self.out_idxs = out_idxs
        self.widths = [c.width for c in schema.columns]

    def _bind_key(self, param):
        key = []
        for v in self.node.eq_values:
            if isinstance(v, Param):
                if param is _SENTINEL:
                    raise ExecError(
                        f"index scan on {self.node.table} needs a parameter"
                    )
                key.append(param)
            else:
                key.append(v.value if hasattr(v, "value") else v)
        return tuple(key)

    def run(self, param=_SENTINEL):
        node = self.node
        db = self.ex.db
        yield hit(self.cost.stack_refs_probe)
        if db.lock_check_per_rescan:
            yield from db.lockmgr.check(self.table.oid, self.ex.backend.xid)
        eq = self._bind_key(param)
        if node.lo is None and node.hi is None:
            if eq:
                rids = yield from self.index.search(eq)
            else:
                rids = None  # full-order scan, streamed below
        else:
            rids = None
        if rids is not None:
            for rid in rids:
                yield from self._fetch(rid)
            return
        lo = eq + (node.lo,) if node.lo is not None else (eq or None)
        hi = eq + (node.hi,) if node.hi is not None else (eq or None)
        scan = self.index.scan_range(
            lo=lo, hi=hi, lo_incl=node.lo_incl, hi_incl=node.hi_incl, prefix=True
        )
        for item in scan:
            if type(item) is tuple:
                yield item
            else:
                yield from self._fetch(item)

    def _fetch(self, rid):
        table = self.table
        if rid in table.deleted:
            return
        cost = self.cost
        page, _ = table.page_slot(rid)
        yield from self.ex.db.bufmgr.pin(page)
        yield hit(cost.stack_refs_fetch)
        yield read(self.state_addr, 8, 0)
        yield busy(cost.tuple_overhead)
        scratch = self.ex.backend.priv.arena_alloc(cost.scratch_bytes)
        yield write(scratch, cost.scratch_bytes, 0)
        yield read(scratch, 16, 0)
        for ev in self._touch_hot():
            yield ev
        row = table.rows[rid]
        for i in self.pred_idxs:
            yield read(table.attr_addr(rid, i), self.widths[i], 1)
        ok = True
        if self.pred is not None:
            yield busy(self.pred_cost)
            yield write(self.state_addr + 8, 8, 0)
            ok = self.pred(row)
        if ok:
            for i in self.extra_idxs:
                yield read(table.attr_addr(rid, i), self.widths[i], 1)
            yield write(self.slot_addr, self.width, 0)
            yield busy(cost.emit_row)
            yield [row[i] for i in self.out_idxs]
        yield from self.ex.db.bufmgr.unpin(page)


class NestLoopOp(_Op):
    """Nested Loop join driving a parameterized inner index scan."""

    def __init__(self, node, ex):
        super().__init__(node, ex)
        self.outer = ex.build(node.outer)
        self.inner = ex.build(node.inner)
        params = [v for v in node.inner.eq_values if isinstance(v, Param)]
        if len(params) != 1:
            raise ExecError("NestLoop inner must take exactly one parameter")
        self.param_idx = self.outer.positions[params[0].outer_col]
        self.filter = (
            compile_expr(node.filter, self.positions) if node.filter else None
        )

    def run(self):
        cost = self.cost
        outer = self.outer
        inner = self.inner
        for item in outer.run():
            if type(item) is not list:
                yield item
                continue
            orow = item
            yield hit(cost.stack_refs_row)
            yield busy(cost.join_overhead)
            for inner_item in inner.run(orow[self.param_idx]):
                if type(inner_item) is not list:
                    yield inner_item
                    continue
                yield read(outer.slot_addr, outer.width, 0)
                yield read(inner.slot_addr, inner.width, 0)
                yield busy(cost.join_overhead)
                combined = orow + inner_item
                if self.filter is not None and not self.filter(combined):
                    continue
                yield write(self.slot_addr, self.width, 0)
                yield combined


class MergeJoinOp(_Op):
    """Merge join over a sorted outer; inner index probed per distinct key.

    Inner match sets are cached in the arena so duplicate outer keys reuse
    them, matching the "selected tuples are joined one by one" discipline
    the paper describes for Q12.
    """

    def __init__(self, node, ex):
        super().__init__(node, ex)
        self.outer = ex.build(node.outer)
        self.inner = ex.build(node.inner)
        self.key_idx = self.outer.positions[node.outer_key]
        self.filter = (
            compile_expr(node.filter, self.positions) if node.filter else None
        )

    def run(self):
        cost = self.cost
        outer = self.outer
        inner = self.inner
        priv = self.ex.backend.priv
        last_key = _SENTINEL
        cached = []
        cached_addrs = []
        for item in outer.run():
            if type(item) is not list:
                yield item
                continue
            orow = item
            yield hit(cost.stack_refs_row)
            key = orow[self.key_idx]
            if key != last_key:
                last_key = key
                cached = []
                cached_addrs = []
                for inner_item in inner.run(key):
                    if type(inner_item) is not list:
                        yield inner_item
                        continue
                    addr = priv.arena_alloc(inner.width)
                    yield read(inner.slot_addr, inner.width, 0)
                    yield write(addr, inner.width, 0)
                    cached.append(inner_item)
                    cached_addrs.append(addr)
            yield busy(cost.join_overhead)
            for irow, addr in zip(cached, cached_addrs):
                yield read(outer.slot_addr, outer.width, 0)
                yield read(addr, inner.width, 0)
                yield busy(cost.join_overhead)
                combined = orow + irow
                if self.filter is not None and not self.filter(combined):
                    continue
                yield write(self.slot_addr, self.width, 0)
                yield combined


class HashJoinOp(_Op):
    """Hash join: build a private hash table on the inner input, probe
    with the outer."""

    def __init__(self, node, ex):
        super().__init__(node, ex)
        self.outer = ex.build(node.outer)
        self.inner = ex.build(node.inner)
        self.outer_key_idx = self.outer.positions[node.outer_key]
        self.inner_key_idx = self.inner.positions[node.inner_key]
        self.filter = (
            compile_expr(node.filter, self.positions) if node.filter else None
        )

    def run(self):
        cost = self.cost
        priv = self.ex.backend.priv
        inner = self.inner
        table = {}
        addrs = {}
        n_build = 0
        for item in inner.run():
            if type(item) is not list:
                yield item
                continue
            key = item[self.inner_key_idx]
            yield hit(cost.stack_refs_row)
            entry_addr = priv.arena_alloc(inner.width + 16)
            yield read(inner.slot_addr, inner.width, 0)
            yield busy(cost.hash_op)
            yield write(entry_addr, inner.width + 16, 0)
            table.setdefault(key, []).append(item)
            addrs.setdefault(key, []).append(entry_addr)
            n_build += 1
        n_buckets = 1 << max(6, (max(n_build, 1) * 2 - 1).bit_length())
        ht_base = priv.alloc(n_buckets * 8)
        yield busy(cost.hash_op * max(n_build, 1) // 8)  # bucket-array setup
        outer = self.outer
        for item in outer.run():
            if type(item) is not list:
                yield item
                continue
            orow = item
            yield hit(cost.stack_refs_row)
            key = orow[self.outer_key_idx]
            yield busy(cost.hash_op)
            yield read(ht_base + (_stable_hash(key) % n_buckets) * 8, 8, 0)
            matches = table.get(key)
            if not matches:
                continue
            for irow, addr in zip(matches, addrs[key]):
                yield read(outer.slot_addr, outer.width, 0)
                yield read(addr, inner.width + 16, 0)
                yield busy(cost.join_overhead)
                combined = orow + irow
                if self.filter is not None and not self.filter(combined):
                    continue
                yield write(self.slot_addr, self.width, 0)
                yield combined


class SortOp(_Op):
    """Materializing sort: a private temporary table plus merge passes.

    The access pattern models Postgres95's in-memory merge sort: rows are
    materialized once, then each merge pass streams every row from one
    private buffer to another (initial runs of 64 come from an in-cache
    insertion sort and are not charged memory traffic).
    """

    INITIAL_RUN = 64

    def __init__(self, node, ex):
        super().__init__(node, ex)
        self.child = ex.build(node.child)
        self.key_specs = [(self.child.positions[c], asc) for c, asc in node.keys]

    def run(self):
        cost = self.cost
        child = self.child
        priv = self.ex.backend.priv
        rows = []
        chunk_base = None
        chunk_used = 0
        chunk_rows = 256
        addrs = []
        for item in child.run():
            if type(item) is not list:
                yield item
                continue
            yield hit(cost.stack_refs_row)
            if chunk_base is None or chunk_used >= chunk_rows:
                chunk_base = priv.alloc(chunk_rows * child.width)
                chunk_used = 0
            addr = chunk_base + chunk_used * child.width
            chunk_used += 1
            yield read(child.slot_addr, child.width, 0)
            yield write(addr, child.width, 0)
            yield busy(cost.sort_step)
            rows.append(item)
            addrs.append(addr)
        n = len(rows)
        if n > 1:
            passes = max(0, math.ceil(math.log2(n / self.INITIAL_RUN)))
            if passes:
                other = priv.alloc(n * child.width)
                src, dst = addrs, [other + i * child.width for i in range(n)]
                for _ in range(passes):
                    for i in range(n):
                        yield read(src[i], child.width, 0)
                        yield write(dst[i], child.width, 0)
                        yield busy(cost.sort_step)
                    src, dst = dst, src
                addrs = src
        order = list(range(n))
        for pos, asc in reversed(self.key_specs):
            order.sort(key=lambda i: rows[i][pos], reverse=not asc)
        for i in order:
            yield hit(cost.stack_refs_row)
            yield read(addrs[i], child.width, 0)
            yield write(self.slot_addr, self.width, 0)
            yield busy(cost.emit_row)
            yield rows[i]


class GroupOp(_Op):
    """Group (and aggregate) a stream sorted on the grouping columns."""

    def __init__(self, node, ex):
        super().__init__(node, ex)
        self.child = ex.build(node.child)
        self.group_idxs = [self.child.positions[c] for c in node.group_cols]
        self.agg_fns = []
        for func, arg, _name in node.aggs:
            fn = compile_expr(arg, self.child.positions) if arg is not None else None
            self.agg_fns.append((func, fn))
        self.accum_addr = ex.backend.priv.alloc(16 * max(len(node.aggs), 1) + 64)

    def run(self):
        cost = self.cost
        child = self.child
        accum = self.accum_addr
        naggs = len(self.agg_fns)
        current = _SENTINEL
        accs = None
        for item in child.run():
            if type(item) is not list:
                yield item
                continue
            yield hit(cost.stack_refs_row)
            yield read(child.slot_addr, child.width, 0)
            key = [item[i] for i in self.group_idxs]
            yield busy(cost.group_compare * max(len(key), 1))
            if key != current:
                if current is not _SENTINEL:
                    yield from self._emit(current, accs)
                current = key
                accs = [_agg_init(f) for f, _ in self.agg_fns]
                yield write(accum, 16 * max(naggs, 1), 0)
            for j, (func, fn) in enumerate(self.agg_fns):
                value = fn(item) if fn is not None else None
                accs[j] = _agg_step(func, accs[j], value)
                yield busy(cost.agg_op)
            if naggs:
                yield write(accum, 8 * naggs, 0)
        if current is not _SENTINEL:
            yield from self._emit(current, accs)

    def _emit(self, key, accs):
        finals = [_agg_final(f, a) for (f, _), a in zip(self.agg_fns, accs)]
        yield write(self.slot_addr, self.width, 0)
        yield busy(self.cost.emit_row)
        yield list(key) + finals


class AggregateOp(_Op):
    """Ungrouped aggregation: one output row."""

    def __init__(self, node, ex):
        super().__init__(node, ex)
        self.child = ex.build(node.child)
        self.agg_fns = []
        for func, arg, _name in node.aggs:
            fn = compile_expr(arg, self.child.positions) if arg is not None else None
            self.agg_fns.append((func, fn))
        self.accum_addr = ex.backend.priv.alloc(16 * max(len(node.aggs), 1))

    def run(self):
        cost = self.cost
        child = self.child
        accs = [_agg_init(f) for f, _ in self.agg_fns]
        for item in child.run():
            if type(item) is not list:
                yield item
                continue
            yield hit(cost.stack_refs_row)
            yield read(child.slot_addr, child.width, 0)
            for j, (func, fn) in enumerate(self.agg_fns):
                value = fn(item) if fn is not None else None
                accs[j] = _agg_step(func, accs[j], value)
                yield busy(cost.agg_op)
            yield write(self.accum_addr, 8 * len(self.agg_fns), 0)
        finals = [_agg_final(f, a) for (f, _), a in zip(self.agg_fns, accs)]
        yield write(self.slot_addr, self.width, 0)
        yield finals


class ProjectOp(_Op):
    """Compute the final SELECT expressions."""

    def __init__(self, node, ex):
        super().__init__(node, ex)
        self.child = ex.build(node.child)
        self.fns = [compile_expr(e, self.child.positions) for e in node.exprs]
        self.expr_cost = sum(op_count(e) for e in node.exprs) * self.cost.predicate_op

    def run(self):
        child = self.child
        for item in child.run():
            if type(item) is not list:
                yield item
                continue
            yield hit(self.cost.stack_refs_row)
            yield read(child.slot_addr, child.width, 0)
            if self.expr_cost:
                yield busy(self.expr_cost)
            yield write(self.slot_addr, self.width, 0)
            yield [fn(item) for fn in self.fns]


_OP_CLASSES = {
    SeqScan: SeqScanOp,
    IndexScan: IndexScanOp,
    NestLoop: NestLoopOp,
    MergeJoin: MergeJoinOp,
    HashJoin: HashJoinOp,
    Sort: SortOp,
    Group: GroupOp,
    Aggregate: AggregateOp,
    Project: ProjectOp,
}


class Executor:
    """Builds and drives operator pipelines for one backend."""

    def __init__(self, db, backend):
        self.db = db
        self.backend = backend

    def build(self, plan):
        """Instantiate the operator for a plan node (recursively)."""
        op_cls = _OP_CLASSES.get(type(plan))
        if op_cls is None:
            raise ExecError(f"no operator for plan node {type(plan).__name__}")
        return op_cls(plan, self)

    def run_plan(self, plan):
        """Traced generator: run a plan to completion; returns the rows.

        Acquires relation datalocks on every base table first and releases
        them at the end, as one transaction would.
        """
        from repro.db.plan import walk

        db = self.db
        xid = self.backend.xid
        tables = []
        for node in walk(plan):
            if isinstance(node, (SeqScan, IndexScan)) and node.table not in tables:
                tables.append(node.table)
        yield from (busy(db.cost.query_setup),)
        for name in tables:
            yield from db.lockmgr.acquire(db.tables[name].oid, xid)
        root = self.build(plan)
        rows = []
        for item in root.run():
            if type(item) is list:
                rows.append(item)
            else:
                yield item
        for name in tables:
            yield from db.lockmgr.release(db.tables[name].oid, xid)
        return rows
