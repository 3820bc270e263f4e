"""The Database facade: catalog, backends, planning and execution.

A :class:`Database` owns the shared memory layout, the Buffer Cache and
Lock Management modules, the heap tables and B-tree indices, and the
planner.  A :class:`Backend` is one simulated Postgres95 process with its
own private heap and transaction id; the paper's workloads run one backend
per processor (inter-query parallelism).
"""

from repro.db.buffer import BufferManager
from repro.db.cost import CostModel
from repro.db.executor import Executor
from repro.db.locks import LockManager
from repro.db.plan import explain, operator_set
from repro.db.planner import Planner
from repro.db.shmem import PrivateMemory, SharedMemory
from repro.db.sql import SelectStatement, parse
from repro.db.table import HeapTable
from repro.db.btree import BTreeIndex
from repro.db import reference


class QueryResult:
    """Rows plus their output column names."""

    def __init__(self, columns, rows):
        self.columns = columns
        self.rows = rows


class Backend:
    """One database process: private heap + transaction identity.

    The transaction id is a deterministic function of the node: it feeds
    the Xid Hash addresses the lock manager touches, so a global counter
    would make simulated miss counts depend on how many backends happened
    to exist earlier in the process.  Pass ``xid=`` to override (e.g. for
    two writing backends on one node).
    """

    XID_BASE = 100

    def __init__(self, db, node, arena_size=64 * 1024, xid=None):
        self.db = db
        self.node = node
        self.priv = PrivateMemory(node, arena_size=arena_size)
        self.xid = Backend.XID_BASE + node if xid is None else xid


class Database:
    """A memory-resident database instance."""

    def __init__(self, cost_model=None, max_pages=16384,
                 lock_check_per_rescan=True):
        #: Postgres95 revalidates locks on every index-scan rescan; setting
        #: this false ablates that behaviour (see the ablation benchmarks).
        self.lock_check_per_rescan = lock_check_per_rescan
        self.cost = cost_model or CostModel()
        self.shmem = SharedMemory(max_pages=max_pages)
        self.bufmgr = BufferManager(self.shmem, self.cost)
        self.lockmgr = LockManager(self.shmem, self.cost)
        self.tables = {}
        self.indexes = {}
        self._table_indexes = {}
        self._next_oid = 1000

    # -- DDL / loading --------------------------------------------------------------

    def create_table(self, schema):
        """Create a heap table from a :class:`Schema`."""
        if schema.name in self.tables:
            raise ValueError(f"table {schema.name!r} already exists")
        table = HeapTable(schema, self.shmem, oid=self._next_oid)
        self._next_oid += 1
        self.tables[schema.name] = table
        self._table_indexes[schema.name] = []
        return table

    def load(self, name, rows):
        """Bulk-load rows into a table and refresh dependent indices."""
        table = self.tables[name]
        table.load(rows)
        for ix in self._table_indexes[name]:
            ix.bulk_build()

    def create_index(self, name, table_name, key_cols):
        """Create and build a B-tree index."""
        if name in self.indexes:
            raise ValueError(f"index {name!r} already exists")
        table = self.tables[table_name]
        ix = BTreeIndex(name, table, key_cols, self.shmem, self.cost)
        ix.bulk_build()
        self.indexes[name] = ix
        self._table_indexes[table_name].append(ix)
        return ix

    def table_indexes(self, table_name):
        """Indices defined on ``table_name``."""
        return list(self._table_indexes[table_name])

    # -- planning --------------------------------------------------------------------

    def plan(self, query, hints=None):
        """Plan SQL text or a parsed statement into a plan tree."""
        stmt = parse(query) if isinstance(query, str) else query
        return Planner(self).plan(stmt, hints=hints)

    def explain(self, query, hints=None):
        """Render the chosen plan as indented text."""
        return explain(self.plan(query, hints=hints))

    def operator_set(self, query, hints=None):
        """The paper's Table-1 operator labels for a query's plan."""
        return operator_set(self.plan(query, hints=hints))

    # -- execution --------------------------------------------------------------------

    def backend(self, node, arena_size=64 * 1024):
        """Create a backend (simulated database process) on ``node``."""
        return Backend(self, node, arena_size=arena_size)

    def execute(self, query, backend, hints=None):
        """Traced generator: run a query on ``backend``; returns the rows
        (or, for DML, the affected-row count).

        Use :func:`repro.db.tracing.drain` to run it without a simulator,
        or hand the generator to the interleaver as a processor stream.
        """
        from repro.db.dml import execute_dml

        if hasattr(query, "label"):
            plan = query
        else:
            stmt = parse(query) if isinstance(query, str) else query
            if not isinstance(stmt, SelectStatement):
                count = yield from execute_dml(self, stmt, backend)
                return count
            plan = Planner(self).plan(stmt, hints=hints)
        executor = Executor(self, backend)
        rows = yield from executor.run_plan(plan)
        return rows

    def run(self, query, backend=None, hints=None):
        """Run a statement untraced.

        Returns a :class:`QueryResult` for SELECTs (or plans) and the
        affected-row count for DML.
        """
        from repro.db.tracing import drain

        backend = backend or self.backend(0)
        if hasattr(query, "label"):
            plan = query
        else:
            stmt = parse(query) if isinstance(query, str) else query
            if not isinstance(stmt, SelectStatement):
                return drain(self.execute(stmt, backend))
            plan = Planner(self).plan(stmt, hints=hints)
        rows = drain(self.execute(plan, backend))
        return QueryResult(plan.output, rows)

    def run_reference(self, query):
        """Evaluate a query with the independent reference implementation."""
        stmt = parse(query) if isinstance(query, str) else query
        if not isinstance(stmt, SelectStatement):
            raise TypeError("run_reference expects SQL text or a SelectStatement")
        return reference.evaluate(self, stmt)

    # -- reporting ---------------------------------------------------------------------

    def size_report(self):
        """Per-table storage summary (rows, pages, bytes)."""
        out = {}
        for name, table in sorted(self.tables.items()):
            out[name] = {
                "rows": table.n_rows,
                "pages": table.n_pages,
                "bytes": table.data_bytes(),
            }
        return out
