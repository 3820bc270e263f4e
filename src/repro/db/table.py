"""Heap tables: fixed-width tuples in slotted 8-KB buffer blocks.

A heap table owns a sequence of buffer blocks.  Tuples are addressed by a
row identifier (*rid*): ``rid // tuples_per_page`` selects the page and
``rid % tuples_per_page`` the slot.  Values live in ordinary Python lists;
the page/slot geometry exists to give every attribute a stable simulated
address.
"""

from repro.db.shmem import PAGE_SIZE
from repro.memsim.events import DataClass

PAGE_HEADER_BYTES = 24


class HeapTable:
    """A relation stored in shared buffer blocks."""

    def __init__(self, schema, shmem, oid):
        self.schema = schema
        self.shmem = shmem
        self.oid = oid
        self.name = schema.name
        self.tuples_per_page = (PAGE_SIZE - PAGE_HEADER_BYTES) // schema.tuple_size
        if self.tuples_per_page < 1:
            raise ValueError(
                f"tuple of {schema.tuple_size} bytes does not fit an 8-KB block"
            )
        self.rows = []
        self.pages = []  # global page indices, in rid order
        self.deleted = set()
        self._stats = None

    # -- loading -----------------------------------------------------------------

    def load(self, rows):
        """Bulk-append ``rows`` (lists of values in schema order)."""
        ncols = len(self.schema)
        for row in rows:
            if len(row) != ncols:
                raise ValueError(
                    f"{self.name}: row has {len(row)} values, schema has {ncols}"
                )
            self.rows.append(list(row))
        self._ensure_pages()
        self._stats = None

    def append(self, row):
        """Append a single row; returns its rid."""
        self.load([row])
        return len(self.rows) - 1

    def delete(self, rid):
        """Tombstone a row (rids stay stable; scans skip it)."""
        if rid in self.deleted:
            raise KeyError(f"{self.name}: rid {rid} already deleted")
        self.deleted.add(rid)
        self._stats = None

    def live_rids(self):
        """Rids of all non-deleted rows, in storage order."""
        deleted = self.deleted
        return [r for r in range(len(self.rows)) if r not in deleted]

    def _ensure_pages(self):
        needed = (len(self.rows) + self.tuples_per_page - 1) // self.tuples_per_page
        while len(self.pages) < needed:
            self.pages.append(self.shmem.alloc_page(DataClass.DATA))

    # -- geometry -----------------------------------------------------------------

    @property
    def n_rows(self):
        return len(self.rows) - len(self.deleted)

    @property
    def n_pages(self):
        return len(self.pages)

    def page_slot(self, rid):
        """Return ``(global_page_index, slot)`` for a rid."""
        return self.pages[rid // self.tuples_per_page], rid % self.tuples_per_page

    def tuple_addr(self, rid):
        """Simulated address of the tuple header for ``rid``."""
        page, slot = self.page_slot(rid)
        return (self.shmem.page_addr(page) + PAGE_HEADER_BYTES
                + slot * self.schema.tuple_size)

    def attr_addr(self, rid, col_idx):
        """Simulated address of attribute ``col_idx`` of tuple ``rid``."""
        return self.tuple_addr(rid) + self.schema.offsets[col_idx] - 8

    def data_bytes(self):
        """Total bytes of tuple data (reporting helper)."""
        return len(self.rows) * self.schema.tuple_size

    # -- statistics for the planner ------------------------------------------------

    def stats(self):
        """Return per-column ``(n_distinct, min, max)`` planner statistics."""
        if self._stats is None:
            live = ([row for r, row in enumerate(self.rows)
                     if r not in self.deleted]
                    if self.deleted else self.rows)
            cols = []
            for i in range(len(self.schema)):
                values = [row[i] for row in live]
                distinct = len(set(values))
                lo = min(values) if values else None
                hi = max(values) if values else None
                cols.append((distinct, lo, hi))
            self._stats = cols
        return self._stats
