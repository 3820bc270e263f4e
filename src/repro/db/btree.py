"""Page-based B+-tree indices.

Nodes occupy one 8-KB buffer block each (class ``INDEX``), with 16-byte
(key, pointer) entries.  Descent emits a binary-search probe pattern inside
each node -- repeated traversals re-touch the top levels, which is the
temporal locality on indices the paper measures -- and leaf walks emit
sequential entry reads, the source of the indices' spatial locality.

All operations that touch simulated memory are traced generators (see
:mod:`repro.db.tracing`).  Range scans yield rids (plain ints) interleaved
with event tuples.
"""

import bisect

from repro.db.shmem import PAGE_SIZE
from repro.memsim.events import DataClass, busy, read, write

ENTRY_BYTES = 16
NODE_HEADER_BYTES = 24
NODE_CAPACITY = (PAGE_SIZE - NODE_HEADER_BYTES) // ENTRY_BYTES
BULK_FILL = 2 * NODE_CAPACITY // 3


class _Node:
    __slots__ = ("leaf", "keys", "ptrs", "page", "addr", "next_leaf")

    def __init__(self, leaf, page, addr):
        self.leaf = leaf
        self.keys = []
        # For leaves: rids.  For internal nodes: child _Node objects.
        self.ptrs = []
        self.page = page
        self.addr = addr
        self.next_leaf = None

    def entry_addr(self, idx):
        return self.addr + NODE_HEADER_BYTES + idx * ENTRY_BYTES


def _as_key(key):
    return key if isinstance(key, tuple) else (key,)


class BTreeIndex:
    """A B+-tree over one or more columns of a heap table."""

    def __init__(self, name, table, key_cols, shmem, cost_model):
        self.name = name
        self.table = table
        self.key_cols = list(key_cols)
        self.key_idxs = [table.schema.column_index(c) for c in self.key_cols]
        self.shmem = shmem
        self.cost = cost_model
        self.root = self._new_node(leaf=True)
        self.height = 1
        self.n_entries = 0

    def _new_node(self, leaf):
        page = self.shmem.alloc_page(DataClass.INDEX)
        return _Node(leaf, page, self.shmem.page_addr(page))

    def key_of_row(self, row):
        """Extract this index's key tuple from a full table row."""
        return tuple(row[i] for i in self.key_idxs)

    # -- construction ---------------------------------------------------------------

    def bulk_build(self):
        """(Re)build the tree from the table contents (untraced)."""
        deleted = self.table.deleted
        entries = sorted(
            (self.key_of_row(row), rid)
            for rid, row in enumerate(self.table.rows) if rid not in deleted
        )
        self.n_entries = len(entries)
        leaves = []
        for start in range(0, len(entries), BULK_FILL) or [0]:
            node = self._new_node(leaf=True)
            chunk = entries[start:start + BULK_FILL]
            node.keys = [k for k, _ in chunk]
            node.ptrs = [r for _, r in chunk]
            leaves.append(node)
        if not leaves:
            leaves = [self._new_node(leaf=True)]
        for a, b in zip(leaves, leaves[1:]):
            a.next_leaf = b
        level = leaves
        height = 1
        while len(level) > 1:
            parents = []
            for start in range(0, len(level), BULK_FILL):
                node = self._new_node(leaf=False)
                chunk = level[start:start + BULK_FILL]
                node.keys = [c.keys[0] if c.keys else () for c in chunk]
                node.ptrs = chunk
                parents.append(node)
            level = parents
            height += 1
        self.root = level[0]
        self.height = height

    # -- traced traversal -------------------------------------------------------------

    def _probe(self, node, key):
        """Traced binary search inside ``node``; returns bisect_left index."""
        keys = node.keys
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            yield read(node.entry_addr(mid), ENTRY_BYTES, DataClass.INDEX)
            yield busy(self.cost.btree_compare)
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _descend(self, key):
        """Traced descent; returns ``(leaf, path)`` where path is the
        list of (node, child_index) pairs from the root."""
        node = self.root
        path = []
        while not node.leaf:
            pos = yield from self._probe(node, key)
            # bisect_left gives the first child whose separator is >= key.
            # Step one child left: duplicates equal to a separator may begin
            # in the preceding leaf, and keys below the separator live there.
            if pos > 0:
                pos -= 1
            path.append((node, pos))
            node = node.ptrs[pos]
        return node, path

    def search(self, key):
        """Traced generator: rids whose key equals ``key``.

        ``key`` may be a prefix of a composite key; all entries matching the
        prefix are returned, in key order.
        """
        prefix = _as_key(key)
        rids = []
        for item in self.scan_range(lo=prefix, hi=prefix, prefix=True):
            if type(item) is tuple:
                yield item
            else:
                rids.append(item)
        return rids

    def scan_range(self, lo=None, hi=None, lo_incl=True, hi_incl=True, prefix=False):
        """Traced generator: yields events and rids for keys in [lo, hi].

        With ``prefix=True``, ``lo``/``hi`` are compared against the leading
        columns of composite keys only.
        """
        if lo is not None:
            lo = _as_key(lo)
        if hi is not None:
            hi = _as_key(hi)
        start_key = lo if lo is not None else ()
        node, _ = yield from self._descend(start_key)
        # Binary-search the starting leaf instead of walking it linearly.
        idx = (yield from self._probe(node, lo)) if lo is not None else 0
        nlo = len(lo) if lo is not None else 0
        nhi = len(hi) if hi is not None else 0
        while node is not None:
            keys = node.keys
            ptrs = node.ptrs
            n = len(keys)
            while idx < n:
                key = keys[idx]
                cut = key[:nlo] if prefix else key
                if lo is not None and (cut < lo or (not lo_incl and cut == lo)):
                    idx += 1
                    continue
                yield read(node.entry_addr(idx), ENTRY_BYTES, DataClass.INDEX)
                yield busy(self.cost.btree_leaf_step)
                cut_hi = key[:nhi] if prefix else key
                if hi is not None and (cut_hi > hi or (not hi_incl and cut_hi == hi)):
                    return
                yield ptrs[idx]
                idx += 1
            node = node.next_leaf
            idx = 0

    # -- traced maintenance --------------------------------------------------------------

    def insert(self, key, rid):
        """Traced generator: insert an entry, splitting nodes as needed."""
        key = _as_key(key)
        if len(key) != len(self.key_cols):
            raise ValueError(
                f"index {self.name}: key {key!r} has wrong arity"
            )
        leaf, path = yield from self._descend(key)
        # Keep low fences tight: a key below every separator lands in the
        # leftmost subtree, whose separator must drop to cover it.
        for parent, idx in path:
            if key < parent.keys[idx]:
                parent.keys[idx] = key
                yield write(parent.entry_addr(idx), ENTRY_BYTES, DataClass.INDEX)
        pos = bisect.bisect_left(leaf.keys, key)
        leaf.keys.insert(pos, key)
        leaf.ptrs.insert(pos, rid)
        yield write(leaf.entry_addr(pos), ENTRY_BYTES, DataClass.INDEX)
        yield busy(self.cost.btree_compare)
        self.n_entries += 1
        node = leaf
        while len(node.keys) > NODE_CAPACITY:
            sibling = self._split(node)
            yield write(sibling.addr, ENTRY_BYTES, DataClass.INDEX)
            if path:
                parent, idx = path.pop()
                parent.keys.insert(idx + 1, sibling.keys[0])
                parent.ptrs.insert(idx + 1, sibling)
                yield write(parent.entry_addr(idx + 1), ENTRY_BYTES, DataClass.INDEX)
                node = parent
            else:
                new_root = self._new_node(leaf=False)
                new_root.keys = [node.keys[0], sibling.keys[0]]
                new_root.ptrs = [node, sibling]
                self.root = new_root
                self.height += 1
                break

    def _split(self, node):
        mid = len(node.keys) // 2
        sibling = self._new_node(node.leaf)
        sibling.keys = node.keys[mid:]
        sibling.ptrs = node.ptrs[mid:]
        del node.keys[mid:]
        del node.ptrs[mid:]
        if node.leaf:
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling
        return sibling

    def delete(self, key, rid):
        """Traced generator: remove one (key, rid) entry (no rebalancing)."""
        key = _as_key(key)
        leaf, _ = yield from self._descend(key)
        while leaf is not None:
            pos = bisect.bisect_left(leaf.keys, key)
            while pos < len(leaf.keys) and leaf.keys[pos] == key:
                yield read(leaf.entry_addr(pos), ENTRY_BYTES, DataClass.INDEX)
                if leaf.ptrs[pos] == rid:
                    del leaf.keys[pos]
                    del leaf.ptrs[pos]
                    yield write(leaf.entry_addr(pos), ENTRY_BYTES, DataClass.INDEX)
                    self.n_entries -= 1
                    return True
                pos += 1
            if pos < len(leaf.keys):
                return False
            leaf = leaf.next_leaf
        return False

    # -- diagnostics ------------------------------------------------------------------

    def check_invariants(self):
        """Verify ordering, fanout and leaf-chain invariants (for tests)."""
        leaves = []

        def visit(node, lo, hi):
            assert node.keys == sorted(node.keys), "unsorted node"
            assert len(node.keys) <= NODE_CAPACITY, "overfull node"
            for k in node.keys:
                assert lo is None or k >= lo
                # Duplicate runs may extend up to (and include) the next
                # separator, hence <= rather than <.
                assert hi is None or k <= hi, f"key {k} above bound {hi}"
            if node.leaf:
                leaves.append(node)
                return
            assert len(node.keys) == len(node.ptrs)
            for i, child in enumerate(node.ptrs):
                child_lo = node.keys[i]
                child_hi = node.keys[i + 1] if i + 1 < len(node.keys) else hi
                visit(child, child_lo, child_hi)

        visit(self.root, None, None)
        chained = []
        node = leaves[0] if leaves else None
        while node is not None:
            chained.append(node)
            node = node.next_leaf
        assert chained == leaves, "leaf chain disagrees with tree order"
        assert sum(len(l.keys) for l in leaves) == self.n_entries
