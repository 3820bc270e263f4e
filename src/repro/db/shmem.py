"""Simulated address spaces: the Shared Memory Module and private heaps.

The shared layout mirrors Figure 4 of the paper.  From low to high
addresses: the spinlock words (``LockMgrLock``, ``BufMgrLock``), the Lock
Management Module's two hash tables (Lock Hash, Xid Hash), the invalidation
cache, the Buffer Lookup Hash, the Buffer Descriptors, and finally the
Buffer Blocks -- 8-KB pages holding database data and indices.

Addresses are plain integers; no bytes are ever stored at them.  The layout
exists so that every reference the engine makes can be classified by the
data structure it lands on, exactly the attribution the paper performs.
"""

from repro.memsim.events import DataClass

PAGE_SIZE = 8192
SHARED_BASE = 0x1000_0000
PRIVATE_BASE = 0x8000_0000
PRIVATE_STRIDE = 0x0800_0000

LOCK_ENTRY_BYTES = 48
XID_ENTRY_BYTES = 32
BUFDESC_BYTES = 64
BUFLOOK_BUCKET_BYTES = 16


class SharedMemory:
    """Address allocator and classifier for the Shared Memory Module."""

    def __init__(self, max_pages=16384, lock_buckets=256, xid_buckets=256,
                 buflook_buckets=1024):
        base = SHARED_BASE
        # Spinlock words, one cache line apart so they never false-share.
        self.lockmgr_lock_addr = base
        self.bufmgr_lock_addr = base + 64
        self.oid_lock_addr = base + 128
        base += 256

        self.lock_hash_base = base
        self.lock_buckets = lock_buckets
        base += lock_buckets * LOCK_ENTRY_BYTES

        self.xid_hash_base = base
        self.xid_buckets = xid_buckets
        base += xid_buckets * XID_ENTRY_BYTES

        self.inval_cache_base = base
        base += 4096

        self.buflook_base = base
        self.buflook_buckets = buflook_buckets
        base += buflook_buckets * BUFLOOK_BUCKET_BYTES

        self.bufdesc_base = base
        self.max_pages = max_pages
        base += max_pages * BUFDESC_BYTES

        # Buffer blocks start on a page boundary.
        base = (base + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        self.blocks_base = base
        self._n_pages = 0
        # Per-page data class: DataClass.DATA or DataClass.INDEX.
        self.page_kinds = []

    # -- buffer blocks ---------------------------------------------------------

    def alloc_page(self, kind):
        """Allocate one 8-KB buffer block holding ``kind`` data.

        ``kind`` must be ``DataClass.DATA`` or ``DataClass.INDEX``.  Returns
        the global page index.
        """
        if kind not in (DataClass.DATA, DataClass.INDEX):
            raise ValueError(f"buffer blocks hold DATA or INDEX, not {kind!r}")
        if self._n_pages >= self.max_pages:
            raise MemoryError(
                f"out of buffer blocks ({self.max_pages}); raise max_pages"
            )
        idx = self._n_pages
        self._n_pages += 1
        self.page_kinds.append(kind)
        return idx

    def page_addr(self, page_idx):
        """Base address of buffer block ``page_idx``."""
        return self.blocks_base + page_idx * PAGE_SIZE

    def page_of_addr(self, addr):
        """Global page index containing ``addr`` (must be a block address)."""
        off = addr - self.blocks_base
        if off < 0 or off >= self._n_pages * PAGE_SIZE:
            raise ValueError(f"address {addr:#x} is not inside the buffer blocks")
        return off // PAGE_SIZE

    # -- metadata addresses ------------------------------------------------------

    def bufdesc_addr(self, page_idx):
        """Address of the buffer descriptor for ``page_idx``."""
        return self.bufdesc_base + page_idx * BUFDESC_BYTES

    def buflook_bucket_addr(self, key_hash):
        """Address of a Buffer Lookup Hash bucket."""
        return self.buflook_base + (key_hash % self.buflook_buckets) * BUFLOOK_BUCKET_BYTES

    def lock_hash_addr(self, key_hash):
        """Address of a Lock Hash entry."""
        return self.lock_hash_base + (key_hash % self.lock_buckets) * LOCK_ENTRY_BYTES

    def xid_hash_addr(self, key_hash):
        """Address of a Xid Hash entry."""
        return self.xid_hash_base + (key_hash % self.xid_buckets) * XID_ENTRY_BYTES

    def classify(self, addr):
        """Return the :class:`DataClass` of an address (diagnostics only).

        The hot path never calls this -- emitters attach the class to each
        event -- but tests use it to check that the layout and the emitted
        classes agree.
        """
        if addr >= PRIVATE_BASE:
            return DataClass.PRIV
        if addr >= self.blocks_base:
            return self.page_kinds[self.page_of_addr(addr)]
        if addr >= self.bufdesc_base:
            return DataClass.BUFDESC
        if addr >= self.buflook_base:
            return DataClass.BUFLOOK
        if addr >= self.inval_cache_base:
            return DataClass.METAOTHER
        if addr >= self.xid_hash_base:
            return DataClass.XIDHASH
        if addr >= self.lock_hash_base:
            return DataClass.LOCKHASH
        if addr >= SHARED_BASE:
            # Spinlock words: only the LockMgrLock word is the paper's
            # "LockSLock"; the other spinlocks count as other metadata.
            if self.lockmgr_lock_addr <= addr < self.lockmgr_lock_addr + 64:
                return DataClass.LOCKSLOCK
            return DataClass.METAOTHER
        raise ValueError(f"address {addr:#x} below the shared segment")

    def home_fn(self):
        """The NUMA page-placement function for this layout.

        Placement depends only on the address-space constants, not on any
        per-database state, so this returns the module-level
        :func:`shared_home_fn` -- which replay-only sweep workers use
        directly, without materializing a database.
        """
        return shared_home_fn()


def shared_home_fn():
    """The standard NUMA page-placement function.

    Shared pages are distributed round-robin over the four nodes; private
    pages live on their owner's node.  The mapping is pure address
    arithmetic over the fixed layout constants.
    """
    def home(addr):
        if addr >= PRIVATE_BASE:
            return ((addr - PRIVATE_BASE) // PRIVATE_STRIDE) & 3
        return (addr >> 13) & 3

    return home


class PrivateMemory:
    """Per-backend private heap.

    Two disciplines coexist, mirroring Postgres95's memory contexts:

    * :meth:`alloc` -- persistent allocations (executor node state, output
      slots) that live for the whole query and are heavily reused;
    * :meth:`arena_alloc` -- short-lived per-tuple allocations that cycle
      through a bounded arena, the way palloc'd per-tuple contexts churn
      through the heap.  The arena is sized several times the primary cache,
      which is what makes private data miss in L1 and mostly hit in L2
      (Figure 7 / Figure 10 of the paper).

    Stack and static variables are *not* modeled at all: the paper's scaled
    methodology assumes they always hit (section 4.2).
    """

    def __init__(self, node, arena_size=64 * 1024):
        if node < 0 or node >= 16:
            raise ValueError(f"node {node} out of range")
        self.node = node
        self.base = PRIVATE_BASE + node * PRIVATE_STRIDE
        self._bump = self.base
        self.arena_base = self.base + PRIVATE_STRIDE // 2
        self.arena_size = arena_size
        self._arena_off = 0
        # Hot-object region: small heap objects (executor state, expression
        # nodes, list cells) scattered over a span several caches wide.
        self.hot_base = self.arena_base + arena_size
        self._hot_count = 0

    def alloc(self, size, align=8):
        """Allocate a persistent private block; returns its address."""
        mask = align - 1
        self._bump = (self._bump + mask) & ~mask
        addr = self._bump
        self._bump += size
        if self._bump >= self.arena_base:
            raise MemoryError("private heap overflow into the arena")
        return addr

    def arena_alloc(self, size, align=8):
        """Allocate a short-lived block from the rotating arena."""
        mask = align - 1
        size = (size + mask) & ~mask
        if size > self.arena_size:
            raise MemoryError(f"arena allocation {size} exceeds arena {self.arena_size}")
        if self._arena_off + size > self.arena_size:
            self._arena_off = 0
        addr = self.arena_base + self._arena_off
        self._arena_off += size
        return addr

    def hot_alloc(self):
        """Allocate one small scattered heap object; returns its address.

        Objects land at pseudo-random 64-byte slots (with sub-slot skew)
        across a region the size of the arena.  This is the access pattern
        of Postgres95's many small heap nodes: no spatial locality beyond
        the object itself, which is why long cache lines *hurt* private
        data (paper, section 5.2.1).
        """
        n_slots = max(self.arena_size // 64, 1)
        idx = (self._hot_count * 40503 + 17) % n_slots
        skew = (self._hot_count % 3) * 20
        self._hot_count += 1
        return self.hot_base + idx * 64 + skew

    def reset_heap(self):
        """Free all query-lifetime allocations, reusing their addresses.

        Postgres95 releases a query's memory contexts when it finishes, so
        the next query on the same process reuses the same heap addresses.
        Call this between consecutive queries on one backend.
        """
        self._bump = self.base
        self._arena_off = 0
        self._hot_count = 0
