"""The 4-node CC-NUMA machine of the paper's section 4.3.

Each node has a direct-mapped primary cache, a 2-way set-associative
secondary cache (the L1 line is half the L2 line), and a 16-entry write
buffer.  A full-map directory provides invalidation coherence; latencies
follow the paper's round-trip numbers: L2 hit 16, local memory 80, 2-hop
remote 249, 3-hop remote 351 cycles.  All contention is modeled except the
interconnect, which delivers at a fixed delay -- the paper makes the same
simplification.

An optional hardware prefetcher (section 6 of the paper) issues fetches for
the next 4 primary-cache lines on every access to database data.
"""

from dataclasses import dataclass

from repro.memsim.cache import Cache
from repro.memsim.directory import Directory
from repro.memsim.events import DataClass
from repro.memsim.stats import MachineStats
from repro.memsim.writebuffer import WriteBuffer

PAGE_SHIFT = 13  # 8-Kbyte buffer blocks / NUMA pages


def default_home(addr):
    """Round-robin 8-KB pages over 4 nodes (shared-data placement)."""
    return (addr >> PAGE_SHIFT) & 3


@dataclass
class MachineConfig:
    """Architecture parameters (defaults are the paper's *baseline*)."""

    n_nodes: int = 4
    l1_size: int = 4 * 1024
    l1_line: int = 32
    l1_assoc: int = 1
    l2_size: int = 128 * 1024
    l2_line: int = 64
    l2_assoc: int = 2
    wb_entries: int = 16
    lat_l2: int = 16        # L1 miss satisfied by the secondary cache
    lat_local: int = 80     # satisfied by local memory
    lat_2hop: int = 249     # remote, clean (2-hop transaction)
    lat_3hop: int = 351     # remote, dirty in a third node (3-hop)
    wb_retire: int = 8      # L2 write-hit occupancy in the write buffer
    # Transfer time grows with the line: extra cycles per 32-byte chunk of
    # primary line beyond the first (L2->L1) and per 64-byte chunk of
    # secondary line beyond the first (memory/remote->L2).
    transfer_l2: int = 8
    transfer_local: int = 30
    transfer_remote: int = 52
    prefetch_data: bool = False
    prefetch_degree: int = 4
    prefetch_drop_threshold: int = 120  # port backlog beyond which the
                                        # prefetcher drops the rest of a burst

    def __post_init__(self):
        if self.l1_line * 2 != self.l2_line:
            raise ValueError(
                "the paper fixes the primary line at half the secondary line: "
                f"got L1={self.l1_line} L2={self.l2_line}"
            )
        if self.l1_size % (self.l1_line * self.l1_assoc) != 0:
            raise ValueError("L1 geometry does not divide evenly")
        if self.l2_size % (self.l2_line * self.l2_assoc) != 0:
            raise ValueError("L2 geometry does not divide evenly")

    def with_lines(self, l2_line):
        """Return a copy with ``l2_line``-byte secondary lines (L1 = half)."""
        return self.replace(l1_line=l2_line // 2, l2_line=l2_line)

    def with_cache_sizes(self, l1_size, l2_size):
        """Return a copy with the given cache capacities."""
        return self.replace(l1_size=l1_size, l2_size=l2_size)

    def replace(self, **kwargs):
        """Return a copy with the given fields replaced."""
        values = {f: getattr(self, f) for f in self.__dataclass_fields__}
        values.update(kwargs)
        return MachineConfig(**values)


class NumaMachine:
    """Simulates the memory hierarchy; consumes one reference at a time.

    The machine is time-agnostic about instruction execution: callers pass
    the current cycle count ``now`` and get back the number of stall cycles
    the reference costs beyond the 1-cycle pipelined access.
    """

    def __init__(self, config=None, home_fn=None):
        self.config = config or MachineConfig()
        cfg = self.config
        self.home_fn = home_fn or default_home
        self.l1 = [Cache(cfg.l1_size, cfg.l1_line, cfg.l1_assoc, f"L1.{i}")
                   for i in range(cfg.n_nodes)]
        self.l2 = [Cache(cfg.l2_size, cfg.l2_line, cfg.l2_assoc, f"L2.{i}")
                   for i in range(cfg.n_nodes)]
        self.wb = [WriteBuffer(cfg.wb_entries) for _ in range(cfg.n_nodes)]
        self.directory = Directory(cfg.n_nodes)
        self.stats = MachineStats()
        self._l1_shift = self.l1[0].line_shift
        self._l2_shift = self.l2[0].line_shift
        self._ratio_shift = self._l2_shift - self._l1_shift
        self._pending_fill = {}
        # Hot-path aliases: read()/write() inline the cache probe and the
        # config lookups, so hit-path accesses cost one attribute chase
        # instead of several (the simulator spends most of its time there).
        self._l1_sets = [c._sets for c in self.l1]
        self._l1_mask = self.l1[0]._set_mask
        self._l2_sets = [c._sets for c in self.l2]
        self._l2_mask = self.l2[0]._set_mask
        self._wb_retire = cfg.wb_retire
        self._prefetch_data = cfg.prefetch_data
        # Per-node memory-port availability: prefetch fills occupy the port
        # and delay demand misses behind them (the "cache contention" cost
        # of section 6 of the paper).
        self._port_free = [0] * cfg.n_nodes
        # Line-size-dependent latencies: a miss on a longer line takes
        # longer to satisfy ("each miss takes longer, but there are many
        # fewer misses" -- paper section 5.2.1).
        l1_chunks = cfg.l1_line // 32 - 1
        l2_chunks = max(cfg.l2_line // 64, 1) - 1
        self.lat_l2 = cfg.lat_l2 + l1_chunks * cfg.transfer_l2
        self.lat_local = cfg.lat_local + l2_chunks * cfg.transfer_local
        self.lat_2hop = cfg.lat_2hop + l2_chunks * cfg.transfer_remote
        self.lat_3hop = cfg.lat_3hop + l2_chunks * cfg.transfer_remote

    # -- demand accesses -----------------------------------------------------

    def read(self, node, addr, size, cls, now):
        """Perform a load; return stall cycles beyond the pipelined cycle.

        A load of ``size`` bytes counts as one reference per 4-byte word
        (the paper's machines are 32-bit-word RISC processors; a tuple copy
        is a run of word loads), but the cache is probed once per line.
        """
        stats = self.stats
        shift = self._l1_shift
        first = addr >> shift
        last = (addr + size - 1) >> shift
        if first == last:
            # Hot path: the access stays within one primary line.  The L1
            # and L2 probes (and their MRU updates) are inlined from
            # Cache.lookup, and the L1 miss bookkeeping from Cache.insert
            # and classify_miss -- this path carries most of a simulation.
            stats.l1_reads += 1 if size <= 4 else (size + 3) >> 2
            ways = self._l1_sets[node][first & self._l1_mask]
            if first in ways:
                if ways[0] != first:
                    ways.remove(first)
                    ways.insert(0, first)
                pending = self._pending_fill
                if pending:
                    fill = pending.pop((node, first), None)
                    if fill is not None and fill > now:
                        # Prefetch arrived late: wait out the remainder.
                        stats.prefetch_late_cycles += fill - now
                        return fill - now
                return 0
            l1 = self.l1[node]
            stats.l1_read_misses[cls][
                0 if first not in l1._seen
                else 2 if first in l1._invalidated else 1
            ] += 1
            line2 = first >> self._ratio_shift
            stats.l2_reads += 1
            ways2 = self._l2_sets[node][line2 & self._l2_mask]
            if line2 in ways2:
                if ways2[0] != line2:
                    ways2.remove(line2)
                    ways2.insert(0, line2)
                latency = self.lat_l2
            else:
                stats.l2_read_misses[cls][
                    self.l2[node].classify_miss(line2)] += 1
                latency = self._l2_miss_fill(node, line2)
                if latency > self.lat_l2:
                    # Demand fill from beyond the L2 queues behind
                    # in-flight prefetches on this node's memory port.
                    wait = self._port_free[node] - now
                    if wait > 0:
                        latency += wait
                    self._port_free[node] = now + latency
            # L1 fill (write-through level: replacement never writes back).
            ways.insert(0, first)
            l1._seen.add(first)
            l1._invalidated.discard(first)
            if len(ways) > l1.assoc:
                ways.pop()
            if self._prefetch_data and cls == DataClass.DATA:
                self._issue_prefetches(node, first, now + latency)
            return latency
        words = (size + 3) >> 2
        lines = last - first + 1
        if words > lines:
            stats.l1_reads += words - lines
        read_line = self._read_line
        stall = read_line(node, first, cls, now)
        while first < last:
            first += 1
            stall += read_line(node, first, cls, now + stall)
        return stall

    def write(self, node, addr, size, cls, now):
        """Perform a store; return stall cycles (write-buffer overflow)."""
        shift = self._l1_shift
        first = addr >> shift
        last = (addr + size - 1) >> shift
        if first == last:
            # Hot path: the store stays within one primary line.  The body
            # of _write_line is inlined here (like the read() hot path) --
            # stores are the second most frequent machine call on replay.
            stats = self.stats
            stats.l1_writes += 1 if size <= 4 else (size + 3) >> 2
            line2 = first >> self._ratio_shift
            ways = self._l1_sets[node][first & self._l1_mask]
            if first in ways and ways[0] != first:
                ways.remove(first)
                ways.insert(0, first)
            directory = self.directory
            ways2 = self._l2_sets[node][line2 & self._l2_mask]
            if line2 in ways2:
                if ways2[0] != line2:
                    ways2.remove(line2)
                    ways2.insert(0, line2)
                if directory._dirty.get(line2) == node:
                    retire = self._wb_retire
                else:
                    # Upgrade: ask the home directory, invalidate others.
                    home = self.home_fn(line2 << self._l2_shift)
                    retire = self.lat_local if home == node else self.lat_2hop
                    self._invalidate_others(node, line2)
            else:
                stats.l2_write_misses += 1
                home = self.home_fn(line2 << self._l2_shift)
                owner = directory._dirty.get(line2)
                if owner is not None and owner != node:
                    retire = self.lat_2hop if home == node else self.lat_3hop
                else:
                    retire = self.lat_local if home == node else self.lat_2hop
                self._invalidate_others(node, line2)
                # L2 fill, inlined from Cache.insert (probe above missed).
                l2 = self.l2[node]
                ways2.insert(0, line2)
                l2._seen.add(line2)
                l2._invalidated.discard(line2)
                if len(ways2) > l2.assoc:
                    self._evict_l2(node, ways2.pop())
            # Write-buffer issue (inlined from WriteBuffer.issue).
            wb = self.wb[node]
            entries = wb.entries
            while entries and entries[0] <= now:
                entries.popleft()
            stall = 0
            if len(entries) >= wb.capacity:
                oldest = entries.popleft()
                if oldest > now:
                    stall = oldest - now
                wb.stall_cycles += stall
            completion = wb._last_completion
            issue_time = now + stall
            if issue_time > completion:
                completion = issue_time
            completion += retire
            wb._last_completion = completion
            entries.append(completion)
            return stall
        words = (size + 3) >> 2
        lines = last - first + 1
        if words > lines:
            self.stats.l1_writes += words - lines
        write_line = self._write_line
        stall = write_line(node, first, cls, now)
        while first < last:
            first += 1
            stall += write_line(node, first, cls, now + stall)
        return stall

    # -- internals -----------------------------------------------------------

    def _read_line(self, node, line1, cls, now):
        stats = self.stats
        stats.l1_reads += 1
        # L1 probe inlined from Cache.lookup (multi-line accesses land here
        # once per primary line, so this path is hot under small lines).
        ways = self._l1_sets[node][line1 & self._l1_mask]
        if line1 in ways:
            if ways[0] != line1:
                ways.remove(line1)
                ways.insert(0, line1)
            pending = self._pending_fill
            if pending:
                fill = pending.pop((node, line1), None)
                if fill is not None and fill > now:
                    # Prefetch arrived late: wait out the remainder.
                    stats.prefetch_late_cycles += fill - now
                    return fill - now
            return 0
        return self._read_miss(node, line1, cls, now)

    def _read_miss(self, node, line1, cls, now):
        # Same inlining as the read() hot path (Cache.lookup/insert and
        # classify_miss): multi-line accesses miss here once per line, and
        # small-line configurations make that the dominant miss path.
        stats = self.stats
        l1 = self.l1[node]
        stats.l1_read_misses[cls][
            0 if line1 not in l1._seen
            else 2 if line1 in l1._invalidated else 1
        ] += 1
        line2 = line1 >> self._ratio_shift
        stats.l2_reads += 1
        ways2 = self._l2_sets[node][line2 & self._l2_mask]
        if line2 in ways2:
            if ways2[0] != line2:
                ways2.remove(line2)
                ways2.insert(0, line2)
            latency = self.lat_l2
        else:
            stats.l2_read_misses[cls][self.l2[node].classify_miss(line2)] += 1
            latency = self._l2_miss_fill(node, line2)
            if latency > self.lat_l2:
                # Demand fill from beyond the L2 queues behind in-flight
                # prefetches on this node's memory port.
                wait = self._port_free[node] - now
                if wait > 0:
                    latency += wait
                self._port_free[node] = now + latency
        ways = l1._sets[line1 & self._l1_mask]
        ways.insert(0, line1)
        l1._seen.add(line1)
        l1._invalidated.discard(line1)
        if len(ways) > l1.assoc:
            ways.pop()
        if self._prefetch_data and cls == DataClass.DATA:
            self._issue_prefetches(node, line1, now + latency)
        return latency

    def _l2_read(self, node, line2, cls, count):
        """Look up / fill ``line2`` in node's L2; return access latency."""
        stats = self.stats
        stats.l2_reads += 1
        ways = self._l2_sets[node][line2 & self._l2_mask]
        if line2 in ways:
            if ways[0] != line2:
                ways.remove(line2)
                ways.insert(0, line2)
            return self.lat_l2
        if count:
            stats.l2_read_misses[cls][self.l2[node].classify_miss(line2)] += 1
        return self._l2_miss_fill(node, line2)

    def _l2_miss_fill(self, node, line2):
        """Service an L2 read miss: directory transaction plus the fill."""
        directory = self.directory
        home = self.home_fn(line2 << self._l2_shift)
        owner = directory._dirty.get(line2)
        if owner is not None and owner != node:
            latency = self.lat_2hop if home == node else self.lat_3hop
        else:
            latency = self.lat_local if home == node else self.lat_2hop
        # Directory read fill, inlined from Directory.record_read.
        if owner is not None and owner != node:
            del directory._dirty[line2]
        holders = directory._sharers.setdefault(line2, set())
        holders.add(node)
        # L2 fill, inlined from Cache.insert: every caller probed the set
        # already, so the line is known to be absent.
        l2 = self.l2[node]
        ways2 = self._l2_sets[node][line2 & self._l2_mask]
        ways2.insert(0, line2)
        l2._seen.add(line2)
        l2._invalidated.discard(line2)
        if len(ways2) > l2.assoc:
            self._evict_l2(node, ways2.pop())
        return latency

    def _write_line(self, node, line1, cls, now):
        stats = self.stats
        stats.l1_writes += 1
        line2 = line1 >> self._ratio_shift
        # Write-through L1: update MRU if present, no allocation on write
        # miss (probe inlined from Cache.lookup).
        ways = self._l1_sets[node][line1 & self._l1_mask]
        if line1 in ways and ways[0] != line1:
            ways.remove(line1)
            ways.insert(0, line1)
        directory = self.directory
        ways2 = self._l2_sets[node][line2 & self._l2_mask]
        if line2 in ways2:
            if ways2[0] != line2:
                ways2.remove(line2)
                ways2.insert(0, line2)
            if directory._dirty.get(line2) == node:
                retire = self._wb_retire
            else:
                # Upgrade: ask the home directory, invalidate other copies.
                home = self.home_fn(line2 << self._l2_shift)
                retire = self.lat_local if home == node else self.lat_2hop
                self._invalidate_others(node, line2)
        else:
            stats.l2_write_misses += 1
            home = self.home_fn(line2 << self._l2_shift)
            owner = directory._dirty.get(line2)
            if owner is not None and owner != node:
                retire = self.lat_2hop if home == node else self.lat_3hop
            else:
                retire = self.lat_local if home == node else self.lat_2hop
            self._invalidate_others(node, line2)
            # L2 fill, inlined from Cache.insert (probe above missed).
            l2 = self.l2[node]
            ways2.insert(0, line2)
            l2._seen.add(line2)
            l2._invalidated.discard(line2)
            if len(ways2) > l2.assoc:
                self._evict_l2(node, ways2.pop())
        # Write-buffer issue, inlined from WriteBuffer.issue: drain retired
        # stores, stall if full, retire serially after the previous store.
        wb = self.wb[node]
        entries = wb.entries
        while entries and entries[0] <= now:
            entries.popleft()
        stall = 0
        if len(entries) >= wb.capacity:
            # Processor waits for the oldest entry to retire.
            oldest = entries.popleft()
            if oldest > now:
                stall = oldest - now
            wb.stall_cycles += stall
        completion = wb._last_completion
        issue_time = now + stall
        if issue_time > completion:
            completion = issue_time
        completion += retire
        wb._last_completion = completion
        entries.append(completion)
        return stall

    def _invalidate_others(self, node, line2):
        # Directory write, inlined from Directory.record_write, with a fast
        # path for the common no-other-sharer case (no victims to visit).
        directory = self.directory
        holders = directory._sharers.get(line2)
        if holders is None:
            directory._sharers[line2] = {node}
            directory._dirty[line2] = node
            return
        victims = [n for n in holders if n != node]
        holders.clear()
        holders.add(node)
        directory._dirty[line2] = node
        if not victims:
            return
        ratio = 1 << self._ratio_shift
        base = line2 << self._ratio_shift
        for victim in victims:
            self.l2[victim].invalidate(line2, coherence=True)
            vl1 = self.l1[victim]
            for i in range(ratio):
                vl1.invalidate(base + i, coherence=True)

    def _evict_l2(self, node, line2):
        """Handle an L2 replacement: keep L1 inclusive, tell the directory."""
        # Inlined from Directory.record_eviction.
        directory = self.directory
        holders = directory._sharers.get(line2)
        if holders is not None:
            holders.discard(node)
            if not holders:
                del directory._sharers[line2]
        if directory._dirty.get(line2) == node:
            del directory._dirty[line2]
        base = line2 << self._ratio_shift
        sets = self._l1_sets[node]
        mask = self._l1_mask
        # Replacement (non-coherence) invalidation, inlined from
        # Cache.invalidate: drop the line, keep the miss history.
        for line1 in range(base, base + (1 << self._ratio_shift)):
            ways = sets[line1 & mask]
            if line1 in ways:
                ways.remove(line1)

    # -- prefetching -----------------------------------------------------------

    def _issue_prefetches(self, node, line1, now):
        """Fetch the next N primary lines of database data (section 6)."""
        l1 = self.l1[node]
        pending = self._pending_fill
        for i in range(1, self.config.prefetch_degree + 1):
            pline = line1 + i
            if l1.contains(pline) or (node, pline) in pending:
                continue
            if self._port_free[node] > now + self.config.prefetch_drop_threshold:
                # The memory port is backed up: the prefetcher drops the
                # rest of the burst rather than queueing it (so effective
                # lookahead shrinks when misses are frequent -- the reason
                # prefetching only removes part of the Data stall time).
                break
            self.stats.prefetches_issued += 1
            line2 = pline >> self._ratio_shift
            latency = self._l2_read(node, line2, DataClass.DATA, count=False)
            l1.insert(pline)  # write-through: replacement never writes back
            if latency > self.lat_l2:
                # Unpipelined fills: each occupies the port for its full
                # latency, so a burst takes about a tuple's worth of
                # processing time to drain.
                start = max(now, self._port_free[node])
                fill = start + latency
                # Pipelined transfers free the port at half the fill time.
                self._port_free[node] = start + latency // 2
            else:
                fill = now + latency
            pending[(node, pline)] = fill

    def is_pristine(self):
        """Whether the machine has never been touched (or was rebuilt).

        True iff the directory holds no sharer sets and no dirty owners
        -- which, by the registration and inclusion invariants
        (:meth:`check_invariants`), implies every cache is empty.  The
        horizon kernel requires this: its sharing classifier only covers
        lines the current trace set touches, so residual directory state
        from an earlier run could change a retired row's latency or a
        neighbour's miss path.  Per-node residue (write-buffer timing,
        port availability, miss history) is deterministic per CPU and
        does not matter.  O(1): two dict emptiness checks.
        """
        directory = self.directory
        return not directory._sharers and not directory._dirty

    # -- sanitizer ---------------------------------------------------------------

    def check_invariants(self):
        """Read-only sweep of the hierarchy's structural invariants.

        Raises :class:`~repro.memsim.sanitize.SanitizerError` on the first
        violation; called from the replay engines at stream boundaries
        when ``REPRO_SANITIZE=1``.  Checks, per node: L1 contents are a
        subset of L2 contents (inclusion, maintained by :meth:`_evict_l2`),
        every L2-resident line is registered as a sharer at the directory,
        and the write buffer's completion times are FIFO (nondecreasing).
        Directory-side: a dirty line has exactly its owner as sharer.
        """
        from repro.memsim.sanitize import SanitizerError

        shift = self._ratio_shift
        sharers = self.directory._sharers
        for node in range(self.config.n_nodes):
            l2_resident = set()
            for ways2 in self._l2_sets[node]:
                l2_resident.update(ways2)
            for ways in self._l1_sets[node]:
                for line1 in ways:
                    if (line1 >> shift) not in l2_resident:
                        raise SanitizerError(
                            f"inclusion violated: node {node} holds L1 line "
                            f"{line1:#x} whose L2 line {line1 >> shift:#x} "
                            "is not resident")
            for line2 in sorted(l2_resident):
                if node not in sharers.get(line2, ()):
                    raise SanitizerError(
                        f"directory lost node {node} for resident L2 line "
                        f"{line2:#x}: sharers={sorted(sharers.get(line2, ()))}")
            prev = None
            for completion in self.wb[node].entries:
                if prev is not None and completion < prev:
                    raise SanitizerError(
                        f"write buffer of node {node} is out of FIFO order: "
                        f"{completion} after {prev}")
                prev = completion
        for line2, owner in self.directory._dirty.items():
            holders = sharers.get(line2, set())
            if holders != {owner}:
                raise SanitizerError(
                    f"dirty line {line2:#x} owned by node {owner} has "
                    f"sharers {sorted(holders)} (must be exactly the owner)")

    # -- workload-phase control -------------------------------------------------

    def reset_stats(self):
        """Zero counters but keep cache and directory contents (warm start)."""
        self.stats.reset()
        self._pending_fill.clear()
        for wb in self.wb:
            wb.reset()

    def drain_time(self, node, now):
        """Time at which node's write buffer empties (for final accounting)."""
        return self.wb[node].drain_time(now)
