"""Statistics containers for the memory-system simulation.

Counters are organized the way the paper reports them: read misses per cache
level, split by the software data structure missed on (:class:`DataClass`)
and by miss type (cold / conflict / coherence), plus per-processor time
breakdowns (Busy / MSync / memory stall per data class).
"""

from repro.memsim.events import CLASS_NAMES, DataClass, METADATA_CLASSES, N_CLASSES

N_MISS_TYPES = 3


def _zero_grid():
    return [[0, 0, 0] for _ in range(N_CLASSES)]


class MachineStats:
    """Machine-wide access and miss counters."""

    __slots__ = (
        "l1_reads", "l1_writes", "l2_reads",
        "l1_read_misses", "l2_read_misses",
        "l1_write_misses", "l2_write_misses",
        "prefetches_issued", "prefetch_late_cycles",
    )

    def __init__(self):
        self.reset()

    def reset(self):
        """Zero every counter (cache state is owned by the machine)."""
        self.l1_reads = 0
        self.l1_writes = 0
        self.l2_reads = 0
        self.l1_read_misses = _zero_grid()
        self.l2_read_misses = _zero_grid()
        self.l1_write_misses = 0
        self.l2_write_misses = 0
        self.prefetches_issued = 0
        self.prefetch_late_cycles = 0

    # -- aggregation helpers -------------------------------------------------

    def total_l1_read_misses(self):
        return sum(sum(row) for row in self.l1_read_misses)

    def total_l2_read_misses(self):
        return sum(sum(row) for row in self.l2_read_misses)

    def l1_miss_rate(self):
        """L1 read miss rate (read misses / reads)."""
        return self.total_l1_read_misses() / self.l1_reads if self.l1_reads else 0.0

    def l2_miss_rate(self):
        """Global L2 miss rate: L2 read misses / L1 reads, as in the paper's
        "global miss rates" for the secondary cache."""
        return self.total_l2_read_misses() / self.l1_reads if self.l1_reads else 0.0

    def grouped(self, level="l2"):
        """Collapse the per-class miss grid into the paper's four groups.

        Returns ``{group: [cold, conf, cohe]}`` with groups ``Priv``,
        ``Data``, ``Index`` and ``Metadata``.
        """
        grid = self.l2_read_misses if level == "l2" else self.l1_read_misses
        groups = {"Priv": [0, 0, 0], "Data": [0, 0, 0],
                  "Index": [0, 0, 0], "Metadata": [0, 0, 0]}
        for c in range(N_CLASSES):
            cls = DataClass(c)
            if cls in METADATA_CLASSES:
                key = "Metadata"
            else:
                key = CLASS_NAMES[cls]
            for t in range(N_MISS_TYPES):
                groups[key][t] += grid[c][t]
        return groups

    # -- serialization -------------------------------------------------------

    def as_dict(self):
        """Plain-dict view of every counter: one key per slot, miss grids
        as nested lists (JSON-safe: everything is ints and lists), which is
        how the run report (:mod:`repro.obs.report`) embeds machine
        counters."""
        return {
            "l1_reads": self.l1_reads,
            "l1_writes": self.l1_writes,
            "l2_reads": self.l2_reads,
            "l1_read_misses": [list(row) for row in self.l1_read_misses],
            "l2_read_misses": [list(row) for row in self.l2_read_misses],
            "l1_write_misses": self.l1_write_misses,
            "l2_write_misses": self.l2_write_misses,
            "prefetches_issued": self.prefetches_issued,
            "prefetch_late_cycles": self.prefetch_late_cycles,
        }


class CpuStats:
    """Per-processor time accounting (cycles)."""

    __slots__ = ("busy", "msync", "mem_by_class", "finish_time", "events")

    def __init__(self):
        self.reset()

    def reset(self):
        self.busy = 0
        self.msync = 0
        self.mem_by_class = [0] * N_CLASSES
        self.finish_time = 0
        self.events = 0

    @property
    def mem(self):
        """Total memory stall cycles."""
        return sum(self.mem_by_class)

    @property
    def pmem(self):
        """Memory stall cycles on private data (the paper's PMem)."""
        return self.mem_by_class[DataClass.PRIV]

    @property
    def smem(self):
        """Memory stall cycles on shared data (the paper's SMem)."""
        return self.mem - self.pmem

    @property
    def total(self):
        """Total execution cycles for this processor."""
        return self.busy + self.msync + self.mem

    def mem_grouped(self):
        """Memory stall grouped into Priv/Data/Index/Metadata."""
        groups = {"Priv": 0, "Data": 0, "Index": 0, "Metadata": 0}
        for c in range(N_CLASSES):
            cls = DataClass(c)
            key = "Metadata" if cls in METADATA_CLASSES else CLASS_NAMES[cls]
            groups[key] += self.mem_by_class[c]
        return groups

    # -- serialization -------------------------------------------------------

    def as_dict(self):
        """Plain-dict view: one key per slot (JSON-safe: ints and a list of
        ints)."""
        return {
            "busy": self.busy,
            "msync": self.msync,
            "mem_by_class": list(self.mem_by_class),
            "finish_time": self.finish_time,
            "events": self.events,
        }


def merge_cpu_stats(stats_list):
    """Sum per-processor :class:`CpuStats` into one aggregate.

    An empty list returns a zeroed :class:`CpuStats` -- merging nothing is
    the identity, not an error.
    """
    out = CpuStats()
    for s in stats_list:
        out.busy += s.busy
        out.msync += s.msync
        out.events += s.events
        out.finish_time = max(out.finish_time, s.finish_time)
        for c in range(N_CLASSES):
            out.mem_by_class[c] += s.mem_by_class[c]
    return out
