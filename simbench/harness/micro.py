"""Synthetic single-path micro-traces for the ``memsim.numa`` model.

Each trace drives one path of the memory hierarchy and nothing else, so
host time per row is the cost of that path (Chen & Bader's method for
separating per-access cost from workload effects).  Traces are built from
the ``repro.memsim.events`` constructors and a chosen ``home_fn`` and run
through ``Interleaver.run`` on a fresh ``NumaMachine``; every trace's
simulated counters are checked against a closed form, and a trace that
misses its closed form counts as a mismatch.

All addresses assume the default machine: 32-byte L1 lines in a 4-KB
direct-mapped cache, 64-byte L2 lines in a 128-KB 2-way cache.
"""

from functools import partial
from time import perf_counter

#: Rows per micro-trace (the issue asks for at least 200 k).
ROWS = 200_000

L1_LINE, L2_LINE, L1_SIZE = 32, 64, 4 * 1024


def _machine(home, **config):
    from repro.memsim.numa import MachineConfig, NumaMachine

    return NumaMachine(MachineConfig(**config), home_fn=lambda addr: home)


def _timed_run(machine, streams, reset_stats=False):
    from repro.memsim.interleave import Interleaver

    t0 = perf_counter()
    run = Interleaver(machine).run([iter(s) for s in streams],
                                   reset_stats=reset_stats)
    return run, perf_counter() - t0


def _misses(grid):
    return sum(sum(row) for row in grid)


def _mem(run):
    return sum(s.mem for s in run.cpu_stats)


def busy(n):
    """Computation only: no reference reaches the machine."""
    from repro.memsim import events as ev

    m = _machine(0)
    run, secs = _timed_run(m, [[ev.busy(3)] * n])
    ok = (run.exec_time == 3 * n and run.total.busy == 3 * n
          and m.stats.l1_reads == 0 and _mem(run) == 0)
    return n, secs, ok


def l1_hit(n):
    """Word reads cycling over a resident 2-KB region: one L1 miss per
    32-byte line, one L2 miss per 64-byte line, everything else hits."""
    from repro.memsim import events as ev
    from repro.memsim.events import DataClass

    region = 2048
    m = _machine(0)
    rows = [ev.read(0x10000 + (4 * i) % region, 4, DataClass.PRIV)
            for i in range(n)]
    run, secs = _timed_run(m, [rows])
    l1_lines, l2_lines = region // L1_LINE, region // L2_LINE
    stall = l2_lines * m.lat_local + (l1_lines - l2_lines) * m.lat_l2
    ok = (m.stats.l1_reads == n
          and _misses(m.stats.l1_read_misses) == l1_lines
          and _misses(m.stats.l2_read_misses) == l2_lines
          and _mem(run) == stall and run.exec_time == n + stall)
    return n, secs, ok


def l2_hit(n):
    """Two lines that conflict in the direct-mapped L1 but share the L2:
    every read misses L1 and, after two cold fills, hits L2."""
    from repro.memsim import events as ev
    from repro.memsim.events import DataClass

    m = _machine(0)
    rows = [ev.read(0x10000 + (i & 1) * L1_SIZE, 4, DataClass.PRIV)
            for i in range(n)]
    run, secs = _timed_run(m, [rows])
    stall = 2 * m.lat_local + (n - 2) * m.lat_l2
    ok = (_misses(m.stats.l1_read_misses) == n
          and _misses(m.stats.l2_read_misses) == 2 and _mem(run) == stall)
    return n, secs, ok


def _l2_miss(n, home):
    """A read of a new 64-byte line every row: all cold L2 misses, served
    by node ``home`` (0 = local memory, 1 = clean remote, 2 hops)."""
    from repro.memsim import events as ev
    from repro.memsim.events import DataClass

    m = _machine(home)
    rows = [ev.read(0x100000 + L2_LINE * i, 4, DataClass.DATA)
            for i in range(n)]
    run, secs = _timed_run(m, [rows])
    latency = m.lat_local if home == 0 else m.lat_2hop
    ok = (_misses(m.stats.l2_read_misses) == n and _mem(run) == n * latency
          and run.exec_time == n + n * latency)
    return n, secs, ok


def l2_miss_3hop(n):
    """Reads of lines that are dirty in a third node.  Node 2 writes every
    line first (untimed, on an L2 large enough to keep them all dirty);
    node 0 then reads them with the home on node 1: three hops each."""
    from repro.memsim import events as ev
    from repro.memsim.events import DataClass
    from repro.memsim.interleave import Interleaver

    m = _machine(1, l2_size=32 * 1024 * 1024)
    base = 0x100000
    writes = [ev.write(base + L2_LINE * i, 4, DataClass.DATA)
              for i in range(n)]
    Interleaver(m).run([iter(()), iter(()), iter(writes)])
    reads = [ev.read(base + L2_LINE * i, 4, DataClass.DATA) for i in range(n)]
    run, secs = _timed_run(m, [reads], reset_stats=True)
    ok = (_misses(m.stats.l2_read_misses) == n
          and _mem(run) == n * m.lat_3hop)
    return n, secs, ok


def wb_saturate(n):
    """Stores to new remote lines: each retires in 2-hop time, the 16-entry
    write buffer fills, and the processor runs at the retire rate."""
    from repro.memsim import events as ev
    from repro.memsim.events import DataClass

    m = _machine(1)
    rows = [ev.write(0x100000 + L2_LINE * i, 4, DataClass.DATA)
            for i in range(n)]
    run, secs = _timed_run(m, [rows])
    ok = (m.stats.l2_write_misses == n and run.exec_time == n * m.lat_2hop
          and m.wb[0].stall_cycles > 0 and run.total.msync == 0)
    return n, secs, ok


def pingpong(n):
    """Two processors take turns on one line (home on a third node): each
    reads it, writes it and computes, half a period apart, so every read
    finds the line dirty in the other node -- a 3-hop coherence miss -- and
    every write is an upgrade that invalidates the other copy."""
    from repro.memsim import events as ev
    from repro.memsim.events import DataClass

    m = _machine(2)
    turns = n // 6
    addr = 0x100000
    period = 1000  # > 2 x (3-hop read + write), so the turns never overlap
    turn = [ev.read(addr, 4, DataClass.BUFDESC),
            ev.write(addr, 4, DataClass.BUFDESC),
            ev.busy(period - (m.lat_3hop + 2))]
    run, secs = _timed_run(m, [turn * turns,
                               [ev.busy(450)] + turn * turns])
    by_type = [sum(row[t] for row in m.stats.l2_read_misses)
               for t in range(3)]
    stall = (2 * turns - 1) * m.lat_3hop + m.lat_2hop
    ok = (by_type == [2, 0, 2 * turns - 2] and m.stats.l2_write_misses == 0
          and m.stats.l1_writes == 2 * turns and _mem(run) == stall)
    return 6 * turns + 1, secs, ok


def lock_spin(n):
    """Two processors contend for one spinlock, holding it for 40 cycles:
    test-and-set, spin on the cached copy, hand-off by invalidation."""
    from repro.memsim import events as ev
    from repro.memsim.events import DataClass

    m = _machine(2)
    turns = n // 6
    addr = 0x100000
    stream = [ev.lock_acquire("L", addr), ev.busy(40),
              ev.lock_release("L", addr)] * turns
    run, secs = _timed_run(m, [stream, list(stream)])
    cohe = m.stats.l2_read_misses[DataClass.LOCKSLOCK][2]
    ok = (run.total.busy == 2 * turns * 40
          and m.stats.l1_writes == 4 * turns
          and run.total.msync > 0 and cohe > 0 and _mem(run) == 0)
    return 6 * turns, secs, ok


def prefetch(n):
    """A sequential scan of database data, one new L1 line per read, on a
    prefetching machine: each line is fetched exactly once, by a demand
    miss or by the prefetcher."""
    from repro.memsim import events as ev
    from repro.memsim.events import DataClass

    m = _machine(0, prefetch_data=True)
    rows = [ev.read(0x100000 + L1_LINE * i, 4, DataClass.DATA)
            for i in range(n)]
    run, secs = _timed_run(m, [rows])
    demand = _misses(m.stats.l1_read_misses)
    issued = m.stats.prefetches_issued
    # The prefetcher may run up to its degree past the last line read.
    ok = (n <= demand + issued <= n + m.config.prefetch_degree
          and issued > n // 2)
    return n, secs, ok


PATHS = {
    "busy": busy, "l1_hit": l1_hit, "l2_hit": l2_hit,
    "l2_miss_local": partial(_l2_miss, home=0),
    "l2_miss_2hop": partial(_l2_miss, home=1),
    "l2_miss_3hop": l2_miss_3hop, "wb_saturate": wb_saturate,
    "pingpong": pingpong, "lock_spin": lock_spin, "prefetch": prefetch,
}


def run_path(name, rows=ROWS):
    """``(host ns per row, closed form held)`` for one path."""
    n, secs, ok = PATHS[name](rows)
    return 1e9 * secs / n, bool(ok)
