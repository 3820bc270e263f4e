"""Global-clock interleaver: the Mint-equivalent execution driver.

Each simulated processor is a stream of events (see
:mod:`repro.memsim.events`).  The interleaver always advances the processor
with the smallest clock, so shared-memory interactions (coherence,
spinlocks) happen in a consistent global time order, as they would under an
execution-driven simulator.

A stream never observes simulated time (spinning is modeled here, not
emitted by the stream), so :meth:`Interleaver.run` records each stream to
completion and replays the recordings on the scalar
:meth:`Interleaver.run_traces` engine.  A stream must therefore not depend
on another stream's progress.  Read-only queries and the partitions of one
query never do; concurrent DML is recorded as one session by
:mod:`repro.workload.session`.

Spinlocks are modeled as test-and-test-and-set: a waiting processor spins
on its cached copy of the lock word, re-reading it every ``spin_interval``
cycles; the release store invalidates the waiters' copies, so lock handoff
produces exactly the coherence misses on lock words that the paper observes
(the ``LockSLock`` bars of Figure 7).  All cycles spent acquiring,
spinning on, or releasing metalocks are accounted as *MSync* time.
"""

from bisect import bisect_left
from time import perf_counter

from repro.memsim.batch import (
    machine_batch_reason as _batch_reason,
    resolve_kernel as _resolve_kernel,
)
from repro.memsim.horizon import (
    HORIZON_MIN as _HORIZON_MIN,
    horizon_schedule as _horizon_schedule,
)
from repro.memsim.sanitize import (
    ENABLED as _sanitize,
    check_monotonic as _check_monotonic,
)
from repro.memsim.stats import CpuStats, merge_cpu_stats
from repro.obs import enabled as _obs_enabled
from repro.obs.metrics import registry as _registry


def _note_run(mode, cpu_stats, elapsed):
    """Record one interleaved run's event volume and dispatch rate.

    Called only when the observability layer is on (``repro.obs.enable``):
    the dispatch loops themselves are never instrumented -- one clock read
    at run start and one summary here keep the hot path untouched.
    """
    reg = _registry()
    events = sum(s.events for s in cpu_stats)
    reg.counter(f"interleave.{mode}.runs").inc()
    reg.counter(f"interleave.{mode}.events").inc(events)
    if elapsed > 0:
        reg.gauge(f"interleave.{mode}.events_per_s").set(
            round(events / elapsed, 1))


class LockProtocolError(RuntimeError):
    """A stream acquired or released a spinlock it must not."""


class RunResult:
    """Outcome of one interleaved multi-processor run."""

    def __init__(self, machine, cpu_stats):
        self.machine = machine
        self.cpu_stats = cpu_stats
        self.total = merge_cpu_stats(cpu_stats)

    @property
    def exec_time(self):
        """Wall-clock cycles: the last processor's finish time."""
        return max(s.finish_time for s in self.cpu_stats)

    def breakdown(self):
        """Return the Figure 6-(a) breakdown as fractions of total cycles."""
        t = self.total
        denom = t.total or 1
        return {"Busy": t.busy / denom, "MSync": t.msync / denom, "Mem": t.mem / denom}

    def mem_breakdown(self):
        """Return the Figure 6-(b) decomposition of memory stall time."""
        groups = self.total.mem_grouped()
        denom = sum(groups.values()) or 1
        return {k: v / denom for k, v in groups.items()}

    def time_components(self):
        """Absolute cycles: Busy, MSync, SMem, PMem (Figures 9 and 11)."""
        t = self.total
        return {"Busy": t.busy, "MSync": t.msync, "SMem": t.smem, "PMem": t.pmem}


class Interleaver:
    """Drives N event streams through one :class:`NumaMachine`."""

    def __init__(self, machine, spin_interval=30):
        self.machine = machine
        self.spin_interval = spin_interval

    def run(self, streams, reset_stats=False):
        """Interleave ``streams`` (one per processor) to completion.

        ``streams`` may be shorter than the machine's node count; stream *i*
        runs on node *i*.  When ``reset_stats`` is true, machine counters are
        zeroed first while cache contents are kept (warm-start experiments).

        Each stream is recorded to completion first, in order, so a stream
        must not depend on another stream's progress (see the module
        docstring).  The recordings replay on the scalar engine, and
        ``CpuStats.events`` counts encoded rows, not source events.
        """
        from repro.core.tracecache import record  # repro.core imports us

        n_nodes = self.machine.config.n_nodes
        if len(streams) > n_nodes:
            raise ValueError(f"{len(streams)} streams but only {n_nodes} nodes")
        traces = [record(stream) for stream in streams]
        return self._run_traces_scalar(traces, None, reset_stats)

    def run_traces(self, traces, sink=None, reset_stats=False, kernel=None):
        """Replay recorded traces array-directly: no generators, no tuples.

        ``traces`` holds one :class:`~repro.core.tracecache.QueryTrace` per
        processor (trace *i* runs on node *i*).  Each processor keeps an
        index cursor into its trace's columnar arrays and events dispatch
        straight from the columns; a contended lock acquire retries by
        *not* advancing the cursor.  Replaying a recording is bit-identical
        to interleaving the live streams it was recorded from: same cycles,
        same machine counters, same per-CPU accounting
        (``tests/test_tracecache.py`` asserts this for all 17 queries).

        ``kernel`` picks the dispatch engine: ``"scalar"`` (the pure-Python
        reference loop), ``"batched"`` (plan-driven inlined dispatch; see
        :mod:`repro.memsim.batch`), ``"horizon"`` (the batched engine's
        inlined dispatch plus the sharing-aware scheduler of
        :mod:`repro.memsim.horizon`, which retires classified-private
        regions *across* global-clock window cuts and replays the cuts
        from virtual clocks; opt-in only), ``"auto"`` to follow
        ``REPRO_KERNEL`` and default to batched when numpy is available,
        or ``None`` for the process default config's kernel (see
        :func:`repro.memsim.batch.resolve_kernel`).
        A request the machine cannot serve falls back down the tier chain
        -- horizon needs a pristine machine (its classifier only covers
        lines the current trace set touches) and degrades to batched on a
        warm one; prefetching machines and numpy-less processes degrade
        to scalar -- counting the reason under
        ``interleave.kernel.fallback.*``.  All engines are bit-identical
        by construction and by test.

        When ``sink`` is given, ``sink[i]`` is set to trace *i*'s recorded
        result rows as its stream completes.
        """
        kernel = _resolve_kernel(kernel)
        if kernel == "horizon":
            reason = _batch_reason(self.machine)
            if reason is None and not self.machine.is_pristine():
                reason = "warm_machine"
            if reason is None:
                return self._run_traces_horizon(traces, sink, reset_stats)
            _registry().counter("interleave.kernel.fallback." + reason).inc()
            kernel = "batched" if reason == "warm_machine" else "scalar"
        if kernel == "batched":
            reason = _batch_reason(self.machine)
            if reason is None:
                return self._run_traces_batched(traces, sink, reset_stats)
            _registry().counter("interleave.kernel.fallback." + reason).inc()
        return self._run_traces_scalar(traces, sink, reset_stats)

    def _run_traces_scalar(self, traces, sink, reset_stats):
        """The scalar ``run_traces`` engine: one dispatch per trace row.

        This is the reference oracle the batched kernel is checked
        against; its dispatch semantics define bit-identity.
        """
        machine = self.machine
        if len(traces) > machine.config.n_nodes:
            raise ValueError(
                f"{len(traces)} traces but only {machine.config.n_nodes} nodes"
            )
        if reset_stats:
            machine.reset_stats()
        t0 = perf_counter()

        n = len(traces)
        clocks = [0] * n
        cpu_stats = [CpuStats() for _ in range(n)]
        cursors = [0] * n
        ends = [len(t) for t in traces]
        # The at-rest ``array`` columns, indexed directly: a list copy
        # would keep a boxed int per row resident for the trace's life.
        kinds_col = [t.kinds for t in traces]
        a_col = [t.a for t in traces]
        b_col = [t.b for t in traces]
        c_col = [t.c for t in traces]
        d_col = [t.d for t in traces]
        e_col = [t.e for t in traces]
        lock_tables = [t.lock_ids for t in traces]
        alive = list(range(n))
        lock_holder = {}
        spin_interval = self.spin_interval
        mread = machine.read
        mwrite = machine.write
        mstats = machine.stats
        drain_time = machine.drain_time
        # Fused L1 read-hit fast path: a single-line load that hits the
        # primary cache touches nothing but the L1 set and the read
        # counter, so the dispatch loop probes it inline and only calls
        # machine.read for misses and line-crossing accesses.  Disabled
        # when prefetching is on -- then even a hit must check the
        # pending-fill table, which stays machine.read's job.
        l1_shift = machine._l1_shift
        l1_mask = machine._l1_mask
        l1_sets = machine._l1_sets
        fuse_hits = not machine._prefetch_data
        # Int sentinel (not float inf): every per-event "now >= limit"
        # check stays an int-int comparison.
        INF = 1 << 62

        # The replay dispatch loop.
        while alive:
            # Pick the earliest processor (``alive`` stays sorted, so ties
            # resolve to the lowest index exactly as ``min`` does) and the
            # earliest *other* clock.  While this processor stays strictly
            # below that limit it remains the unique argmin, so its rows
            # dispatch in a tight inner loop with no rescan per row.
            k = len(alive)
            if k == 1:
                cpu = alive[0]
                limit = INF
            elif k == 2:
                c0, c1 = alive
                if clocks[c0] <= clocks[c1]:
                    cpu, limit = c0, clocks[c1]
                else:
                    cpu, limit = c1, clocks[c0]
            else:
                # One pass for both the argmin and the runner-up clock
                # (ties keep the earlier index, matching ``min``).
                ait = iter(alive)
                cpu = next(ait)
                best = clocks[cpu]
                limit = INF
                for i in ait:
                    ci = clocks[i]
                    if ci < best:
                        cpu, limit, best = i, best, ci
                    elif ci < limit:
                        limit = ci

            tk = kinds_col[cpu]
            ta = a_col[cpu]
            tb = b_col[cpu]
            tc = c_col[cpu]
            td = d_col[cpu]
            te = e_col[cpu]
            lock_ids = lock_tables[cpu]
            cpu_l1 = l1_sets[cpu]
            pos = cursors[cpu]
            end = ends[cpu]
            stats = cpu_stats[cpu]
            mem_by_class = stats.mem_by_class
            now = clocks[cpu]
            # Stats deltas accumulate in locals and flush when the
            # dispatch run ends; nothing inside the run reads them.
            # Dispatched events are the cursor advance plus lock retries
            # (the only dispatch that leaves the cursor in place), so the
            # loop body never counts them one by one.
            start_pos = pos
            retry_acc = busy_acc = msync_acc = l1_acc = 0

            while True:
                if pos >= end:
                    alive.remove(cpu)
                    now = drain_time(cpu, now)
                    clocks[cpu] = now
                    stats.finish_time = now
                    if sink is not None:
                        sink[cpu] = traces[cpu].rows
                    # Cold: the sweep runs once per finished stream, not
                    # per event.
                    if _sanitize:
                        machine.check_invariants()
                    break

                kind = tk[pos]

                if kind == 0:  # EV_READ (+ fused trailing busy/hit run)
                    addr = ta[pos]
                    size = tb[pos]
                    stall = -1
                    if fuse_hits:
                        first = addr >> l1_shift
                        if first == (addr + size - 1) >> l1_shift:
                            ways = cpu_l1[first & l1_mask]
                            if first in ways:
                                if ways[0] != first:
                                    ways.remove(first)
                                    ways.insert(0, first)
                                l1_acc += 1 if size <= 4 else (size + 3) >> 2
                                stall = 0
                    if stall < 0:
                        stall = mread(cpu, addr, size, tc[pos], now)
                        if stall:
                            mem_by_class[tc[pos]] += stall
                    inert = td[pos]
                    busy_acc += 1 + inert
                    now += 1 + stall + inert
                    l1_acc += te[pos]
                    pos += 1
                elif kind == 1:  # EV_WRITE (+ fused trailing busy/hit run)
                    cls = tc[pos]
                    stall = mwrite(cpu, ta[pos], tb[pos], cls, now)
                    inert = td[pos]
                    busy_acc += 1 + inert
                    if stall:
                        mem_by_class[cls] += stall
                        now += 1 + stall + inert
                    else:
                        now += 1 + inert
                    l1_acc += te[pos]
                    pos += 1
                elif kind == 2:  # EV_BUSY (already coalesced at record time)
                    cycles = ta[pos]
                    busy_acc += cycles
                    now += cycles
                    pos += 1
                elif kind == 5:  # EV_HIT: always-hit stack/static references
                    count = ta[pos]
                    busy_acc += count
                    l1_acc += count
                    now += count
                    pos += 1
                elif kind == 3:  # EV_LOCK_ACQ
                    lock_id = lock_ids[ta[pos]]
                    addr = tb[pos]
                    cls = tc[pos]
                    holder = lock_holder.get(lock_id)
                    if holder == cpu:
                        raise LockProtocolError(
                            f"cpu {cpu} re-acquired spinlock {lock_id!r}"
                        )
                    if holder is None:
                        cost = 2
                        cost += mread(cpu, addr, 4, cls, now)
                        cost += mwrite(cpu, addr, 4, cls, now + cost)
                        msync_acc += cost
                        now += cost
                        lock_holder[lock_id] = cpu
                        pos += 1
                    else:
                        # Spin and retry: the cursor stays on this event,
                        # so the next dispatch re-attempts the acquire --
                        # and the new clock is never below the holder's,
                        # so the retry always rescans first.
                        wait = spin_interval
                        holder_clock = clocks[holder]
                        if holder_clock > now + wait:
                            wait = holder_clock - now
                        wait += mread(cpu, addr, 4, cls, now)
                        msync_acc += wait
                        now += wait
                        retry_acc += 1
                else:  # EV_LOCK_REL (kind == 4)
                    lock_id = lock_ids[ta[pos]]
                    addr = tb[pos]
                    cls = tc[pos]
                    if lock_holder.get(lock_id) != cpu:
                        raise LockProtocolError(
                            f"cpu {cpu} released spinlock {lock_id!r} "
                            "it does not hold"
                        )
                    del lock_holder[lock_id]
                    cost = 1 + mwrite(cpu, addr, 4, cls, now)
                    msync_acc += cost
                    now += cost
                    pos += 1

                if now >= limit:
                    clocks[cpu] = now
                    cursors[cpu] = pos
                    break

            stats.events += (pos - start_pos) + retry_acc
            stats.busy += busy_acc
            stats.msync += msync_acc
            if l1_acc:
                mstats.l1_reads += l1_acc

        elapsed = perf_counter() - t0
        reg = _registry()
        reg.counter("interleave.kernel.scalar.runs").inc()
        reg.counter("interleave.kernel.scalar.seconds").inc(elapsed)
        if _obs_enabled():
            _note_run("run_traces", cpu_stats, elapsed)
        return RunResult(machine, cpu_stats)

    def _run_traces_batched(self, traces, sink, reset_stats):
        """The batched ``run_traces`` engine: plan-driven inlined dispatch.

        Identical window selection, per-event costs, and accounting to
        :meth:`_run_traces_scalar`, restructured around the per-trace
        :class:`~repro.memsim.batch.BatchPlan`.  Rows the plan tagged
        (single-line reads and writes; the vast majority of a DSS trace)
        retire through copies of the machine's read/write hot paths
        inlined into the dispatch loop.  The plan's ``mem_lines`` column
        hands the loop the precomputed primary-line tag, so the per-row
        method call, address decomposition, and attribute chases of
        scalar dispatch all disappear; counter updates accumulate in
        locals and flush at window boundaries.  Every machine-state
        transition -- cache fills, LRU moves, directory transactions,
        write-buffer issue -- happens one row at a time in the same
        global order at the same cycle as under scalar dispatch.

        Rows the plan marked slow (line-crossing accesses, lock events,
        busy/hit rows) dispatch through branches copied verbatim from
        the scalar engine.  Bit-identity is asserted
        by ``tests/test_batch.py`` and the trace-cache suite under
        ``REPRO_KERNEL=batched``.
        """
        machine = self.machine
        if len(traces) > machine.config.n_nodes:
            raise ValueError(
                f"{len(traces)} traces but only {machine.config.n_nodes} nodes"
            )
        l1_shift = machine._l1_shift
        plans = [t.batch_plan(l1_shift) for t in traces]
        if any(p is None for p in plans):
            _registry().counter("interleave.kernel.fallback.no_numpy").inc()
            return self._run_traces_scalar(traces, sink, reset_stats)
        if reset_stats:
            machine.reset_stats()
        t0 = perf_counter()

        n = len(traces)
        clocks = [0] * n
        cpu_stats = [CpuStats() for _ in range(n)]
        cursors = [0] * n
        ends = [len(t) for t in traces]
        total_rows = sum(ends)
        INF = 1 << 62
        scalar_rows = 0
        alive = list(range(n))
        lock_holder = {}
        spin_interval = self.spin_interval
        mread = machine.read
        mwrite = machine.write
        drain_time = machine.drain_time
        # Aliases for the inlined read/write hot paths, bound after the
        # stats reset (which replaces the counter containers).  Every
        # aliased container is mutated in place by the machine's own
        # helpers, so the aliases never go stale mid-run.
        mstats = machine.stats
        l1rm = mstats.l1_read_misses
        l2rm = mstats.l2_read_misses
        l1_sets = machine._l1_sets
        l2_sets = machine._l2_sets
        seen1_col = [c._seen for c in machine.l1]
        inv1_col = [c._invalidated for c in machine.l1]
        seen2_col = [c._seen for c in machine.l2]
        inv2_col = [c._invalidated for c in machine.l2]
        l1_assoc = machine.l1[0].assoc
        l2_assoc = machine.l2[0].assoc
        wbs = machine.wb
        wb_cap = wbs[0].capacity
        dirty = machine.directory._dirty
        dirty_get = dirty.get
        sharers = machine.directory._sharers
        port_free = machine._port_free
        home_fn = machine.home_fn
        inval_others = machine._invalidate_others
        evict_l2 = machine._evict_l2
        l1_mask = machine._l1_mask
        l2_mask = machine._l2_mask
        ratio_shift = machine._ratio_shift
        l2_shift = machine._l2_shift
        lat_l2 = machine.lat_l2
        lat_local = machine.lat_local
        lat_2hop = machine.lat_2hop
        lat_3hop = machine.lat_3hop
        wb_retire = machine._wb_retire

        # Per-CPU dispatch context, one tuple per processor.  The global
        # clock hands out short windows (a couple of rows on average), so
        # per-window rebinding dominates unless every loop-invariant
        # binding lands in the frame with a single sequence unpack.
        ctxs = []
        for i in range(n):
            t = traces[i]
            p = plans[i]
            wb_i = machine.wb[i]
            ctxs.append((
                t.kinds, t.a, t.b, t.c, t.d, t.e,
                p.mem_lines, p.mcost, p.mreads, t.lock_ids,
                l1_sets[i], l2_sets[i], seen1_col[i], inv1_col[i],
                seen2_col[i], inv2_col[i], wb_i, wb_i.entries,
                wb_i.entries.popleft, wb_i.entries.append,
                ends[i], cpu_stats[i], cpu_stats[i].mem_by_class))

        # The batched replay dispatch loop.
        while alive:
            # Identical argmin/limit selection to the scalar engine: the
            # chosen processor dispatches in a tight loop while it stays
            # strictly the earliest clock.
            k = len(alive)
            if k == 1:
                cpu = alive[0]
                limit = INF
            elif k == 2:
                c0, c1 = alive
                if clocks[c0] <= clocks[c1]:
                    cpu, limit = c0, clocks[c1]
                else:
                    cpu, limit = c1, clocks[c0]
            else:
                ait = iter(alive)
                cpu = next(ait)
                best = clocks[cpu]
                limit = INF
                for i in ait:
                    ci = clocks[i]
                    if ci < best:
                        cpu, limit, best = i, best, ci
                    elif ci < limit:
                        limit = ci

            (tk, ta, tb, tc, td, te, pl, pmc, pmr, lock_ids,
             cpu_l1, cpu_l2, seen1, inv1, seen2, inv2, wb, wb_entries,
             wb_pop, wb_app, end, stats, mem_by_class) = ctxs[cpu]
            pos = cursors[cpu]
            now = clocks[cpu]
            start_pos = pos
            retry_acc = busy_acc = msync_acc = 0
            l1_acc = l1w_acc = l2r_acc = l2wm_acc = 0

            while True:
                if pos >= end:
                    alive.remove(cpu)
                    now = drain_time(cpu, now)
                    clocks[cpu] = now
                    stats.finish_time = now
                    if sink is not None:
                        sink[cpu] = traces[cpu].rows
                    # Cold: the sweep runs once per finished stream, not
                    # per event.
                    if _sanitize:
                        machine.check_invariants()
                    break

                kind = tk[pos]

                if kind == 0:  # EV_READ (+ fused trailing busy/hit run)
                    line1 = pl[pos]
                    if line1 >= 0:
                        # Inline tier: NumaMachine.read's single-line hot
                        # path with the plan's precomputed line tag, word
                        # count (pmr: words + fused hits), and retire cost
                        # (pmc: 1 + fused busy cycles).
                        l1_acc += pmr[pos]
                        ways = cpu_l1[line1 & l1_mask]
                        if line1 in ways:
                            if ways[0] != line1:
                                ways.remove(line1)
                                ways.insert(0, line1)
                            cost = pmc[pos]
                            busy_acc += cost
                            now += cost
                        else:
                            cls = tc[pos]
                            l1rm[cls][
                                0 if line1 not in seen1
                                else 2 if line1 in inv1 else 1
                            ] += 1
                            line2 = line1 >> ratio_shift
                            l2r_acc += 1
                            ways2 = cpu_l2[line2 & l2_mask]
                            if line2 in ways2:
                                if ways2[0] != line2:
                                    ways2.remove(line2)
                                    ways2.insert(0, line2)
                                stall = lat_l2
                            else:
                                l2rm[cls][
                                    0 if line2 not in seen2
                                    else 2 if line2 in inv2 else 1
                                ] += 1
                                home = home_fn(line2 << l2_shift)
                                owner = dirty_get(line2)
                                if owner is not None and owner != cpu:
                                    stall = lat_2hop if home == cpu \
                                        else lat_3hop
                                    del dirty[line2]
                                else:
                                    stall = lat_local if home == cpu \
                                        else lat_2hop
                                holders = sharers.get(line2)
                                if holders is None:
                                    sharers[line2] = {cpu}
                                else:
                                    holders.add(cpu)
                                ways2.insert(0, line2)
                                seen2.add(line2)
                                inv2.discard(line2)
                                if len(ways2) > l2_assoc:
                                    evict_l2(cpu, ways2.pop())
                                if stall > lat_l2:
                                    # Demand fill from beyond the L2 queues
                                    # behind in-flight fills on this node's
                                    # memory port.
                                    wait = port_free[cpu] - now
                                    if wait > 0:
                                        stall += wait
                                    port_free[cpu] = now + stall
                            ways.insert(0, line1)
                            seen1.add(line1)
                            inv1.discard(line1)
                            if len(ways) > l1_assoc:
                                ways.pop()
                            mem_by_class[cls] += stall
                            cost = pmc[pos]
                            busy_acc += cost
                            now += cost + stall
                        pos += 1
                    else:
                        # Line-crossing load: NumaMachine.read's multi-line
                        # path with _read_line inlined per primary line
                        # (tuple copies average ~2-4 lines; the per-line
                        # method call was the next-hottest cost after the
                        # single-line paths moved inline).
                        scalar_rows += 1
                        addr = ta[pos]
                        size = tb[pos]
                        cls = tc[pos]
                        first = addr >> l1_shift
                        last = (addr + size - 1) >> l1_shift
                        nlines = last - first + 1
                        words = (size + 3) >> 2
                        if words > nlines:
                            l1_acc += words - nlines
                        stall = 0
                        while True:
                            l1_acc += 1
                            ways = cpu_l1[first & l1_mask]
                            if first in ways:
                                if ways[0] != first:
                                    ways.remove(first)
                                    ways.insert(0, first)
                            else:
                                l1rm[cls][
                                    0 if first not in seen1
                                    else 2 if first in inv1 else 1
                                ] += 1
                                line2 = first >> ratio_shift
                                l2r_acc += 1
                                ways2 = cpu_l2[line2 & l2_mask]
                                if line2 in ways2:
                                    if ways2[0] != line2:
                                        ways2.remove(line2)
                                        ways2.insert(0, line2)
                                    lat = lat_l2
                                else:
                                    l2rm[cls][
                                        0 if line2 not in seen2
                                        else 2 if line2 in inv2 else 1
                                    ] += 1
                                    home = home_fn(line2 << l2_shift)
                                    owner = dirty_get(line2)
                                    if owner is not None and owner != cpu:
                                        lat = lat_2hop if home == cpu \
                                            else lat_3hop
                                        del dirty[line2]
                                    else:
                                        lat = lat_local if home == cpu \
                                            else lat_2hop
                                    holders = sharers.get(line2)
                                    if holders is None:
                                        sharers[line2] = {cpu}
                                    else:
                                        holders.add(cpu)
                                    ways2.insert(0, line2)
                                    seen2.add(line2)
                                    inv2.discard(line2)
                                    if len(ways2) > l2_assoc:
                                        evict_l2(cpu, ways2.pop())
                                    if lat > lat_l2:
                                        # Fill queues behind in-flight fills
                                        # on this node's memory port.
                                        now_l = now + stall
                                        wait = port_free[cpu] - now_l
                                        if wait > 0:
                                            lat += wait
                                        port_free[cpu] = now_l + lat
                                ways.insert(0, first)
                                seen1.add(first)
                                inv1.discard(first)
                                if len(ways) > l1_assoc:
                                    ways.pop()
                                stall += lat
                            if first >= last:
                                break
                            first += 1
                        if stall:
                            mem_by_class[cls] += stall
                        inert = td[pos]
                        busy_acc += 1 + inert
                        now += 1 + stall + inert
                        l1_acc += te[pos]
                        pos += 1
                elif kind == 1:  # EV_WRITE (+ fused trailing busy/hit run)
                    line1 = pl[pos]
                    if line1 >= 0:
                        # Inline tier: NumaMachine.write's single-line hot
                        # path, including the write-buffer issue.
                        size = tb[pos]
                        l1w_acc += 1 if size <= 4 else (size + 3) >> 2
                        line2 = line1 >> ratio_shift
                        ways = cpu_l1[line1 & l1_mask]
                        if line1 in ways and ways[0] != line1:
                            ways.remove(line1)
                            ways.insert(0, line1)
                        ways2 = cpu_l2[line2 & l2_mask]
                        if line2 in ways2:
                            if ways2[0] != line2:
                                ways2.remove(line2)
                                ways2.insert(0, line2)
                            if dirty_get(line2) == cpu:
                                retire = wb_retire
                            else:
                                # Upgrade: ask the home directory,
                                # invalidate other copies.
                                home = home_fn(line2 << l2_shift)
                                retire = lat_local if home == cpu \
                                    else lat_2hop
                                inval_others(cpu, line2)
                        else:
                            l2wm_acc += 1
                            home = home_fn(line2 << l2_shift)
                            owner = dirty_get(line2)
                            if owner is not None and owner != cpu:
                                retire = lat_2hop if home == cpu \
                                    else lat_3hop
                            else:
                                retire = lat_local if home == cpu \
                                    else lat_2hop
                            inval_others(cpu, line2)
                            ways2.insert(0, line2)
                            seen2.add(line2)
                            inv2.discard(line2)
                            if len(ways2) > l2_assoc:
                                evict_l2(cpu, ways2.pop())
                        # Write-buffer issue, as in NumaMachine.write;
                        # wb state stays on the object because lock rows
                        # reach it through machine.write mid-window.
                        while wb_entries and wb_entries[0] <= now:
                            wb_pop()
                        stall = 0
                        if len(wb_entries) >= wb_cap:
                            oldest = wb_pop()
                            if oldest > now:
                                stall = oldest - now
                                wb.stall_cycles += stall
                        completion = wb._last_completion
                        issue_time = now + stall
                        if issue_time > completion:
                            completion = issue_time
                        completion += retire
                        wb._last_completion = completion
                        wb_app(completion)
                        cost = pmc[pos]
                        busy_acc += cost
                        if stall:
                            mem_by_class[tc[pos]] += stall
                            now += cost + stall
                        else:
                            now += cost
                        l1_acc += pmr[pos]
                        pos += 1
                    else:
                        # Line-crossing store: NumaMachine.write's
                        # multi-line path with _write_line inlined per
                        # primary line (tuple stores average ~4 lines).
                        scalar_rows += 1
                        addr = ta[pos]
                        size = tb[pos]
                        cls = tc[pos]
                        first = addr >> l1_shift
                        last = (addr + size - 1) >> l1_shift
                        nlines = last - first + 1
                        words = (size + 3) >> 2
                        if words > nlines:
                            l1w_acc += words - nlines
                        stall = 0
                        while True:
                            l1w_acc += 1
                            now_l = now + stall
                            ways = cpu_l1[first & l1_mask]
                            if first in ways and ways[0] != first:
                                ways.remove(first)
                                ways.insert(0, first)
                            line2 = first >> ratio_shift
                            ways2 = cpu_l2[line2 & l2_mask]
                            if line2 in ways2:
                                if ways2[0] != line2:
                                    ways2.remove(line2)
                                    ways2.insert(0, line2)
                                if dirty_get(line2) == cpu:
                                    retire = wb_retire
                                else:
                                    # Upgrade: ask the home directory,
                                    # invalidate other copies.
                                    home = home_fn(line2 << l2_shift)
                                    retire = lat_local if home == cpu \
                                        else lat_2hop
                                    inval_others(cpu, line2)
                            else:
                                l2wm_acc += 1
                                home = home_fn(line2 << l2_shift)
                                owner = dirty_get(line2)
                                if owner is not None and owner != cpu:
                                    retire = lat_2hop if home == cpu \
                                        else lat_3hop
                                else:
                                    retire = lat_local if home == cpu \
                                        else lat_2hop
                                inval_others(cpu, line2)
                                ways2.insert(0, line2)
                                seen2.add(line2)
                                inv2.discard(line2)
                                if len(ways2) > l2_assoc:
                                    evict_l2(cpu, ways2.pop())
                            # Write-buffer issue at this line's clock.
                            while wb_entries and wb_entries[0] <= now_l:
                                wb_pop()
                            wstall = 0
                            if len(wb_entries) >= wb_cap:
                                oldest = wb_pop()
                                if oldest > now_l:
                                    wstall = oldest - now_l
                                    wb.stall_cycles += wstall
                            completion = wb._last_completion
                            issue_time = now_l + wstall
                            if issue_time > completion:
                                completion = issue_time
                            completion += retire
                            wb._last_completion = completion
                            wb_app(completion)
                            stall += wstall
                            if first >= last:
                                break
                            first += 1
                        inert = td[pos]
                        busy_acc += 1 + inert
                        if stall:
                            mem_by_class[cls] += stall
                            now += 1 + stall + inert
                        else:
                            now += 1 + inert
                        l1_acc += te[pos]
                        pos += 1
                elif kind == 2:  # EV_BUSY (already coalesced at record time)
                    scalar_rows += 1
                    cycles = ta[pos]
                    busy_acc += cycles
                    now += cycles
                    pos += 1
                elif kind == 5:  # EV_HIT: always-hit stack/static references
                    scalar_rows += 1
                    count = ta[pos]
                    busy_acc += count
                    l1_acc += count
                    now += count
                    pos += 1
                elif kind == 3:  # EV_LOCK_ACQ
                    lock_id = lock_ids[ta[pos]]
                    addr = tb[pos]
                    cls = tc[pos]
                    holder = lock_holder.get(lock_id)
                    if holder == cpu:
                        raise LockProtocolError(
                            f"cpu {cpu} re-acquired spinlock {lock_id!r}"
                        )
                    if holder is None:
                        scalar_rows += 1
                        cost = 2
                        cost += mread(cpu, addr, 4, cls, now)
                        cost += mwrite(cpu, addr, 4, cls, now + cost)
                        msync_acc += cost
                        now += cost
                        lock_holder[lock_id] = cpu
                        pos += 1
                    else:
                        # Spin and retry: the cursor stays on this event,
                        # so the next dispatch re-attempts the acquire --
                        # and the new clock is never below the holder's,
                        # so the retry always rescans first.
                        wait = spin_interval
                        holder_clock = clocks[holder]
                        if holder_clock > now + wait:
                            wait = holder_clock - now
                        wait += mread(cpu, addr, 4, cls, now)
                        msync_acc += wait
                        now += wait
                        retry_acc += 1
                else:  # EV_LOCK_REL (kind == 4)
                    scalar_rows += 1
                    lock_id = lock_ids[ta[pos]]
                    addr = tb[pos]
                    cls = tc[pos]
                    if lock_holder.get(lock_id) != cpu:
                        raise LockProtocolError(
                            f"cpu {cpu} released spinlock {lock_id!r} "
                            "it does not hold"
                        )
                    del lock_holder[lock_id]
                    cost = 1 + mwrite(cpu, addr, 4, cls, now)
                    msync_acc += cost
                    now += cost
                    pos += 1

                if now >= limit:
                    clocks[cpu] = now
                    cursors[cpu] = pos
                    break

            stats.events += (pos - start_pos) + retry_acc
            stats.busy += busy_acc
            stats.msync += msync_acc
            if l1_acc:
                mstats.l1_reads += l1_acc
            if l1w_acc:
                mstats.l1_writes += l1w_acc
            if l2r_acc:
                mstats.l2_reads += l2r_acc
            if l2wm_acc:
                mstats.l2_write_misses += l2wm_acc

        elapsed = perf_counter() - t0
        reg = _registry()
        reg.counter("interleave.kernel.batched.runs").inc()
        reg.counter("interleave.kernel.batched.seconds").inc(elapsed)
        reg.counter("interleave.batch.inline_rows").inc(
            total_rows - scalar_rows)
        reg.counter("interleave.batch.scalar_rows").inc(scalar_rows)
        if _obs_enabled():
            _note_run("run_traces", cpu_stats, elapsed)
        return RunResult(machine, cpu_stats)

    def _run_traces_horizon(self, traces, sink, reset_stats):
        """The horizon ``run_traces`` engine: sharing-aware retire-ahead.

        Everything the batched engine does (plan-driven inlined
        dispatch), plus the :mod:`repro.memsim.horizon` schedule: rows
        whose spans touch no write-shared L2 line cannot interact with
        another processor, so whenever the next interaction
        horizon (boundary row) is at least ``HORIZON_MIN`` rows away, the
        engine retires the whole region in one pass -- ignoring the
        global-clock window limit -- and records each row's completion
        time in a **virtual clock** list.  Later windows that would have
        re-dispatched this processor replay from the virtual clock with a
        single bisect (no context unpack, no per-row work) until it
        drains, reproducing scalar dispatch's clock-flush trajectory
        exactly: window selection, spin-wait observations of other
        processors' clocks, finish order, and every machine counter come
        out bit-identical, which ``tests/test_batch.py`` asserts under
        ``REPRO_KERNEL=horizon``.

        The static classification cannot see eviction order, so the pass
        carries a dynamic guard: before any fill it probes the victim L1
        set (reads only; the write-through L1 never allocates on stores)
        and, when the L2 line is absent, the victim L2 set, for a
        resident write-shared line -- evicting one early would reorder
        it against another processor's coherence traffic -- and stops
        the pass at the first unsafe fill
        (``interleave.horizon.guard_stops``).  A guard hit on the very
        first row of a pass dispatches that row anyway: the pass enters
        at the processor's true clock, so the first row's dispatch time
        *is* the scalar one, and the pass always makes progress.

        The caller guarantees a pristine machine
        (:meth:`NumaMachine.is_pristine`): residue from an earlier
        replay could make a line the classifier never saw observable by
        another processor, which is exactly the interaction the
        schedule rules out.
        """
        machine = self.machine
        if len(traces) > machine.config.n_nodes:
            raise ValueError(
                f"{len(traces)} traces but only {machine.config.n_nodes} nodes"
            )
        l1_shift = machine._l1_shift
        plans = [t.batch_plan(l1_shift) for t in traces]
        sched = _horizon_schedule(traces, machine._l2_shift)
        if sched is None or any(p is None for p in plans):
            _registry().counter("interleave.kernel.fallback.no_numpy").inc()
            return self._run_traces_scalar(traces, sink, reset_stats)
        ws_set = sched.ws
        if reset_stats:
            machine.reset_stats()
        t0 = perf_counter()

        n = len(traces)
        clocks = [0] * n
        cpu_stats = [CpuStats() for _ in range(n)]
        cursors = [0] * n
        ends = [len(t) for t in traces]
        total_rows = sum(ends)
        INF = 1 << 62
        hz_min = _HORIZON_MIN
        # Virtual clocks: vts[cpu] is the completion-time list of rows
        # retired past the current window cut (None when the processor
        # is live), vjs[cpu] the replay cursor into it.
        vts = [None] * n
        vjs = [0] * n
        n_virtual = 0
        hz_rows = 0
        hz_regions = 0
        hz_guard = 0
        hz_vwin = 0
        hz_ff = 0
        scalar_rows = 0
        alive = list(range(n))
        lock_holder = {}
        spin_interval = self.spin_interval
        mread = machine.read
        mwrite = machine.write
        drain_time = machine.drain_time
        # Aliases for the inlined read/write hot paths, bound after the
        # stats reset (which replaces the counter containers), exactly as
        # in the batched engine.
        mstats = machine.stats
        l1rm = mstats.l1_read_misses
        l2rm = mstats.l2_read_misses
        l1_sets = machine._l1_sets
        l2_sets = machine._l2_sets
        seen1_col = [c._seen for c in machine.l1]
        inv1_col = [c._invalidated for c in machine.l1]
        seen2_col = [c._seen for c in machine.l2]
        inv2_col = [c._invalidated for c in machine.l2]
        l1_assoc = machine.l1[0].assoc
        l2_assoc = machine.l2[0].assoc
        wbs = machine.wb
        wb_cap = wbs[0].capacity
        dirty = machine.directory._dirty
        dirty_get = dirty.get
        sharers = machine.directory._sharers
        port_free = machine._port_free
        home_fn = machine.home_fn
        inval_others = machine._invalidate_others
        evict_l2 = machine._evict_l2
        l1_mask = machine._l1_mask
        l2_mask = machine._l2_mask
        ratio_shift = machine._ratio_shift
        l2_shift = machine._l2_shift
        lat_l2 = machine.lat_l2
        lat_local = machine.lat_local
        lat_2hop = machine.lat_2hop
        lat_3hop = machine.lat_3hop
        wb_retire = machine._wb_retire

        # Per-CPU dispatch context: the batched engine's tuple plus the
        # horizon plan's next-boundary array.
        ctxs = []
        for i in range(n):
            t = traces[i]
            p = plans[i]
            wb_i = machine.wb[i]
            ctxs.append((
                t.kinds, t.a, t.b, t.c, t.d, t.e,
                p.mem_lines, p.mcost, p.mreads, t.lock_ids,
                l1_sets[i], l2_sets[i], seen1_col[i], inv1_col[i],
                seen2_col[i], inv2_col[i], wb_i, wb_i.entries,
                wb_i.entries.popleft, wb_i.entries.append,
                ends[i], cpu_stats[i], cpu_stats[i].mem_by_class,
                sched.plans[i].stops))

        # The horizon replay dispatch loop.
        while alive:
            k = len(alive)
            if n_virtual == k and k > 1:
                # Merge fast-forward: every live processor is replaying
                # from a virtual clock, so no machine state can change
                # until one of them drains -- and the whole window-by-
                # window argmin/bisect merge up to that drain is already
                # determined by the recorded completions.  The drainer
                # is the processor with the smallest final completion
                # (lowest index on ties, matching the argmin); every
                # other clock lands on its first completion >= the
                # drainer's last one, consuming an exactly-equal
                # completion only when its index precedes the drainer's
                # (the argmin would have selected it first).  Clocks
                # already past that point never get selected in between
                # and stay put.  One pass here replaces up to thousands
                # of per-window virtual hops.
                cpu = alive[0]
                M = vts[cpu][-1]
                for c in alive:
                    last = vts[c][-1]
                    if last < M:
                        cpu, M = c, last
                limit = INF
                for d in alive:
                    if d == cpu:
                        continue
                    cd = clocks[d]
                    if cd < M or (cd == M and d < cpu):
                        vt_d = vts[d]
                        j = bisect_left(vt_d, M, vjs[d])
                        if vt_d[j] == M and d < cpu:
                            j += 1
                        cd = vt_d[j]
                        clocks[d] = cd
                        vjs[d] = j + 1
                    if cd < limit:
                        limit = cd
                # The drainer resumes real dispatch below, exactly as
                # the stepped exhaustion path would.
                vt = vts[cpu]
                vts[cpu] = None
                n_virtual -= 1
                hz_ff += 1
            else:
                # Identical argmin/limit selection to the scalar engine.
                if k == 1:
                    cpu = alive[0]
                    limit = INF
                elif k == 2:
                    c0, c1 = alive
                    if clocks[c0] <= clocks[c1]:
                        cpu, limit = c0, clocks[c1]
                    else:
                        cpu, limit = c1, clocks[c0]
                else:
                    ait = iter(alive)
                    cpu = next(ait)
                    best = clocks[cpu]
                    limit = INF
                    for i in ait:
                        ci = clocks[i]
                        if ci < best:
                            cpu, limit, best = i, best, ci
                        elif ci < limit:
                            limit = ci

                vt = vts[cpu]
                if vt is not None:
                    # Virtual replay: this processor's next rows are
                    # already retired, so advance its clock to the first
                    # completion at or past the limit -- exactly where
                    # scalar dispatch would flush this window -- without
                    # touching its context.  This skip (and the merge
                    # fast-forward above, its all-virtual batch form) is
                    # where the horizon tier's speedup lives.
                    j = bisect_left(vt, limit, vjs[cpu])
                    if j < len(vt):
                        clocks[cpu] = vt[j]
                        vjs[cpu] = j + 1
                        hz_vwin += 1
                        continue
                    # Drained mid-window: resume real dispatch at the
                    # last retired completion, still inside this window.
                    vts[cpu] = None
                    n_virtual -= 1

            (tk, ta, tb, tc, td, te, pl, pmc, pmr, lock_ids,
             cpu_l1, cpu_l2, seen1, inv1, seen2, inv2, wb, wb_entries,
             wb_pop, wb_app, end, stats, mem_by_class,
             hstops) = ctxs[cpu]
            pos = cursors[cpu]
            now = clocks[cpu] if vt is None else vt[-1]
            start_pos = pos
            retry_acc = busy_acc = msync_acc = 0
            l1_acc = l1w_acc = l2r_acc = l2wm_acc = 0

            while True:
                if pos >= end:
                    alive.remove(cpu)
                    now = drain_time(cpu, now)
                    clocks[cpu] = now
                    stats.finish_time = now
                    if sink is not None:
                        sink[cpu] = traces[cpu].rows
                    # Cold: the sweep runs once per finished stream, not
                    # per event.
                    if _sanitize:
                        machine.check_invariants()
                    break

                hstop = hstops[pos]
                if hstop - pos >= hz_min:
                    # Retire-ahead pass: every row in [pos, hstop) spans
                    # only non-write-shared lines, so run the region to
                    # completion now -- no window limit -- recording
                    # per-row completion times for the virtual replay.
                    vt = []
                    vt_append = vt.append
                    rstart = pos
                    while pos < hstop:
                        kind = tk[pos]
                        if kind == 0:  # EV_READ (+ fused busy/hit run)
                            line1 = pl[pos]
                            if line1 >= 0:
                                ways = cpu_l1[line1 & l1_mask]
                                if line1 in ways:
                                    if ways[0] != line1:
                                        ways.remove(line1)
                                        ways.insert(0, line1)
                                    l1_acc += pmr[pos]
                                    cost = pmc[pos]
                                    busy_acc += cost
                                    now += cost
                                else:
                                    # Eviction guard, probed before any
                                    # state change: a set below its
                                    # associativity evicts nothing, and
                                    # a full set free of write-shared
                                    # residents holds exactly what the
                                    # oracle's copy holds (only other
                                    # processors' invalidations can
                                    # shrink it, and those touch only
                                    # write-shared lines), so its LRU
                                    # victim matches too.  Any resident
                                    # write-shared line, though, may be
                                    # invalidated mid-region -- which
                                    # flips the oracle set's fullness
                                    # and victim -- so it trips.
                                    line2 = line1 >> ratio_shift
                                    ways2 = cpu_l2[line2 & l2_mask]
                                    safe = True
                                    if len(ways) == l1_assoc:
                                        for w in ways:
                                            if (w >> ratio_shift) in ws_set:
                                                safe = False
                                                break
                                    if safe and line2 not in ways2 \
                                            and len(ways2) == l2_assoc:
                                        for w in ways2:
                                            if w in ws_set:
                                                safe = False
                                                break
                                    # Rows starting before the window
                                    # limit dispatch inside the current
                                    # window -- ahead of every other
                                    # processor's next operation -- so
                                    # their evictions stay ordered and
                                    # need no trip.
                                    if not safe and now >= limit:
                                        hz_guard += 1
                                        if vt:
                                            break
                                    l1_acc += pmr[pos]
                                    cls = tc[pos]
                                    l1rm[cls][
                                        0 if line1 not in seen1
                                        else 2 if line1 in inv1 else 1
                                    ] += 1
                                    l2r_acc += 1
                                    if line2 in ways2:
                                        if ways2[0] != line2:
                                            ways2.remove(line2)
                                            ways2.insert(0, line2)
                                        stall = lat_l2
                                    else:
                                        l2rm[cls][
                                            0 if line2 not in seen2
                                            else 2 if line2 in inv2 else 1
                                        ] += 1
                                        home = home_fn(line2 << l2_shift)
                                        owner = dirty_get(line2)
                                        if owner is not None and owner != cpu:
                                            stall = lat_2hop if home == cpu \
                                                else lat_3hop
                                            del dirty[line2]
                                        else:
                                            stall = lat_local if home == cpu \
                                                else lat_2hop
                                        holders = sharers.get(line2)
                                        if holders is None:
                                            sharers[line2] = {cpu}
                                        else:
                                            holders.add(cpu)
                                        ways2.insert(0, line2)
                                        seen2.add(line2)
                                        inv2.discard(line2)
                                        if len(ways2) > l2_assoc:
                                            evict_l2(cpu, ways2.pop())
                                        if stall > lat_l2:
                                            wait = port_free[cpu] - now
                                            if wait > 0:
                                                stall += wait
                                            port_free[cpu] = now + stall
                                    ways.insert(0, line1)
                                    seen1.add(line1)
                                    inv1.discard(line1)
                                    if len(ways) > l1_assoc:
                                        ways.pop()
                                    mem_by_class[cls] += stall
                                    cost = pmc[pos]
                                    busy_acc += cost
                                    now += cost + stall
                                vt_append(now)
                                pos += 1
                            else:
                                # Line-crossing load: pre-check every
                                # victim set the span can touch, then the
                                # batched engine's inlined per-line walk.
                                # A non-wrapping span fills each set at
                                # most once, so a set below its
                                # associativity is skipped (it evicts
                                # nothing); a wrapping span's own fills
                                # can fill a set before a later fill
                                # hits it again, so every resident is
                                # scanned regardless.
                                addr = ta[pos]
                                size = tb[pos]
                                first = addr >> l1_shift
                                last = (addr + size - 1) >> l1_shift
                                safe = True
                                scan = first
                                wrap = last - first > l1_mask
                                while scan <= last:
                                    wl = cpu_l1[scan & l1_mask]
                                    if wrap or len(wl) == l1_assoc:
                                        for w in wl:
                                            if (w >> ratio_shift) in ws_set:
                                                safe = False
                                                break
                                        if not safe:
                                            break
                                    scan += 1
                                if safe:
                                    scan2 = first >> ratio_shift
                                    last2 = last >> ratio_shift
                                    wrap2 = last2 - scan2 > l2_mask
                                    while scan2 <= last2:
                                        w2s = cpu_l2[scan2 & l2_mask]
                                        if scan2 not in w2s \
                                                and (wrap2 or
                                                     len(w2s) == l2_assoc):
                                            for w in w2s:
                                                if w in ws_set:
                                                    safe = False
                                                    break
                                            if not safe:
                                                break
                                        scan2 += 1
                                if not safe and now >= limit:
                                    hz_guard += 1
                                    if vt:
                                        break
                                scalar_rows += 1
                                cls = tc[pos]
                                nlines = last - first + 1
                                words = (size + 3) >> 2
                                if words > nlines:
                                    l1_acc += words - nlines
                                stall = 0
                                while True:
                                    l1_acc += 1
                                    ways = cpu_l1[first & l1_mask]
                                    if first in ways:
                                        if ways[0] != first:
                                            ways.remove(first)
                                            ways.insert(0, first)
                                    else:
                                        l1rm[cls][
                                            0 if first not in seen1
                                            else 2 if first in inv1 else 1
                                        ] += 1
                                        line2 = first >> ratio_shift
                                        l2r_acc += 1
                                        ways2 = cpu_l2[line2 & l2_mask]
                                        if line2 in ways2:
                                            if ways2[0] != line2:
                                                ways2.remove(line2)
                                                ways2.insert(0, line2)
                                            lat = lat_l2
                                        else:
                                            l2rm[cls][
                                                0 if line2 not in seen2
                                                else 2 if line2 in inv2
                                                else 1
                                            ] += 1
                                            home = home_fn(line2 << l2_shift)
                                            owner = dirty_get(line2)
                                            if owner is not None \
                                                    and owner != cpu:
                                                lat = lat_2hop if home == cpu \
                                                    else lat_3hop
                                                del dirty[line2]
                                            else:
                                                lat = lat_local \
                                                    if home == cpu \
                                                    else lat_2hop
                                            holders = sharers.get(line2)
                                            if holders is None:
                                                sharers[line2] = {cpu}
                                            else:
                                                holders.add(cpu)
                                            ways2.insert(0, line2)
                                            seen2.add(line2)
                                            inv2.discard(line2)
                                            if len(ways2) > l2_assoc:
                                                evict_l2(cpu, ways2.pop())
                                            if lat > lat_l2:
                                                now_l = now + stall
                                                wait = port_free[cpu] - now_l
                                                if wait > 0:
                                                    lat += wait
                                                port_free[cpu] = now_l + lat
                                        ways.insert(0, first)
                                        seen1.add(first)
                                        inv1.discard(first)
                                        if len(ways) > l1_assoc:
                                            ways.pop()
                                        stall += lat
                                    if first >= last:
                                        break
                                    first += 1
                                if stall:
                                    mem_by_class[cls] += stall
                                inert = td[pos]
                                busy_acc += 1 + inert
                                now += 1 + stall + inert
                                l1_acc += te[pos]
                                vt_append(now)
                                pos += 1
                        elif kind == 1:  # EV_WRITE (+ fused busy/hit run)
                            line1 = pl[pos]
                            if line1 >= 0:
                                # Guard only the L2 fill: the
                                # write-through L1 never allocates on
                                # stores, an L2 hit evicts nothing, and
                                # a set below its associativity evicts
                                # nothing on this one fill either.
                                line2 = line1 >> ratio_shift
                                ways2 = cpu_l2[line2 & l2_mask]
                                l2_hit = line2 in ways2
                                if not l2_hit and len(ways2) == l2_assoc:
                                    safe = True
                                    for w in ways2:
                                        if w in ws_set:
                                            safe = False
                                            break
                                    if not safe and now >= limit:
                                        hz_guard += 1
                                        if vt:
                                            break
                                size = tb[pos]
                                l1w_acc += 1 if size <= 4 \
                                    else (size + 3) >> 2
                                ways = cpu_l1[line1 & l1_mask]
                                if line1 in ways and ways[0] != line1:
                                    ways.remove(line1)
                                    ways.insert(0, line1)
                                if l2_hit:
                                    if ways2[0] != line2:
                                        ways2.remove(line2)
                                        ways2.insert(0, line2)
                                    if dirty_get(line2) == cpu:
                                        retire = wb_retire
                                    else:
                                        home = home_fn(line2 << l2_shift)
                                        retire = lat_local if home == cpu \
                                            else lat_2hop
                                        inval_others(cpu, line2)
                                else:
                                    l2wm_acc += 1
                                    home = home_fn(line2 << l2_shift)
                                    owner = dirty_get(line2)
                                    if owner is not None and owner != cpu:
                                        retire = lat_2hop if home == cpu \
                                            else lat_3hop
                                    else:
                                        retire = lat_local if home == cpu \
                                            else lat_2hop
                                    inval_others(cpu, line2)
                                    ways2.insert(0, line2)
                                    seen2.add(line2)
                                    inv2.discard(line2)
                                    if len(ways2) > l2_assoc:
                                        evict_l2(cpu, ways2.pop())
                                while wb_entries and wb_entries[0] <= now:
                                    wb_pop()
                                stall = 0
                                if len(wb_entries) >= wb_cap:
                                    oldest = wb_pop()
                                    if oldest > now:
                                        stall = oldest - now
                                        wb.stall_cycles += stall
                                completion = wb._last_completion
                                issue_time = now + stall
                                if issue_time > completion:
                                    completion = issue_time
                                completion += retire
                                wb._last_completion = completion
                                wb_app(completion)
                                cost = pmc[pos]
                                busy_acc += cost
                                if stall:
                                    mem_by_class[tc[pos]] += stall
                                    now += cost + stall
                                else:
                                    now += cost
                                l1_acc += pmr[pos]
                                vt_append(now)
                                pos += 1
                            else:
                                # Line-crossing store: pre-check the L2
                                # victim sets of every absent line, then
                                # the batched engine's per-line walk.
                                # Sets below their associativity are
                                # skipped on non-wrapping spans, as for
                                # loads (the write-through L1 never
                                # fills on stores, so only L2 needs a
                                # guard).
                                addr = ta[pos]
                                size = tb[pos]
                                first = addr >> l1_shift
                                last = (addr + size - 1) >> l1_shift
                                safe = True
                                scan2 = first >> ratio_shift
                                last2 = last >> ratio_shift
                                wrap2 = last2 - scan2 > l2_mask
                                while scan2 <= last2:
                                    w2s = cpu_l2[scan2 & l2_mask]
                                    if scan2 not in w2s \
                                            and (wrap2 or
                                                 len(w2s) == l2_assoc):
                                        for w in w2s:
                                            if w in ws_set:
                                                safe = False
                                                break
                                        if not safe:
                                            break
                                    scan2 += 1
                                if not safe and now >= limit:
                                    hz_guard += 1
                                    if vt:
                                        break
                                scalar_rows += 1
                                cls = tc[pos]
                                nlines = last - first + 1
                                words = (size + 3) >> 2
                                if words > nlines:
                                    l1w_acc += words - nlines
                                stall = 0
                                while True:
                                    l1w_acc += 1
                                    now_l = now + stall
                                    ways = cpu_l1[first & l1_mask]
                                    if first in ways and ways[0] != first:
                                        ways.remove(first)
                                        ways.insert(0, first)
                                    line2 = first >> ratio_shift
                                    ways2 = cpu_l2[line2 & l2_mask]
                                    if line2 in ways2:
                                        if ways2[0] != line2:
                                            ways2.remove(line2)
                                            ways2.insert(0, line2)
                                        if dirty_get(line2) == cpu:
                                            retire = wb_retire
                                        else:
                                            home = home_fn(line2 << l2_shift)
                                            retire = lat_local \
                                                if home == cpu else lat_2hop
                                            inval_others(cpu, line2)
                                    else:
                                        l2wm_acc += 1
                                        home = home_fn(line2 << l2_shift)
                                        owner = dirty_get(line2)
                                        if owner is not None \
                                                and owner != cpu:
                                            retire = lat_2hop if home == cpu \
                                                else lat_3hop
                                        else:
                                            retire = lat_local \
                                                if home == cpu else lat_2hop
                                        inval_others(cpu, line2)
                                        ways2.insert(0, line2)
                                        seen2.add(line2)
                                        inv2.discard(line2)
                                        if len(ways2) > l2_assoc:
                                            evict_l2(cpu, ways2.pop())
                                    while wb_entries \
                                            and wb_entries[0] <= now_l:
                                        wb_pop()
                                    wstall = 0
                                    if len(wb_entries) >= wb_cap:
                                        oldest = wb_pop()
                                        if oldest > now_l:
                                            wstall = oldest - now_l
                                            wb.stall_cycles += wstall
                                    completion = wb._last_completion
                                    issue_time = now_l + wstall
                                    if issue_time > completion:
                                        completion = issue_time
                                    completion += retire
                                    wb._last_completion = completion
                                    wb_app(completion)
                                    stall += wstall
                                    if first >= last:
                                        break
                                    first += 1
                                inert = td[pos]
                                busy_acc += 1 + inert
                                if stall:
                                    mem_by_class[cls] += stall
                                    now += 1 + stall + inert
                                else:
                                    now += 1 + inert
                                l1_acc += te[pos]
                                vt_append(now)
                                pos += 1
                        elif kind == 2:  # EV_BUSY
                            scalar_rows += 1
                            cycles = ta[pos]
                            busy_acc += cycles
                            now += cycles
                            vt_append(now)
                            pos += 1
                        else:
                            # EV_HIT (kind == 5): lock rows are always
                            # boundaries, so nothing else reaches a
                            # retire pass.
                            scalar_rows += 1
                            count = ta[pos]
                            busy_acc += count
                            l1_acc += count
                            now += count
                            vt_append(now)
                            pos += 1

                    hz_rows += pos - rstart
                    hz_regions += 1
                    # Cold: once per region, and only in sanitizer mode.
                    if _sanitize:
                        _check_monotonic(vt, "horizon virtual clock")
                    j = bisect_left(vt, limit)
                    if j < len(vt):
                        # The region ran past this window's cut: flush
                        # at the first completion past the limit --
                        # scalar's flush point -- and replay the rest
                        # virtually from later windows.
                        clocks[cpu] = vt[j]
                        vts[cpu] = vt
                        n_virtual += 1
                        vjs[cpu] = j + 1
                        cursors[cpu] = pos
                        break
                    # The whole region fit inside the window: keep
                    # dispatching for real from its end.
                    continue

                kind = tk[pos]

                if kind == 0:  # EV_READ (+ fused trailing busy/hit run)
                    line1 = pl[pos]
                    if line1 >= 0:
                        l1_acc += pmr[pos]
                        ways = cpu_l1[line1 & l1_mask]
                        if line1 in ways:
                            if ways[0] != line1:
                                ways.remove(line1)
                                ways.insert(0, line1)
                            cost = pmc[pos]
                            busy_acc += cost
                            now += cost
                        else:
                            cls = tc[pos]
                            l1rm[cls][
                                0 if line1 not in seen1
                                else 2 if line1 in inv1 else 1
                            ] += 1
                            line2 = line1 >> ratio_shift
                            l2r_acc += 1
                            ways2 = cpu_l2[line2 & l2_mask]
                            if line2 in ways2:
                                if ways2[0] != line2:
                                    ways2.remove(line2)
                                    ways2.insert(0, line2)
                                stall = lat_l2
                            else:
                                l2rm[cls][
                                    0 if line2 not in seen2
                                    else 2 if line2 in inv2 else 1
                                ] += 1
                                home = home_fn(line2 << l2_shift)
                                owner = dirty_get(line2)
                                if owner is not None and owner != cpu:
                                    stall = lat_2hop if home == cpu \
                                        else lat_3hop
                                    del dirty[line2]
                                else:
                                    stall = lat_local if home == cpu \
                                        else lat_2hop
                                holders = sharers.get(line2)
                                if holders is None:
                                    sharers[line2] = {cpu}
                                else:
                                    holders.add(cpu)
                                ways2.insert(0, line2)
                                seen2.add(line2)
                                inv2.discard(line2)
                                if len(ways2) > l2_assoc:
                                    evict_l2(cpu, ways2.pop())
                                if stall > lat_l2:
                                    wait = port_free[cpu] - now
                                    if wait > 0:
                                        stall += wait
                                    port_free[cpu] = now + stall
                            ways.insert(0, line1)
                            seen1.add(line1)
                            inv1.discard(line1)
                            if len(ways) > l1_assoc:
                                ways.pop()
                            mem_by_class[cls] += stall
                            cost = pmc[pos]
                            busy_acc += cost
                            now += cost + stall
                        pos += 1
                    else:
                        # Line-crossing load: rare enough here (the
                        # retire pass takes most of them) to go through
                        # machine.read like scalar dispatch.
                        scalar_rows += 1
                        cls = tc[pos]
                        stall = mread(cpu, ta[pos], tb[pos], cls, now)
                        if stall:
                            mem_by_class[cls] += stall
                        inert = td[pos]
                        busy_acc += 1 + inert
                        now += 1 + stall + inert
                        l1_acc += te[pos]
                        pos += 1
                elif kind == 1:  # EV_WRITE (+ fused trailing busy/hit run)
                    line1 = pl[pos]
                    if line1 >= 0:
                        size = tb[pos]
                        l1w_acc += 1 if size <= 4 else (size + 3) >> 2
                        line2 = line1 >> ratio_shift
                        ways = cpu_l1[line1 & l1_mask]
                        if line1 in ways and ways[0] != line1:
                            ways.remove(line1)
                            ways.insert(0, line1)
                        ways2 = cpu_l2[line2 & l2_mask]
                        if line2 in ways2:
                            if ways2[0] != line2:
                                ways2.remove(line2)
                                ways2.insert(0, line2)
                            if dirty_get(line2) == cpu:
                                retire = wb_retire
                            else:
                                home = home_fn(line2 << l2_shift)
                                retire = lat_local if home == cpu \
                                    else lat_2hop
                                inval_others(cpu, line2)
                        else:
                            l2wm_acc += 1
                            home = home_fn(line2 << l2_shift)
                            owner = dirty_get(line2)
                            if owner is not None and owner != cpu:
                                retire = lat_2hop if home == cpu \
                                    else lat_3hop
                            else:
                                retire = lat_local if home == cpu \
                                    else lat_2hop
                            inval_others(cpu, line2)
                            ways2.insert(0, line2)
                            seen2.add(line2)
                            inv2.discard(line2)
                            if len(ways2) > l2_assoc:
                                evict_l2(cpu, ways2.pop())
                        while wb_entries and wb_entries[0] <= now:
                            wb_pop()
                        stall = 0
                        if len(wb_entries) >= wb_cap:
                            oldest = wb_pop()
                            if oldest > now:
                                stall = oldest - now
                                wb.stall_cycles += stall
                        completion = wb._last_completion
                        issue_time = now + stall
                        if issue_time > completion:
                            completion = issue_time
                        completion += retire
                        wb._last_completion = completion
                        wb_app(completion)
                        cost = pmc[pos]
                        busy_acc += cost
                        if stall:
                            mem_by_class[tc[pos]] += stall
                            now += cost + stall
                        else:
                            now += cost
                        l1_acc += pmr[pos]
                        pos += 1
                    else:
                        # Line-crossing store: through machine.write,
                        # like scalar dispatch.
                        scalar_rows += 1
                        cls = tc[pos]
                        stall = mwrite(cpu, ta[pos], tb[pos], cls, now)
                        inert = td[pos]
                        busy_acc += 1 + inert
                        if stall:
                            mem_by_class[cls] += stall
                            now += 1 + stall + inert
                        else:
                            now += 1 + inert
                        l1_acc += te[pos]
                        pos += 1
                elif kind == 2:  # EV_BUSY
                    scalar_rows += 1
                    cycles = ta[pos]
                    busy_acc += cycles
                    now += cycles
                    pos += 1
                elif kind == 5:  # EV_HIT
                    scalar_rows += 1
                    count = ta[pos]
                    busy_acc += count
                    l1_acc += count
                    now += count
                    pos += 1
                elif kind == 3:  # EV_LOCK_ACQ
                    lock_id = lock_ids[ta[pos]]
                    addr = tb[pos]
                    cls = tc[pos]
                    holder = lock_holder.get(lock_id)
                    if holder == cpu:
                        raise LockProtocolError(
                            f"cpu {cpu} re-acquired spinlock {lock_id!r}"
                        )
                    if holder is None:
                        scalar_rows += 1
                        cost = 2
                        cost += mread(cpu, addr, 4, cls, now)
                        cost += mwrite(cpu, addr, 4, cls, now + cost)
                        msync_acc += cost
                        now += cost
                        lock_holder[lock_id] = cpu
                        pos += 1
                    else:
                        wait = spin_interval
                        holder_clock = clocks[holder]
                        if holder_clock > now + wait:
                            wait = holder_clock - now
                        wait += mread(cpu, addr, 4, cls, now)
                        msync_acc += wait
                        now += wait
                        retry_acc += 1
                else:  # EV_LOCK_REL (kind == 4)
                    scalar_rows += 1
                    lock_id = lock_ids[ta[pos]]
                    addr = tb[pos]
                    cls = tc[pos]
                    if lock_holder.get(lock_id) != cpu:
                        raise LockProtocolError(
                            f"cpu {cpu} released spinlock {lock_id!r} "
                            "it does not hold"
                        )
                    del lock_holder[lock_id]
                    cost = 1 + mwrite(cpu, addr, 4, cls, now)
                    msync_acc += cost
                    now += cost
                    pos += 1

                if now >= limit:
                    clocks[cpu] = now
                    cursors[cpu] = pos
                    break

            stats.events += (pos - start_pos) + retry_acc
            stats.busy += busy_acc
            stats.msync += msync_acc
            if l1_acc:
                mstats.l1_reads += l1_acc
            if l1w_acc:
                mstats.l1_writes += l1w_acc
            if l2r_acc:
                mstats.l2_reads += l2r_acc
            if l2wm_acc:
                mstats.l2_write_misses += l2wm_acc

        elapsed = perf_counter() - t0
        reg = _registry()
        reg.counter("interleave.kernel.horizon.runs").inc()
        reg.counter("interleave.kernel.horizon.seconds").inc(elapsed)
        reg.counter("interleave.batch.inline_rows").inc(
            total_rows - scalar_rows)
        reg.counter("interleave.batch.scalar_rows").inc(scalar_rows)
        reg.counter("interleave.horizon.rows").inc(hz_rows)
        reg.counter("interleave.horizon.regions").inc(hz_regions)
        reg.counter("interleave.horizon.guard_stops").inc(hz_guard)
        reg.counter("interleave.horizon.virtual_windows").inc(hz_vwin)
        reg.counter("interleave.horizon.merges").inc(hz_ff)
        if _obs_enabled():
            _note_run("run_traces", cpu_stats, elapsed)
        return RunResult(machine, cpu_stats)
