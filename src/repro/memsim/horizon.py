"""Sharing classifier and horizon plans for the horizon replay kernel.

The global-clock interleaver cuts replay into ~2-row windows: a processor
retires a couple of rows, flushes its clock, and waits for the other
processors to catch up.  Almost none of that synchronization is *needed*.
Trancoso et al.'s own characterization -- DSS footprints are dominated by
private scan data with a small shared/lock-metadata core -- means the vast
majority of a trace's rows cannot interact with any other processor, no
matter how the windows fall.  This module turns that observation into a
schedule: classify, per trace set, exactly which rows *could* interact,
and hand the dispatch engine the distance to each processor's next
**interaction horizon** so it can retire everything before it in one pass
and replay the window cuts from recorded per-row completion times (the
"virtual clock" of :meth:`Interleaver._run_traces_horizon`).

Classification is per secondary-cache line over the whole trace set:

* a line is **write-shared** when some processor writes it (store spans
  and the 4-byte lock words of acquire/release rows both count) and any
  *other* processor touches it at all;
* a memory row is a **boundary** when any line it spans is write-shared;
* lock acquire/release rows are always boundaries (they observe other
  processors' clocks and hand off lock words);
* every other row -- busy/hit rows and reads/writes confined to
  non-write-shared lines -- is retirable ahead of the global clock.

Reads of read-only-shared lines commute (directory sharer sets are plain
set unions; latencies depend only on the home node and the deterministic
dirty-owner history), and writes to private lines invalidate nobody, so
retiring these rows early leaves every machine counter, directory entry,
and write-buffer completion time exactly as scalar dispatch would.  The
one side channel a *static* row classification cannot see is eviction: a
retired fill can displace a resident write-shared line another processor
still observes.  The dispatch engine closes it with a dynamic guard -- it
stops a retire pass at the first fill whose target L1/L2 set currently
holds a write-shared resident -- so the static plan only has to be sound
about the rows' own spans (line-crossing accesses are expanded line by
line, never assumed single-line).

Plans are memoized two ways, mirroring :mod:`repro.memsim.batch`: the
per-trace touched/written line sets on the trace itself (keyed by L2
geometry), and the combined schedule -- write-shared set plus per-trace
next-boundary arrays -- in a small module-level FIFO keyed by the trace
set, since a sweep replays the same combination against dozens of machine
configurations.
"""

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.memsim.batch import as_int64

#: Minimum region length (rows to the next boundary) worth a retire-ahead
#: pass.  Below it, the pass's setup (guard probes, virtual-clock list,
#: the stepped virtual windows that follow) costs more than the
#: per-window dispatch it saves; measured across the fig8-11 queries the
#: crossover sits around 16 rows, with boundary-dense traces (Q3, Q17)
#: the most sensitive.
HORIZON_MIN = 16

#: Combined schedules kept, evicted FIFO (same shape as
#: :data:`repro.memsim.batch.PLAN_MEMO`): a sweep visits its points one
#: at a time, and each point replays one trace combination.
SCHEDULE_MEMO = 2

#: Per-trace line-set memo entries kept (keyed by L2 line shift).
SHARE_MEMO = 2

_schedules = {}


class HorizonPlan:
    """Per-trace horizon metadata under one trace-set/L2-geometry key.

    ``stops`` is a plain list, one entry per trace row: the index of the
    next boundary row at or after this row (``n_rows`` when none
    remains).  ``stops[i] == i`` marks row *i* itself as a boundary; a
    gap ``stops[i] - i`` is the length of the retirable region ahead.
    ``n_boundary`` counts boundary rows, for the ``--time`` diagnostics.
    """

    __slots__ = ("stops", "n_rows", "n_boundary")

    def __init__(self, stops, n_rows, n_boundary):
        self.stops = stops
        self.n_rows = n_rows
        self.n_boundary = n_boundary


class HorizonSchedule:
    """One trace combination's classification: shared lines plus plans.

    ``ws`` is the write-shared L2-line set (plain Python set: the
    dispatch engine's dynamic eviction guards probe it per resident
    way).  ``plans`` holds one :class:`HorizonPlan` per trace, in trace
    order.  ``retirable`` is the per-CPU fraction of rows ahead of any
    boundary, recorded for ``--time``.
    """

    __slots__ = ("ws", "plans", "retirable")

    def __init__(self, ws, plans, retirable):
        self.ws = ws
        self.plans = plans
        self.retirable = retirable


def _line_span(trace, l2_shift):
    """First/last L2 line, write mask, and touch mask per trace row.

    Lock rows touch (and write) the 4-byte lock word at their ``b``
    column; read/write rows span ``[a, a + max(b, 1))``.  Busy/hit rows
    touch nothing.
    """
    kinds = _np.frombuffer(trace.kinds, dtype=_np.int8) if len(trace) \
        else _np.empty(0, dtype=_np.int8)
    a = as_int64(trace.a)
    b = as_int64(trace.b)
    mem = kinds <= 1
    lock = kinds >= 3
    addr = _np.where(lock, b, a)
    size = _np.where(mem, _np.maximum(b, 1), 4)
    first = addr >> l2_shift
    last = (addr + size - 1) >> l2_shift
    wrote = (kinds == 1) | lock
    return kinds, first, last, wrote, mem | lock


def _span_lines(first, last, mask):
    """Unique L2 lines spanned by the masked rows, middles included.

    Spans of three or more L2 lines are rare (a multi-line access longer
    than two secondary lines), so their interiors expand through a plain
    Python loop over just those rows.
    """
    lo = first[mask]
    hi = last[mask]
    if not len(lo):
        return _np.empty(0, dtype=_np.int64)
    parts = [lo, hi]
    wide = _np.flatnonzero((hi - lo) >= 2)
    for i in wide.tolist():
        parts.append(_np.arange(lo[i] + 1, hi[i], dtype=_np.int64))
    return _np.unique(_np.concatenate(parts))


def share_base(trace, l2_shift):
    """``(touched, written)`` unique L2-line arrays for ``trace``, memoized.

    ``touched`` covers every line any row spans (including lock words);
    ``written`` covers store spans and lock words.  Memoized on the
    trace per L2 geometry (:data:`SHARE_MEMO` entries, FIFO), like the
    batch plans: a sweep replays one trace under several line sizes but
    visits them point by point.
    """
    memo = trace._share_base
    base = memo.get(l2_shift)
    if base is not None:
        return base
    kinds, first, last, wrote, touch = _line_span(trace, l2_shift)
    base = (_span_lines(first, last, touch), _span_lines(first, last, wrote))
    if len(memo) >= SHARE_MEMO:
        memo.pop(next(iter(memo)))
    memo[l2_shift] = base
    return base


def _boundary_mask(trace, l2_shift, ws_arr):
    """Bool mask of boundary rows: lock rows plus write-shared spans."""
    kinds, first, last, wrote, touch = _line_span(trace, l2_shift)
    lock = kinds >= 3
    mem = kinds <= 1
    if len(ws_arr):
        shared = _np.isin(first, ws_arr) | _np.isin(last, ws_arr)
        wide = _np.flatnonzero(mem & ((last - first) >= 2) & ~shared)
        if len(wide):
            ws = set(ws_arr.tolist())
            for i in wide.tolist():
                for line in range(int(first[i]) + 1, int(last[i])):
                    if line in ws:
                        shared[i] = True
                        break
        return lock | (mem & shared)
    return lock


def horizon_schedule(traces, l2_shift):
    """The :class:`HorizonSchedule` for one trace combination, memoized.

    ``None`` without numpy.  The memo key is the tuple of trace
    identities plus the L2 geometry; :data:`SCHEDULE_MEMO` entries are
    kept FIFO, each holding strong references to its traces so the
    ``id`` keys cannot be recycled under it.  Sweeps drop the memo with
    the trace caches via
    :func:`repro.core.experiment.clear_caches` -> :func:`clear_memo`, and
    a released scenario's entries via :func:`evict_traces`.
    """
    if _np is None:
        return None
    # Keyed on trace identity, not content: the memo holds strong refs to
    # its traces, so ids cannot be recycled under it, and the schedule is
    # a pure cache whose values never depend on the key ordering.
    key = (tuple(id(t) for t in traces), l2_shift)
    hit = _schedules.get(key)
    if hit is not None:
        return hit[1]
    bases = [share_base(t, l2_shift) for t in traces]
    touched = [b[0] for b in bases if len(b[0])]
    written = [b[1] for b in bases if len(b[1])]
    if len(traces) > 1 and touched and written:
        lines, counts = _np.unique(_np.concatenate(touched),
                                   return_counts=True)
        multi = lines[counts >= 2]
        ws_arr = _np.intersect1d(_np.unique(_np.concatenate(written)),
                                 multi, assume_unique=True)
    else:
        # One processor (or nothing written): no line is write-shared.
        ws_arr = _np.empty(0, dtype=_np.int64)
    plans = []
    retirable = []
    for t in traces:
        n = len(t)
        boundary = _boundary_mask(t, l2_shift, ws_arr)
        idx = _np.where(boundary, _np.arange(n, dtype=_np.int64),
                        _np.int64(n))
        stops = _np.minimum.accumulate(idx[::-1])[::-1].tolist()
        n_boundary = int(boundary.sum())
        plans.append(HorizonPlan(stops, n, n_boundary))
        retirable.append(1.0 - (n_boundary / n) if n else 1.0)
    sched = HorizonSchedule(set(ws_arr.tolist()), plans, retirable)
    # The memo is a process-local cache by design: each sweep worker
    # rebuilds its own schedules, and nothing flows between processes
    # through it (run stats travel the metrics-registry merge path).
    if len(_schedules) >= SCHEDULE_MEMO:
        _schedules.pop(next(iter(_schedules)))
    _schedules[key] = (tuple(traces), sched)
    _note_schedule(sched)
    return sched


def _note_schedule(sched):
    """Record a freshly built schedule's coverage for ``--time``."""
    from repro.obs.metrics import registry

    reg = registry()
    total = sum(p.n_rows for p in sched.plans)
    reg.counter("interleave.horizon.plan_rows").inc(total)
    reg.counter("interleave.horizon.plan_boundary").inc(
        sum(p.n_boundary for p in sched.plans))
    reg.counter("interleave.horizon.plans").inc()
    reg.counter("interleave.horizon.ws_lines").inc(len(sched.ws))
    for cpu, frac in enumerate(sched.retirable):
        reg.gauge(f"interleave.horizon.retirable.cpu{cpu}").set(
            round(frac, 4))


def clear_memo():
    """Drop the combined-schedule memo (kept traces included)."""
    _schedules.clear()


def evict_traces(traces):
    """Drop the memoized schedules that pin any of ``traces``.

    The targeted form of :func:`clear_memo`: a sweep releasing one
    scenario's traces must not cost the query traces their schedules.
    """
    gone = {id(t) for t in traces}
    for key in [k for k in _schedules if gone.intersection(k[0])]:
        del _schedules[key]
