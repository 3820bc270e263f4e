"""Trace record/replay cache: run each query once, simulate it many times.

The reference stream a query emits is *machine-independent*: the engine
never observes the simulated memory system or clock, so the exact same
event sequence drives every machine configuration of a sweep -- and
:meth:`~repro.memsim.interleave.Interleaver.run` itself records its
streams with :func:`record` before replaying them.  The paper's own
methodology separates trace generation (Mint) from memory-system
analysis; this module does the same for the reproduction.

A :class:`QueryTrace` stores one ``(qid, seed, node, arena_size)`` event
stream in a compact columnar encoding -- six typed ``array`` columns plus
an interned spinlock-name table -- with consecutive ``EV_BUSY`` and
consecutive ``EV_HIT`` events coalesced at record time.  Coalescing is
exact: busy/hit events only advance the emitting processor's clock and
add to additive counters, and the engine never emits them inside a
spinlock critical section, so waiter-observed holder clocks are
unchanged.  Spinlock *retry* logic lives in the interleaver (a contended
acquire is re-dispatched, never re-emitted by the stream), so replayed
lock handoffs are independent of when the stream was recorded.

Column widths: ``kinds`` and ``c`` are ``'b'`` (1 byte); ``a``, ``b``,
``d`` and ``e`` start as 32-bit unsigned ``'I'``, 18 bytes per row in
all.  Addresses (the private arenas end below 2**32), sizes, cycle runs
and hit counts almost always fit; the encoder widens a column to ``'q'``
at the first value that does not (``d`` and ``e`` together), so a trace
may mix widths -- as may one loaded from a store written with 64-bit
columns -- and every reader takes each column's own ``typecode``.

Result rows are captured at record time, so replayed workloads still
populate ``WorkloadResult.rows_per_cpu``.  Encoding is incremental
(:meth:`QueryTrace.extend`): :func:`record` feeds it one generator, the
scenario recorder one per operation, through the same loop.

:class:`TraceCache` memoizes traces per database the way
``experiment._DB_CACHE`` memoizes databases; use
:func:`repro.core.experiment.workload_trace_cache` for the shared
per-scale instance and :func:`repro.core.experiment.clear_caches` to drop
both layers.  With a ``trace_dir`` the cache also reads through to the
persistent store (:mod:`repro.core.tracestore`): a memory miss tries the
store before recording, and every fresh recording is written back, so a
second process or session starts warm.
"""

import pickle
from array import array
from collections import Counter

from repro.memsim.events import (
    EV_BUSY, EV_HIT, EV_LOCK_ACQ, EV_LOCK_REL, EV_WRITE,
)
from repro.obs.metrics import registry
from repro.obs.spans import span
from repro.tpcd.queries import query_instance
from repro.tpcd.scales import get_scale

#: Exclusive bound of an ``'I'`` column value.
_U32 = 1 << 32


class QueryTrace:
    """One recorded event stream in columnar form, plus its result rows.

    Layout (parallel arrays, one entry per coalesced event):

    ========  =============  ============  =========  ============  =========
    kind      ``a``          ``b``         ``c``      ``d``         ``e``
    ========  =============  ============  =========  ============  =========
    READ      addr           size          cls        inert cycles  hit count
    WRITE     addr           size          cls        inert cycles  hit count
    BUSY      cycles         --            --         --            --
    HIT       count          --            --         --            --
    LOCK_ACQ  lock-id index  addr          cls        --            --
    LOCK_REL  lock-id index  addr          cls        --            --
    ========  =============  ============  =========  ============  =========

    ``d``/``e`` carry the run of busy/hit events that followed a memory
    reference, fused into its row: replay dispatches the reference and the
    trailing compute cycles in one step.  The fusion is exact because
    busy/hit events never touch the machine -- they only advance the
    emitting processor's clock and add to additive counters, so the global
    order of machine operations is unchanged (``e`` is the always-hit
    reference count inside ``d``, which feeds the machine's ``l1_reads``).
    Standalone busy/hit runs (at stream start or after a lock event, whose
    retry dispatch must not carry extra cycles) stay their own rows.
    """

    __slots__ = ("kinds", "a", "b", "c", "d", "e", "lock_ids", "rows",
                 "n_source_events", "_rows_nbytes", "_batch_base",
                 "_batch_plans", "_share_base", "__weakref__")

    def __init__(self):
        self.kinds = array("b")
        self.a = array("I")
        self.b = array("I")
        self.c = array("b")
        self.d = array("I")
        self.e = array("I")
        self.lock_ids = []
        self.rows = None
        self.n_source_events = 0
        self._rows_nbytes = None
        self._batch_base = None
        self._batch_plans = {}
        self._share_base = {}

    def batch_plan(self, l1_shift, n_sets=None):
        """Line-tag columns for the batched replay kernel, memoized per L1
        line size (see :func:`repro.memsim.batch.trace_plan`); the
        derived view is paid once per trace, not per replay, and dropped
        with the trace itself.  ``n_sets`` is ignored (the plan depends
        on the line size alone); the benchmark harness still passes it."""
        from repro.memsim.batch import trace_plan

        return trace_plan(self, l1_shift)

    def __len__(self):
        return len(self.kinds)

    def nbytes(self):
        """Approximate encoded size in bytes (diagnostics).

        Counts everything the persistent store writes: the six columnar
        arrays, the interned lock-id table, and the pickled result rows
        (measured once and memoized -- pickling is also exactly what
        :func:`repro.core.tracestore.encode_trace` does with them).
        """
        n = sum(arr.itemsize * len(arr)
                for arr in (self.kinds, self.a, self.b, self.c,
                            self.d, self.e))
        n += sum(len(lock_id) for lock_id in self.lock_ids)
        if self._rows_nbytes is None:
            self._rows_nbytes = len(
                pickle.dumps(self.rows, protocol=pickle.HIGHEST_PROTOCOL))
        return n + self._rows_nbytes

    def plan_nbytes(self):
        """Bytes held by the memoized batch-plan arrays (diagnostics)."""
        arrays = [*(self._batch_base or ()),
                  *(p.mem_lines for p in self._batch_plans.values())]
        return sum(arr.itemsize * len(arr) for arr in arrays)

    def extend(self, gen):
        """Encode ``gen``'s events onto this trace; return its return value.

        Busy/hit events following a memory reference are fused into that
        row's ``d``/``e`` columns; standalone runs of consecutive
        ``EV_BUSY`` (or ``EV_HIT``) events are merged into one row.  Both
        depend only on the last row's kind, so a stream fed in pieces (one
        per scenario operation) encodes exactly as its concatenation.

        A value that overflows a 32-bit column widens that column to
        ``'q'`` (:meth:`_widen`) and the event is encoded again; the fast
        path never checks a range itself, and nothing re-scans the trace.
        """
        kinds = self.kinds
        a = self.a
        b = self.b
        c = self.c
        d = self.d
        e = self.e
        lock_ids = self.lock_ids
        lock_index = {lock_id: i for i, lock_id in enumerate(lock_ids)}
        n = self.n_source_events
        last = kinds[-1] if kinds else -1
        fusable = 0 <= last <= EV_WRITE  # READ/WRITE, no lock event since
        # kind of the last row iff it is a standalone BUSY/HIT run
        last_mergeable = last if last == EV_BUSY or last == EV_HIT else -1
        try:
            while True:
                ev = next(gen)
                n += 1
                k = ev[0]
                if k == EV_BUSY or k == EV_HIT:
                    if fusable:
                        d[-1] += ev[1]
                        if k == EV_HIT:
                            e[-1] += ev[1]
                        continue
                    if k == last_mergeable:
                        a[-1] += ev[1]
                        continue
                    a.append(ev[1])
                    b.append(0)
                    c.append(0)
                    d.append(0)
                    e.append(0)
                    kinds.append(k)
                    last_mergeable = k
                    continue
                last_mergeable = -1
                if k <= EV_WRITE:  # EV_READ / EV_WRITE
                    x = ev[1]
                    fusable = True
                elif k == EV_LOCK_ACQ or k == EV_LOCK_REL:
                    x = lock_index.get(ev[1])
                    if x is None:
                        x = lock_index[ev[1]] = len(lock_ids)
                        lock_ids.append(ev[1])
                    fusable = False
                else:
                    raise ValueError(f"unknown event kind {k!r}")
                a.append(x)
                b.append(ev[2])
                c.append(ev[3])
                d.append(0)
                e.append(0)
                kinds.append(k)  # last: len(kinds) counts complete rows
        except StopIteration as stop:
            self.n_source_events = n
            return stop.value
        except OverflowError as exc:
            if exc.__traceback__.tb_next is not None:
                raise  # raised inside ``gen``, not by a column write
            # ``ev`` overflowed a column.  Appends put ``kinds`` last, so
            # cutting the other columns to its length drops a partial
            # row; an in-place ``+=`` that overflows never stored.
            self.n_source_events = n - 1
            for col in (a, b, c, d, e):
                del col[len(kinds):]
            if not self._widen(ev):
                raise
            return self.extend(_prepend(ev, gen))

    def _widen(self, ev):
        """Widen to ``'q'`` each ``'I'`` column that ``ev`` overflows when
        encoded onto this trace; ``False`` if there is none.

        ``d`` and ``e`` widen together: ``e`` counts the hits inside
        ``d``'s cycles, so with non-negative counts ``e`` cannot overflow
        before ``d`` does (a negative fused count that overflows is
        refused, never half-applied).
        """
        k = ev[0]
        last = self.kinds[-1] if self.kinds else -1
        if k == EV_BUSY or k == EV_HIT:
            if 0 <= last <= EV_WRITE:  # fused into the last row
                if ev[1] < 0:
                    return False
                writes = [("d", self.d[-1] + ev[1])]
            elif k == last:  # merged into the last standalone run
                writes = [("a", self.a[-1] + ev[1])]
            else:
                writes = [("a", ev[1])]
        elif k <= EV_WRITE:
            writes = [("a", ev[1]), ("b", ev[2])]
        else:  # lock events: ``a`` is a small lock-id index
            writes = [("b", ev[2])]
        widened = False
        for name, value in writes:
            if getattr(self, name).typecode == "I" and not 0 <= value < _U32:
                for col in ("d", "e") if name == "d" else (name,):
                    setattr(self, col, array("q", getattr(self, col)))
                widened = True
        return widened

    def replay(self):
        """Generator re-emitting the recorded events as plain tuples.

        Every tuple has a shape of :mod:`repro.memsim.events`: a fused row
        comes back as its reference followed by ``busy(d - e)`` and
        ``hit(e)`` (each only when nonzero), so ``record(t.replay())``
        encodes exactly like ``t``.
        """
        lock_ids = self.lock_ids
        for k, x, y, z, inert, hits in zip(self.kinds, self.a, self.b,
                                           self.c, self.d, self.e):
            if k <= EV_WRITE:  # EV_READ / EV_WRITE
                yield (k, x, y, z)
                if inert != hits:
                    yield (EV_BUSY, inert - hits)
                if hits:
                    yield (EV_HIT, hits)
            elif k == EV_BUSY or k == EV_HIT:
                yield (k, x)
            else:  # EV_LOCK_ACQ / EV_LOCK_REL
                yield (k, lock_ids[x], y, z)


def _prepend(ev, gen):
    """``ev``, then the rest of ``gen``; returns ``gen``'s return value."""
    yield ev
    return (yield from gen)


def record(gen):
    """Consume a traced generator; return its :class:`QueryTrace`."""
    trace = QueryTrace()
    trace.rows = trace.extend(gen)
    return trace


class TraceCache:
    """Memoized query traces for one database instance.

    Traces are keyed by ``(qid, seed, node, arena_size)``.  Recording is
    side-effect free on the database (queries are read-only and the
    recording backend's transaction id is the deterministic per-node one a
    live workload would use), so live and replayed runs can be freely
    interleaved against the same database.

    ``trace_dir`` (with ``db_seed``, the seed the database was generated
    from) turns on read-through persistence: a miss in memory tries
    :func:`repro.core.tracestore.load_trace` before paying for an engine
    execution, and every fresh recording is saved back.  The ``hits`` /
    ``records`` / ``loads`` / ``bytes_read`` / ``bytes_written`` counters
    make the traffic observable (``repro-experiments --time`` reports them).

    ``db`` may be a zero-argument callable instead of a database: it is
    invoked on the first actual recording, so a session whose traces all
    come from the store (or from shipped bytes) never pays for a database
    build at all.  A lazy cache must state ``lock_check_per_rescan``
    explicitly if its database would be non-default.

    Damaged or incompatible store entries fall back to re-recording (and
    are overwritten with a good copy) with a warning and a corruption
    counter (:func:`repro.core.tracestore.corruption_stats`);
    ``strict_store=True`` raises :class:`TraceStoreError` instead.
    Opening a cache
    with a ``trace_dir`` also sweeps stale ``*.tmp.<pid>`` files left by
    crashed writers.
    """

    def __init__(self, db, scale, trace_dir=None, db_seed=None,
                 lock_check_per_rescan=None, strict_store=False):
        self._db = db
        self.scale = get_scale(scale)
        self.trace_dir = trace_dir
        self.db_seed = db_seed
        self.strict_store = strict_store
        if trace_dir is not None:
            from repro.core.tracestore import clean_stale_temps

            clean_stale_temps(trace_dir)
        if lock_check_per_rescan is None:
            lock_check_per_rescan = (True if callable(db) else
                                     getattr(db, "lock_check_per_rescan",
                                             True))
        self.lock_check_per_rescan = bool(lock_check_per_rescan)
        self._traces = {}
        self._released = Counter()
        self.hits = 0
        self.records = 0
        self.loads = 0
        self.bytes_read = 0
        self.bytes_written = 0

    @property
    def db(self):
        """The backing database, materialized on first use if lazy."""
        if callable(self._db):
            self._db = self._db()
        return self._db

    def _store_key(self, qid, seed, node, arena_size):
        from repro.core.tracestore import store_key

        return store_key(self.scale.name, self.db_seed, qid, seed, node,
                         arena_size, self.lock_check_per_rescan)

    def get(self, qid, seed, node, arena_size=None):
        """Return the trace for one query instance.

        Resolution order: in-memory memo, then the persistent store (when
        ``trace_dir`` is set), then a fresh recording -- which is written
        back to the store.
        """
        if arena_size is None:
            arena_size = self.scale.arena_size
        key = (qid, seed, node, arena_size)
        reg = registry()
        trace = self._traces.get(key)
        if trace is not None:
            self.hits += 1
            reg.counter("tracecache.hits").inc()
            return trace
        if self.trace_dir is not None:
            from repro.core.tracestore import load_trace, save_trace

            skey = self._store_key(qid, seed, node, arena_size)
            loaded = load_trace(self.trace_dir, skey, strict=self.strict_store)
            if loaded is not None:
                trace, nbytes = loaded
                self.loads += 1
                self.bytes_read += nbytes
                reg.counter("tracecache.loads").inc()
                reg.counter("tracecache.bytes_read").inc(nbytes)
                self._traces[key] = trace
                return trace
        trace = self._record(qid, seed, node, arena_size)
        self.records += 1
        reg.counter("tracecache.records").inc()
        if self.trace_dir is not None:
            written = save_trace(self.trace_dir, skey, trace)
            self.bytes_written += written
            reg.counter("tracecache.bytes_written").inc(written)
        self._traces[key] = trace
        return trace

    def _record(self, qid, seed, node, arena_size):
        if qid.startswith("scn:"):
            # Scenario traces (repro.workload): the whole multi-tenant
            # session is recorded in one streaming pass on a private
            # database -- the shared read-only instance behind this cache
            # must never see UF1/UF2 mutations -- and this cache keeps the
            # per-node stream until the sweep releases it.  The
            # query-parameter ``seed`` is unused (scenario randomness comes
            # from the spec), but stays in the store identity.
            from repro.workload.session import record_scenario

            db_seed = self.db_seed if self.db_seed is not None else 42
            traces = record_scenario(qid, self.scale, db_seed, arena_size,
                                     lock_check=self.lock_check_per_rescan)
            if node not in traces:
                raise KeyError(
                    f"scenario {qid!r} records {len(traces)} CPUs; "
                    f"node {node} was requested (SweepPoint.n_procs must "
                    "equal the spec's cpus)")
            return traces[node]
        qi = query_instance(qid, seed=seed)
        backend = self.db.backend(node, arena_size=arena_size)
        with span("record", qid=qid, seed=seed, node=node):
            return record(self.db.execute(qi.sql, backend, hints=qi.hints))

    # -- bookkeeping -----------------------------------------------------------

    def clear(self):
        """Drop every recorded trace."""
        self._traces.clear()

    def release(self, qid):
        """Drop and return every trace of ``qid``; :meth:`stats` keeps
        counting their sizes, so its totals stay truthful."""
        dropped = [self._traces.pop(k) for k in list(self._traces)
                   if k[0] == qid]
        self._released.update(_sizes(dropped), released=len(dropped))
        return dropped

    def stats(self):
        """Live and ``released`` traces, their events and encoded bytes
        (cumulative over both), the live traces' events and batch-plan
        bytes, hit/record/load counters, store bytes."""
        total = Counter(_sizes(self._traces.values()), released=0)
        total.update(self._released)
        return {
            "traces": len(self._traces),
            **total,
            "live_events": sum(len(t) for t in self._traces.values()),
            "plan_bytes": sum(t.plan_nbytes() for t in self._traces.values()),
            "hits": self.hits,
            "records": self.records,
            "loads": self.loads,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


def _sizes(traces):
    """Event, source-event and encoded-byte totals over ``traces``."""
    return {"events": sum(len(t) for t in traces),
            "source_events": sum(t.n_source_events for t in traces),
            "bytes": sum(t.nbytes() for t in traces)}
