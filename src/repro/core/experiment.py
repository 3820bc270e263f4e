"""Workload runner: N processors, one query stream each.

Reproduces the paper's setup: a 4-processor CC-NUMA machine where each
processor runs one query of the same type with different TPC-D parameters
(inter-query parallelism), simulated from start to finish with no warm-up
discarded -- unless a warm-start is requested explicitly, which is how the
inter-query temporal locality experiment (Figure 12) is built.
"""

from repro.core.tracecache import TraceCache
from repro.db.shmem import shared_home_fn
from repro.obs.spans import span
from repro.db.tracing import drain
from repro.memsim.interleave import Interleaver
from repro.memsim.numa import NumaMachine
from repro.tpcd.dbgen import build_database
from repro.tpcd.queries import query_instance
from repro.tpcd.scales import get_scale

_DB_CACHE = {}
_TRACE_CACHE = {}

#: Directory for the persistent trace store (``None`` disables it).  Set
#: via :func:`set_trace_dir` (the ``repro-experiments --trace-dir`` flag);
#: newly created shared trace caches read through to it.
_TRACE_DIR = None


def set_trace_dir(path):
    """Point the shared trace caches at a persistent store directory.

    Affects caches created afterwards (callers set it before running
    experiments); ``None`` turns persistence back off.  Existing caches
    keep the directory they were created with.
    """
    global _TRACE_DIR
    _TRACE_DIR = path


def get_trace_dir():
    """The configured persistent trace-store directory, or ``None``."""
    return _TRACE_DIR


def workload_database(scale="small", seed=42):
    """Build (or reuse) the populated TPC-D database for a scale preset.

    Databases are cached per ``(scale, seed)``: they are read-only under
    the paper's query set, so sharing one instance across experiments is
    safe and saves most of the setup time.
    """
    scale = get_scale(scale)
    key = (scale.name, seed)
    if key not in _DB_CACHE:
        with span("dbgen", scale=scale.name, seed=seed):
            _DB_CACHE[key] = build_database(sf=scale.sf, seed=seed)
    return _DB_CACHE[key]


def workload_trace_cache(scale="small", seed=42):
    """The shared :class:`TraceCache` over :func:`workload_database`.

    Cached per ``(scale, seed)`` exactly like the databases: sweeps that
    vary only the machine configuration replay the same recorded streams.
    The backing database is lazy -- a run whose traces all come from the
    persistent store never builds it.
    """
    scale = get_scale(scale)
    key = (scale.name, seed)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = TraceCache(
            lambda: workload_database(scale, seed), scale,
            trace_dir=_TRACE_DIR, db_seed=seed)
    return _TRACE_CACHE[key]


def _all_trace_caches():
    """Every live :class:`TraceCache`: the shared per-scale caches plus the
    sweep driver's ablation variants."""
    from repro.core.sweep import _VARIANT_CACHE

    return list(_TRACE_CACHE.values()) + list(_VARIANT_CACHE.values())


def trace_cache_stats():
    """Aggregate :meth:`TraceCache.stats` over every live cache.

    Sums the shared per-scale caches and the sweep driver's ablation
    variants, so ``repro-experiments --time`` can report trace traffic for
    the whole process in one line.  ``events``/``source_events``/``bytes``
    include traces a sweep has since released (counted by ``released``);
    ``live_events`` and ``plan_bytes`` cover the live traces only.
    """
    totals = {"traces": 0, "released": 0, "events": 0, "source_events": 0,
              "bytes": 0, "live_events": 0, "plan_bytes": 0, "hits": 0,
              "records": 0, "loads": 0, "bytes_read": 0, "bytes_written": 0}
    for cache in _all_trace_caches():
        for name, value in cache.stats().items():
            totals[name] += value
    return totals


def clear_caches():
    """Drop every memoized database and trace cache.

    Long sessions (pytest runs, sweep drivers) otherwise accumulate one
    database build and one trace set per ``(scale, seed)`` touched.  Also
    covers the sweep driver's ablation-variant cache and the horizon
    kernel's combined-schedule memo (which holds trace references).
    """
    from repro.core.sweep import clear_variant_cache
    from repro.memsim.horizon import clear_memo
    from repro.workload.session import clear_scenarios

    _DB_CACHE.clear()
    for cache in _TRACE_CACHE.values():
        cache.clear()
    _TRACE_CACHE.clear()
    clear_variant_cache()
    clear_memo()
    clear_scenarios()


class WorkloadResult:
    """Everything one simulated workload produced."""

    def __init__(self, qid, scale, machine, run, rows_per_cpu):
        self.qid = qid
        self.scale = scale
        self.machine = machine
        self.run = run
        self.rows_per_cpu = rows_per_cpu

    @property
    def stats(self):
        """Machine-wide miss statistics."""
        return self.machine.stats

    @property
    def exec_time(self):
        return self.run.exec_time

    def breakdown(self):
        """Figure 6-(a): Busy / MSync / Mem fractions."""
        return self.run.breakdown()

    def mem_breakdown(self):
        """Figure 6-(b): memory stall split by data-structure group."""
        return self.run.mem_breakdown()

    def time_components(self):
        """Figures 9/11: absolute Busy / MSync / SMem / PMem cycles."""
        return self.run.time_components()


def _query_stream(db, backend, sql, hints, sink):
    rows = yield from db.execute(sql, backend, hints=hints)
    sink[backend.node] = rows


def _instances(qid, n_procs, seed_base):
    return [query_instance(qid, seed=seed_base + i) for i in range(n_procs)]


def run_query_workload(qid, scale="small", machine_config=None, n_procs=4,
                       seed_base=0, db=None, prefetch=False):
    """Run one query type on every processor; return a WorkloadResult.

    ``machine_config`` defaults to the scale's baseline; ``prefetch``
    switches on the section-6 sequential prefetcher for database data.
    Sweeps replay the same streams from a shared trace cache instead
    (:func:`workload_trace_cache`); the simulation output is identical.
    """
    scale = get_scale(scale)
    db = db or workload_database(scale)
    cfg = machine_config or scale.machine_config()
    if prefetch:
        cfg = cfg.replace(prefetch_data=True)
    machine = NumaMachine(cfg, home_fn=shared_home_fn())
    sink = {}
    backends = [db.backend(i, arena_size=scale.arena_size)
                for i in range(n_procs)]
    streams = [
        _query_stream(db, backends[i], qi.sql, qi.hints, sink)
        for i, qi in enumerate(_instances(qid, n_procs, seed_base))
    ]
    run = Interleaver(machine).run(streams)
    return WorkloadResult(qid, scale, machine, run, sink)


def run_mixed_workload(qids, scale="small", machine_config=None, db=None,
                       seed_base=0):
    """Run a heterogeneous workload: processor *i* runs query ``qids[i]``.

    The paper's parallel programming model is inter-query parallelism where
    "each simulated processor runs a different query or stream of queries";
    this is the different-queries variant (the homogeneous variant is
    :func:`run_query_workload`).  A processor may also run a *stream*: pass
    a list of query ids for that slot and they execute back to back on the
    same backend, with the query-lifetime heap released in between.
    """
    scale = get_scale(scale)
    db = db or workload_database(scale)
    cfg = machine_config or scale.machine_config()
    machine = NumaMachine(cfg, home_fn=shared_home_fn())
    sink = {}
    backends = [db.backend(i, arena_size=scale.arena_size)
                for i in range(len(qids))]

    def slot_stream(i, spec):
        backend = backends[i]
        queries = spec if isinstance(spec, (list, tuple)) else [spec]
        results = []
        for j, qid in enumerate(queries):
            qi = query_instance(qid, seed=seed_base + i + 10 * j)
            rows = yield from db.execute(qi.sql, backend, hints=qi.hints)
            results.append(rows)
            backend.priv.reset_heap()
        sink[i] = results if isinstance(spec, (list, tuple)) else results[0]

    run = Interleaver(machine).run(
        [slot_stream(i, q) for i, q in enumerate(qids)])
    return WorkloadResult(tuple(qids), scale, machine, run, sink)


def run_warm_workload(measure_qid, warm_qid=None, scale="small",
                      machine_config=None, n_procs=4, db=None):
    """Figure-12 style run: optionally warm the caches, then measure.

    The warm-up phase runs ``warm_qid`` (with different parameters) to
    completion; its statistics are discarded, cache and directory state are
    kept, each backend's query-lifetime heap is released (so the measured
    query reuses the same private addresses, as Postgres95 processes do),
    and then ``measure_qid`` runs with fresh statistics.
    """
    scale = get_scale(scale)
    db = db or workload_database(scale)
    cfg = machine_config or scale.machine_config()
    machine = NumaMachine(cfg, home_fn=shared_home_fn())
    interleaver = Interleaver(machine)
    backends = [db.backend(i, arena_size=scale.arena_size)
                for i in range(n_procs)]

    def make_streams(qid, seed_base, sink):
        return [
            _query_stream(db, backends[i], qi.sql, qi.hints, sink)
            for i, qi in enumerate(_instances(qid, n_procs, seed_base))
        ]

    if warm_qid is not None:
        interleaver.run(make_streams(warm_qid, 100, {}))
        for b in backends:
            b.priv.reset_heap()

    sink = {}
    run = interleaver.run(make_streams(measure_qid, 0, sink), reset_stats=True)
    return WorkloadResult(measure_qid, scale, machine, run, sink)


def run_untraced(qid, scale="small", seed=0, db=None):
    """Execute a query instance without simulation; returns its rows."""
    scale = get_scale(scale)
    db = db or workload_database(scale)
    qi = query_instance(qid, seed=seed)
    backend = db.backend(0, arena_size=scale.arena_size)
    return drain(db.execute(qi.sql, backend, hints=qi.hints))
