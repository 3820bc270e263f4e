"""Sweep driver: one trace recording, many machine simulations.

Sweep experiments (Figures 8-11, the ablation benchmarks) simulate the same
workload under many machine configurations.  Live execution costs
``O(configs x full-engine-execution)``; with the trace cache it is
``O(1 engine execution + configs x replay)``, and the replays are
independent, so they also fan out over worker processes.

A sweep is a list of :class:`SweepPoint` specifications -- JSON-safe, so
they can be shipped to workers.  :func:`run_sweep` decides
*what* must run: points already in the per-process memo, or completed in
the checkpoint directory's ledger (:mod:`repro.core.ledger`), are
answered without simulating.  *How* the rest run is
:mod:`repro.core.backend`'s business: with ``jobs=1`` (the default) they
run right here, in the one serial loop, against the shared per-scale
caches; otherwise one supervisor drives them over
``repro-sweep-worker`` subprocesses and absorbs crashed, hung, raising and
garbage-returning workers.  Results are identical every way, because
database generation, query parameters and backend transaction ids are all
process-independent, replay is array-direct
(:meth:`~repro.memsim.interleave.Interleaver.run_traces`) against
address-arithmetic NUMA placement, and results travel as plain-dict
summaries (:func:`summarize`), never as live ``WorkloadResult`` objects.
A sweep either completes with correct results or raises one typed
:class:`~repro.core.errors.SweepError`.
"""

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.core.ledger import Ledger
from repro.core.tracestore import store_key
from repro.db.shmem import shared_home_fn
from repro.memsim.events import CLASS_NAMES, DataClass, N_CLASSES
from repro.memsim.interleave import Interleaver
from repro.memsim.numa import NumaMachine
from repro.obs import events as obs_events
from repro.obs.metrics import registry
from repro.obs.spans import span
from repro.tpcd.scales import get_scale


@dataclass(frozen=True)
class SweepPoint:
    """One simulation of a sweep: a workload under one machine setup.

    ``key`` identifies the point in the result dict.  ``machine`` holds
    :class:`~repro.memsim.numa.MachineConfig` overrides applied to the
    scale's baseline (e.g. ``{"l2_line": 128, "l1_line": 64}``).  The
    remaining fields select workload-side variants used by the ablation
    benchmarks: private-arena size, NUMA page placement (``"shared"``
    round-robin or ``"node0"`` single-home), and the engine's per-rescan
    lock revalidation.
    """

    key: object
    qid: str
    machine: dict = field(default_factory=dict)
    n_procs: int = 4
    seed_base: int = 0
    arena_size: Optional[int] = None
    placement: str = "shared"
    lock_check_per_rescan: bool = True


def summarize(result):
    """Reduce a :class:`WorkloadResult` to a picklable plain-dict summary.

    Carries everything the sweep-based experiments read: execution time,
    the Busy/MSync/SMem/PMem split, grouped and per-class miss counts for
    both cache levels, and per-processor time accounting.
    """
    stats = result.stats
    return {
        "exec_time": result.exec_time,
        "components": result.time_components(),
        "breakdown": result.breakdown(),
        "l1_grouped": stats.grouped("l1"),
        "l2_grouped": stats.grouped("l2"),
        "l1_by_class": {CLASS_NAMES[DataClass(c)]: sum(stats.l1_read_misses[c])
                        for c in range(N_CLASSES)},
        "l2_by_class": {CLASS_NAMES[DataClass(c)]: sum(stats.l2_read_misses[c])
                        for c in range(N_CLASSES)},
        # Coherence misses per class (the [cold, conflict, coherence]
        # triple's last slot): what the multi-tenant lock-line analyses
        # read.  Additive -- _SUMMARY_KEYS validation is a subset check,
        # so summaries recorded by older writers stay acceptable.
        "l2_cohe_by_class": {CLASS_NAMES[DataClass(c)]:
                             stats.l2_read_misses[c][2]
                             for c in range(N_CLASSES)},
        "l1_reads": stats.l1_reads,
        "l1_writes": stats.l1_writes,
        "cpu": [
            {"busy": s.busy, "msync": s.msync, "mem": s.mem,
             "finish_time": s.finish_time}
            for s in result.run.cpu_stats
        ],
    }


#: Summary dicts must carry these keys to be accepted from a worker.
_SUMMARY_KEYS = frozenset({
    "exec_time", "components", "breakdown", "l1_grouped", "l2_grouped",
    "l1_by_class", "l2_by_class", "l1_reads", "l1_writes", "cpu",
})


def _valid_summary(summary):
    """A worker result is accepted only if it looks like :func:`summarize`
    output -- anything else (an injected garbage return, a half-decoded
    object) is charged like a failure."""
    return isinstance(summary, dict) and _SUMMARY_KEYS <= summary.keys()


# -- per-process database / trace-cache store -----------------------------------

#: ``(scale_name, seed, lock_check_per_rescan, trace_dir, strict_store)
#: -> TraceCache`` (with a lazily built database), one entry per variant
#: and store per process.
_VARIANT_CACHE = {}

#: ``(scale_name, seed, point identity) -> summary``.  Sweep points are
#: deterministic, so experiments that sweep the same configurations (the
#: Figure 8/9 and Figure 10/11 pairs report misses and time from identical
#: simulations) share one run per point.  Treat cached summaries as
#: immutable: copy before editing.
_POINT_CACHE = {}

#: Bucket bounds (seconds) for the per-point latency histogram.
_POINT_SECONDS_BUCKETS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
                          60.0, 300.0)


def point_memo_stats():
    """Point-memo observability: hits, misses, and resident summaries
    (registry counters ``sweep.point.memo_hits`` / ``memo_misses``)."""
    reg = registry()
    return {"hits": reg.value("sweep.point.memo_hits"),
            "misses": reg.value("sweep.point.memo_misses"),
            "cached": len(_POINT_CACHE)}


def _point_cache_key(point, scale, seed):
    # Key on the *resolved* machine configuration, not the raw overrides:
    # different sweeps reach the baseline through different knobs (figure 8
    # overrides the line sizes, figure 10 the cache sizes), and identical
    # resolved configurations are identical simulations.
    cfg = scale.machine_config(**point.machine)
    cfg_key = tuple(getattr(cfg, f) for f in cfg.__dataclass_fields__)
    return (scale.name, seed, point.qid, cfg_key, point.n_procs,
            point.seed_base, point.arena_size, point.placement,
            point.lock_check_per_rescan)


def _variant(scale, seed, lock_check_per_rescan, config):
    """The :class:`TraceCache` for one engine variant (lazy database),
    reading ``config``'s trace store in its strict-store mode."""
    from repro.core.experiment import workload_trace_cache
    from repro.core.tracecache import TraceCache
    from repro.tpcd.dbgen import build_database

    if lock_check_per_rescan:
        return workload_trace_cache(scale, seed, config)
    key = (scale.name, seed, lock_check_per_rescan, config.trace_dir,
           config.strict_store)
    if key not in _VARIANT_CACHE:
        def make_db():
            with span("dbgen", scale=scale.name, seed=seed,
                      variant="no_lock_check"):
                db = build_database(sf=scale.sf, seed=seed)
            db.lock_check_per_rescan = False
            return db

        _VARIANT_CACHE[key] = TraceCache(make_db, scale,
                                         trace_dir=config.trace_dir,
                                         db_seed=seed,
                                         lock_check_per_rescan=False,
                                         strict_store=config.strict_store)
    return _VARIANT_CACHE[key]


def clear_variant_cache():
    """Drop the sweep driver's ablation-variant databases and traces, and
    the memoized point summaries."""
    _VARIANT_CACHE.clear()
    _POINT_CACHE.clear()


def _release_scenario(qid):
    """Drop one scenario's traces from this process, derived views included.

    A ``scn:<spec-hash>`` trace can only ever serve the points of its own
    spec, so nothing is lost but the memory: the variant caches, the
    recording memo, and the horizon schedules pinning the trace objects
    (whose batch plans and share bases go with them).
    Ordinary query traces are never released -- later sweeps replay them.
    """
    from repro.core.experiment import _all_trace_caches
    from repro.memsim.horizon import evict_traces
    from repro.workload.session import release_scenario

    dropped = [t for cache in _all_trace_caches()
               for t in cache.release(qid)]
    release_scenario(qid)
    if dropped:
        evict_traces(dropped)
        registry().counter("workload.scenario.released").inc()


def _releasing(points):
    """Yield ``points`` in order, bounding scenario-trace lifetime.

    The caller is done with a point when it comes back for the next one
    (simulated it in-process, or spooled its traces for the workers); once
    that was the last point naming a scenario, the scenario's traces are
    released.  The policy needs no knob: it is read off the point list.
    """
    from repro.workload.session import is_scenario_qid

    left = Counter(p.qid for p in points if is_scenario_qid(p.qid))
    for p in points:
        yield p
        if p.qid in left:
            left[p.qid] -= 1
            if not left[p.qid]:
                _release_scenario(p.qid)


def _home_fn(placement):
    if placement == "shared":
        return shared_home_fn()
    if placement == "node0":
        return lambda addr: 0
    raise ValueError(f"unknown placement {placement!r}")


def _store_keys(point, scale, seed):
    """The trace-store identities of the per-processor traces one sweep
    point replays."""
    arena = point.arena_size or scale.arena_size
    return [store_key(scale.name, seed, point.qid, point.seed_base + i, i,
                      arena, point.lock_check_per_rescan)
            for i in range(point.n_procs)]


def _trace_for(scale, skey, config):
    """The :class:`QueryTrace` stored under ``skey``, from the per-process
    variant caches (recording or store-loading on first use)."""
    _, seed, qid, qseed, node, arena, lock_check = skey
    return _variant(scale, seed, lock_check, config).get(
        qid, qseed, node, arena_size=arena)


def _needed_traces(todo, scale, seed):
    """Yield the store key of every distinct trace ``todo`` replays, once.

    The transport spools each before asking for the next, so a scenario's
    traces are released as soon as its last point's keys have been served.
    """
    seen = set()
    for point in _releasing(todo):
        for skey in _store_keys(point, scale, seed):
            if skey not in seen:
                seen.add(skey)
                yield skey


def simulate_point(point, scale, traces, kernel):
    """Replay ``traces`` under ``point``'s machine on the ``kernel`` replay
    engine (a ``RunConfig.kernel`` name); return the summary dict.

    The database-free core of :func:`run_point`, shared with the sweep
    workers: a caller that already holds the recorded traces (the parent's
    variant caches, a ``repro-sweep-worker`` loading them by store key from
    the spool) needs only address-arithmetic NUMA placement and the replay
    engine -- never a database object.
    """
    from repro.core.experiment import WorkloadResult

    scale = get_scale(scale)
    cfg = scale.machine_config(**point.machine)
    machine = NumaMachine(cfg, home_fn=_home_fn(point.placement))
    sink = {}
    with span("replay", qid=point.qid, n_traces=len(traces)):
        run = Interleaver(machine).run_traces(traces, sink=sink,
                                              kernel=kernel)
    return summarize(WorkloadResult(point.qid, scale, machine, run, sink))


def run_point(point, scale, seed, config):
    """Simulate one sweep point from the per-process caches under
    ``config``'s trace store and kernel; return its summary dict (memoized
    per point identity).

    Replay is array-direct (:meth:`Interleaver.run_traces`): the recorded
    columns drive the machine without generator resumptions or per-event
    tuples, and NUMA placement comes from pure address arithmetic -- so a
    replay-only point needs no database object at all.
    """
    scale = get_scale(scale)
    reg = registry()
    ckey = _point_cache_key(point, scale, seed)
    summary = _POINT_CACHE.get(ckey)
    if summary is not None:
        reg.counter("sweep.point.memo_hits").inc()
        return summary
    reg.counter("sweep.point.memo_misses").inc()
    t0 = time.perf_counter()
    with span("sweep-point", key=repr(point.key), qid=point.qid):
        traces = [_trace_for(scale, skey, config)
                  for skey in _store_keys(point, scale, seed)]
        summary = simulate_point(point, scale, traces, config.kernel)
    reg.histogram("sweep.point.seconds", _POINT_SECONDS_BUCKETS).observe(
        time.perf_counter() - t0)
    _POINT_CACHE[ckey] = summary
    return summary


# -- recovery counters -----------------------------------------------------------

#: ``supervisor_stats`` key -> registry counter name.
_SUP_METRICS = {
    "retries": "sweep.point.retries",
    "timeouts": "sweep.point.timeouts",
    "respawns": "sweep.pool.respawns",   # name kept: run reports key on it
    "fallbacks": "sweep.point.fallbacks",
    "garbage": "sweep.point.garbage",
    "resumed": "sweep.point.resumed",
}


def supervisor_stats():
    """Recovery-path counters: retries, timeouts, worker respawns, in-process
    fallbacks, rejected garbage results, and ledger-resumed points (views
    over the ``sweep.*`` registry counters)."""
    reg = registry()
    return {key: reg.value(name) for key, name in _SUP_METRICS.items()}


def _sup_count(key, n=1):
    registry().counter(_SUP_METRICS[key]).inc(n)


# -- the sweep -------------------------------------------------------------------

def _resume(ledger, points, scale, seed):
    """Bring a checkpoint directory's progress into this process.

    Completed summaries seed the point memo, so those points never reach a
    transport or the serial loop again; every other point -- never
    started, or in flight when an earlier run died -- simply runs.
    """
    resumed = 0
    for ckey in (_point_cache_key(p, scale, seed) for p in points):
        summary = ledger.get(ckey)
        if summary is not None and ckey not in _POINT_CACHE:
            _POINT_CACHE[ckey] = summary
            resumed += 1
    if resumed:
        _sup_count("resumed", resumed)
        obs_events.emit("points.resumed", count=resumed)


def run_sweep(points, scale="small", seed=42, config=None):
    """Run every sweep point; return ``{point.key: summary}`` in order.

    ``config`` is the :class:`~repro.core.run.RunConfig` the sweep runs
    under, whole: jobs, trace store and strict-store mode, replay kernel,
    checkpoint directory, per-point timeout, retry budget, backoff.
    Omitted, the process default (:func:`repro.core.run.configure_run`)
    applies.  With one job (or one memo miss) the misses
    are simulated right here; otherwise
    (:func:`repro.core.backend.select_transport`) the parent spools every
    needed trace once (recording, or loading from the persistent store
    when one is configured) and :func:`repro.core.backend.supervise`
    drives the misses over ``repro-sweep-worker`` subprocesses, which
    replay without ever running the database engine.  Results are
    independent of all of it -- including worker crashes, hangs and
    retries, which the supervisor absorbs.

    A configured checkpoint directory makes every completed point durable
    in its ledger (:mod:`repro.core.ledger`), serial or parallel; a re-run
    -- with any ``jobs`` -- loads the ledger and re-simulates only
    unfinished points, bit-identically.  The ledger is held exclusively
    while the sweep runs: a second live sweep on the same directory raises
    :class:`~repro.core.errors.LedgerError`.

    Scenario traces (``scn:`` qids) live as long as the sweep needs them:
    once the last point naming one is simulated (or spooled), its traces
    are dropped from the process (:func:`_releasing`).  Query traces stay
    cached for the sweeps that follow.
    """
    from repro.core.backend import select_transport, supervise
    from repro.core.run import current_run_config

    points = list(points)
    scale = get_scale(scale)
    if config is None:
        config = current_run_config()

    ledger = None
    if config.checkpoint_dir is not None:
        ledger = Ledger(config.checkpoint_dir)
    try:
        if ledger is not None:
            _resume(ledger, points, scale, seed)
        # Only memo misses go to a transport: a sweep whose points were
        # already simulated (e.g. fig9 right after fig8) answers from the
        # parent's memo without spawning workers.
        todo = [p for p in points
                if _point_cache_key(p, scale, seed) not in _POINT_CACHE]
        obs_events.emit("sweep.start", total=len(todo), points=len(points),
                        jobs=config.jobs, backend=config.backend)
        t0 = time.perf_counter()
        transport = select_transport(config, len(todo))
        if transport is not None:
            summaries = supervise(transport(todo, scale, seed, config),
                                  todo, scale, seed, config, ledger)
            # Keep the parent's memo warm so a later sweep over the same
            # points (the misses/time figure pairs) is free.
            for p, s in zip(todo, summaries):
                _POINT_CACHE[_point_cache_key(p, scale, seed)] = s
        out = {}
        for p in _releasing(points):
            ckey = _point_cache_key(p, scale, seed)
            fresh = ckey not in _POINT_CACHE
            summary = run_point(p, scale, seed, config)
            if fresh:
                if ledger is not None:
                    ledger.complete(ckey, summary)
                obs_events.emit("point.done", key=repr(p.key))
            out[p.key] = summary
        obs_events.emit("sweep.end", points=len(points),
                        seconds=round(time.perf_counter() - t0, 6))
        return out
    finally:
        if ledger is not None:
            ledger.close()
