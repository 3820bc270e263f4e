"""Parallel sweep driver: one trace recording, many machine simulations.

Sweep experiments (Figures 8-11, the ablation benchmarks) simulate the same
workload under many machine configurations.  Live execution costs
``O(configs x full-engine-execution)``; with the trace cache it is
``O(1 engine execution + configs x replay)``, and the replays are
independent, so they also parallelize over a process pool.

A sweep is a list of :class:`SweepPoint` specifications -- picklable, so
they can be shipped to ``spawn`` workers.  The parent records (or, with a
persistent trace store configured, loads) every trace a sweep needs
exactly once, encodes them with :mod:`repro.core.tracestore`, and ships
the bytes to workers through the pool initializer -- so a worker never
touches ``build_database``: it decodes its traces and replays them
array-directly (:meth:`~repro.memsim.interleave.Interleaver.run_traces`)
against address-arithmetic NUMA placement.  Results come back as
plain-dict summaries (:func:`summarize`), not live ``WorkloadResult``
objects, so nothing unpicklable crosses the process boundary.

With ``jobs=1`` (the default) everything runs in-process against the
shared per-scale caches; results are identical either way because database
generation, query parameters, and backend transaction ids are all
process-independent.

Parallel execution is *supervised*: every point is its own future, and the
supervisor recovers from each worker failure mode -- a crashed worker
(``BrokenProcessPool``: the pool is respawned), a hung worker (a
configurable per-point timeout, after which the pool is killed and
respawned), a raising worker (bounded retry with exponential backoff), and
a garbage result (summaries are validated before acceptance).  A point
that exhausts its worker retries degrades to in-process execution in the
parent; only if that also fails does the sweep raise -- one structured
:class:`~repro.core.errors.PointFailure` carrying the point key and the
original error, never a bare pool traceback.  With a checkpoint journal
(``checkpoint_dir=``, the ``--checkpoint-dir`` flag) every completed
point is durable, and an interrupted sweep resumes from the journal
instead of restarting.  All of this is deterministic to test: the
:mod:`repro.core.faults` harness injects crashes, hangs, raises, and
garbage at chosen points.
"""

import multiprocessing
import os
import time
import warnings
from collections import Counter
from concurrent.futures import (
    FIRST_COMPLETED, BrokenExecutor, CancelledError, ProcessPoolExecutor,
    wait as _futures_wait,
)
from dataclasses import dataclass, field
from typing import Optional

from repro.db.shmem import shared_home_fn
from repro.memsim.batch import default_kernel as _default_kernel
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
        # so summaries journaled by older writers stay acceptable.
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


# -- per-process database / trace-cache store -----------------------------------

#: ``(scale_name, seed, lock_check_per_rescan) -> TraceCache`` (with a
#: lazily built database), one entry per variant per process.
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


def _variant(scale, seed, lock_check_per_rescan):
    """The :class:`TraceCache` for one engine variant (lazy database)."""
    from repro.core.experiment import get_trace_dir, workload_trace_cache
    from repro.core.tracecache import TraceCache
    from repro.tpcd.dbgen import build_database

    if lock_check_per_rescan:
        return workload_trace_cache(scale, seed)
    key = (scale.name, seed, lock_check_per_rescan)
    if key not in _VARIANT_CACHE:
        def make_db():
            with span("dbgen", scale=scale.name, seed=seed,
                      variant="no_lock_check"):
                db = build_database(sf=scale.sf, seed=seed)
            db.lock_check_per_rescan = False
            return db

        _VARIANT_CACHE[key] = TraceCache(make_db, scale,
                                         trace_dir=get_trace_dir(),
                                         db_seed=seed,
                                         lock_check_per_rescan=False)
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
    (whose boxed columns, batch plans and share bases go with them).
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
    (simulated it in-process, or encoded its traces for shipping); once
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


def _trace_keys(point, scale):
    """The per-processor trace identities one sweep point replays."""
    arena = point.arena_size or scale.arena_size
    return [(point.lock_check_per_rescan, point.qid, point.seed_base + i,
             i, arena)
            for i in range(point.n_procs)]


def _point_traces(point, scale, seed):
    """The ``n_procs`` :class:`QueryTrace` objects for one sweep point.

    In a pool worker the traces arrive pre-recorded as encoded bytes
    (decoded lazily, once per unique trace); everywhere else -- and for
    any trace the parent did not ship -- they come from the per-process
    variant caches, recording or store-loading on first use.
    """
    keys = _trace_keys(point, scale)
    if _SHIPPED is not None and all(k in _SHIPPED for k in keys):
        return [_shipped_trace(k) for k in keys]
    trace_cache = _variant(scale, seed, point.lock_check_per_rescan)
    arena = point.arena_size or scale.arena_size
    return [trace_cache.get(point.qid, point.seed_base + i, i,
                            arena_size=arena)
            for i in range(point.n_procs)]


def simulate_point(point, scale, traces):
    """Replay ``traces`` under ``point``'s machine; return the summary dict.

    The database-free core of :func:`run_point`, shared with the worker
    backend: a caller that already holds the recorded traces (the parent's
    variant caches, or a ``repro-sweep-worker`` loading them by store key
    from the spool) needs only address-arithmetic NUMA placement and the
    replay engine -- never a database object.
    """
    from repro.core.experiment import WorkloadResult

    scale = get_scale(scale)
    cfg = scale.machine_config(**point.machine)
    machine = NumaMachine(cfg, home_fn=_home_fn(point.placement))
    sink = {}
    with span("replay", qid=point.qid, n_traces=len(traces)):
        run = Interleaver(machine).run_traces(traces, sink=sink)
    return summarize(WorkloadResult(point.qid, scale, machine, run, sink))


def run_point(point, scale, seed=42):
    """Simulate one sweep point from the per-process caches; return its
    summary dict (memoized per point identity).

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
        traces = _point_traces(point, scale, seed)
        summary = simulate_point(point, scale, traces)
    reg.histogram("sweep.point.seconds", _POINT_SECONDS_BUCKETS).observe(
        time.perf_counter() - t0)
    _POINT_CACHE[ckey] = summary
    return summary


# -- process-pool execution ------------------------------------------------------

#: Process-wide defaults for the supervised executor, set by the
#: ``repro-experiments`` flags (via :class:`~repro.core.run.RunConfig` and
#: :func:`repro.core.run.configure_run`, or the legacy
#: :func:`configure_sweep`) so the figure modules need not thread
#: robustness knobs through their signatures.
_SWEEP_DEFAULTS = {
    "checkpoint_dir": None,   # --checkpoint-dir: journal completed points
    "point_timeout": None,    # --point-timeout: seconds before a point hangs
    "retries": 2,             # --retries: worker re-attempts per point
    "backoff": 0.05,          # base delay; doubles per attempt
}

#: ``supervisor_stats`` key -> registry counter name.
_SUP_METRICS = {
    "retries": "sweep.point.retries",
    "timeouts": "sweep.point.timeouts",
    "respawns": "sweep.pool.respawns",
    "fallbacks": "sweep.point.fallbacks",
    "garbage": "sweep.point.garbage",
    "resumed": "sweep.point.resumed",
    "requeued": "sweep.point.requeued",
}

#: Summary dicts must carry these keys to be accepted from a worker.
_SUMMARY_KEYS = frozenset({
    "exec_time", "components", "breakdown", "l1_grouped", "l2_grouped",
    "l1_by_class", "l2_by_class", "l1_reads", "l1_writes", "cpu",
})


def configure_sweep(checkpoint_dir=None, point_timeout=None, retries=None,
                    backoff=None):
    """Set process-wide defaults for :func:`run_sweep`'s supervisor.

    ``None`` leaves a setting unchanged; explicit ``run_sweep`` arguments
    still take precedence per call.  New code should build a
    :class:`~repro.core.run.RunConfig` and call
    :func:`~repro.core.run.configure_run` instead; both write the same
    process-wide store, so they can be mixed safely.
    """
    for name, value in (("checkpoint_dir", checkpoint_dir),
                        ("point_timeout", point_timeout),
                        ("retries", retries), ("backoff", backoff)):
        if value is not None:
            _SWEEP_DEFAULTS[name] = value


def supervisor_stats():
    """Recovery-path counters: retries, timeouts, pool respawns, in-process
    fallbacks, rejected garbage results, and checkpoint-resumed points
    (views over the ``sweep.*`` registry counters)."""
    reg = registry()
    return {key: reg.value(name) for key, name in _SUP_METRICS.items()}


def _sup_count(key):
    registry().counter(_SUP_METRICS[key]).inc()


def _valid_summary(summary):
    """A worker result is accepted only if it looks like :func:`summarize`
    output -- anything else (an injected garbage return, a half-pickled
    object) is retried like a failure."""
    return isinstance(summary, dict) and _SUMMARY_KEYS <= summary.keys()


_WORKER_ARGS = None

#: Traces shipped by the sweep parent: ``trace key -> encoded bytes``
#: (``None`` outside a pool worker), with lazily decoded instances beside
#: them.  Keeping the bytes and decoding on demand means a worker only
#: pays for the traces its assigned points actually replay.
_SHIPPED = None
_SHIPPED_DECODED = {}


def _shipped_trace(tkey):
    trace = _SHIPPED_DECODED.get(tkey)
    if trace is None:
        from repro.core.tracestore import decode_trace

        trace, _ = decode_trace(_SHIPPED[tkey])
        _SHIPPED_DECODED[tkey] = trace
    return trace


def _worker_init(scale, seed, shipped=None, strict_store=False,
                 kernel="auto"):
    global _WORKER_ARGS, _SHIPPED
    _WORKER_ARGS = (scale, seed)
    _SHIPPED = shipped
    if strict_store:
        from repro.core import tracestore

        tracestore.set_strict(True)
    if kernel != "auto":
        from repro.memsim.batch import set_default_kernel

        set_default_kernel(kernel)


def _worker_task(index, attempt, point):
    """One supervised task: fault-injection hook, then the simulation.

    ``index`` is the point's submission index and ``attempt`` its retry
    count -- the coordinates :mod:`repro.core.faults` keys injected
    crashes/hangs/garbage on, so every recovery path is deterministic to
    exercise.
    """
    from repro.core import faults

    garbage = faults.maybe_inject(index, attempt)
    if garbage is not None:
        return garbage
    scale, seed = _WORKER_ARGS
    return run_point(point, scale, seed=seed)


def _ship_traces(todo, scale, seed):
    """Record or load every trace ``todo`` needs; return encoded bytes.

    One engine execution (or one store load) per unique trace, all in the
    parent -- workers receive the result through the pool initializer and
    never build a database.  Workers need only the bytes, so a scenario's
    traces are released as soon as its last point is encoded.
    """
    from repro.core.tracestore import encode_trace, store_key

    shipped = {}
    with span("encode", points=len(todo)):
        for point in _releasing(todo):
            for tkey in _trace_keys(point, scale):
                if tkey in shipped:
                    continue
                lock_check, qid, qseed, node, arena = tkey
                trace_cache = _variant(scale, seed, lock_check)
                trace = trace_cache.get(qid, qseed, node, arena_size=arena)
                skey = store_key(scale.name, seed, qid, qseed, node, arena,
                                 lock_check)
                shipped[tkey] = encode_trace(skey, trace)
    return shipped


def _terminate_pool(pool):
    """Kill a pool's worker processes outright (hung or broken pool)."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except OSError:
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass  # a broken pool may refuse a clean shutdown; workers are dead


def _point_failure(point, attempts, exc, timeout=False):
    from repro.core.errors import PointFailure, PointTimeout

    cls = PointTimeout if timeout else PointFailure
    return cls(
        f"sweep point {point.key!r} (qid={point.qid}) failed after "
        f"{attempts} worker attempt(s) and an in-process retry: {exc}",
        point_key=point.key, qid=point.qid, attempts=attempts, cause=exc)


def _run_supervised(todo, scale, seed, config, journal):
    """Run ``todo`` on a supervised ``spawn`` pool; return summaries in
    ``todo`` order.

    ``config`` is the run's :class:`~repro.core.run.RunConfig`, passed
    whole: the supervisor reads ``jobs``, ``point_timeout``, ``retries``
    and ``backoff`` from it.  Each point is one future; at most ``jobs``
    are in flight, submitted in list order (sweeps are built query-major,
    so neighbouring points share a trace set and a worker's decoded-trace
    cache stays hot).  Worker failures are retried up to ``retries`` times
    with exponential backoff; a timeout or a dead worker kills and
    respawns the pool, re-queueing the collateral in-flight points.
    Points that exhaust their worker retries degrade to in-process
    execution in the parent.
    """
    from repro.core.errors import InvalidPointResult, PointTimeout

    point_timeout = config.point_timeout
    retries = config.retries
    backoff = config.backoff
    shipped = _ship_traces(todo, scale, seed)
    from repro.core.tracestore import get_strict

    ctx = multiprocessing.get_context("spawn")
    jobs = min(config.jobs, len(todo))
    n = len(todo)
    point_seconds = registry().histogram("sweep.point.seconds",
                                         _POINT_SECONDS_BUCKETS)
    results = [None] * n
    attempts = [0] * n
    last_error = [None] * n
    not_before = [0.0] * n
    pending = list(range(n))
    fallback = []
    inflight = {}
    pool = None
    tick = min(0.1, point_timeout / 5) if point_timeout else 0.5

    def record_checkpoint(i, summary):
        results[i] = summary
        if journal is not None:
            journal.append(_point_cache_key(todo[i], scale, seed), summary)

    def fail(i, exc, timed_out=False):
        """Charge a failed attempt; requeue with backoff or hand to the
        in-process fallback once the retry budget is spent."""
        last_error[i] = exc
        attempts[i] += 1
        if timed_out:
            _sup_count("timeouts")
            obs_events.emit("point.timeout", index=i,
                            key=repr(todo[i].key), attempts=attempts[i])
        if attempts[i] > retries:
            fallback.append(i)
            _sup_count("fallbacks")
            obs_events.emit("point.fallback", index=i,
                            key=repr(todo[i].key), attempts=attempts[i])
        else:
            _sup_count("retries")
            obs_events.emit("point.retry", index=i, key=repr(todo[i].key),
                            attempts=attempts[i],
                            error=type(exc).__name__)
            not_before[i] = time.monotonic() + backoff * (2 ** (attempts[i] - 1))
            pending.append(i)

    def respawn(exc=None):
        """Tear down the pool and requeue its in-flight points.

        With ``exc`` (pool breakage) every in-flight point is charged an
        attempt: the culprit is unknowable, and an uncharged requeue
        would retry a crash-on-attempt-N point at the same attempt
        forever.  Without (the timeout path, where the culprits are
        known and already charged), the collateral points retry free --
        a point that keeps hanging is charged when it times out itself.
        """
        nonlocal pool
        for i, _t0 in list(inflight.values()):
            if exc is None:
                pending.insert(0, i)
            else:
                fail(i, exc)
        inflight.clear()
        if pool is not None:
            with span("pool-respawn"):
                _terminate_pool(pool)
            pool = None
        _sup_count("respawns")
        obs_events.emit("pool.respawn",
                        cause=type(exc).__name__ if exc else "timeout")

    try:
        while pending or inflight:
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=jobs, mp_context=ctx,
                    initializer=_worker_init,
                    initargs=(scale, seed, shipped, get_strict(),
                              _default_kernel()))
            now = time.monotonic()
            ready = [i for i in pending if not_before[i] <= now]
            submit_broke = False
            while ready and len(inflight) < jobs:
                i = ready.pop(0)
                pending.remove(i)
                try:
                    fut = pool.submit(_worker_task, i, attempts[i], todo[i])
                except Exception as exc:
                    # submit also spawns worker processes, so a worker
                    # dying while we are still submitting surfaces here:
                    # usually as BrokenExecutor, but the manager thread
                    # tears the queues down concurrently, so mid-spawn it
                    # can be an OSError ("handle is closed") or ValueError
                    # from the half-pickled queue instead.  Same recovery
                    # either way.
                    fail(i, exc)
                    respawn(exc)
                    submit_broke = True
                    break
                inflight[fut] = (i, time.monotonic())
            if submit_broke:
                continue
            if not inflight:
                # Everything still pending is in its backoff embargo.
                time.sleep(max(0.0, min(not_before[i] for i in pending) - now))
                continue
            done, _ = _futures_wait(list(inflight), timeout=tick,
                                    return_when=FIRST_COMPLETED)
            broken = None
            for fut in done:
                i, t0 = inflight.pop(fut)
                try:
                    summary = fut.result()
                except (BrokenExecutor, CancelledError) as exc:
                    # A worker died mid-task; the culprit is unknowable, so
                    # every broken future is charged one attempt (bounded
                    # either way, and the fallback path keeps correctness).
                    # CancelledError (a BaseException) appears when the
                    # dying pool cancelled the future first.
                    broken = exc
                    fail(i, exc)
                except Exception as exc:
                    fail(i, exc)
                else:
                    if _valid_summary(summary):
                        elapsed = time.monotonic() - t0
                        point_seconds.observe(elapsed)
                        record_checkpoint(i, summary)
                        obs_events.emit("point.done", index=i,
                                        key=repr(todo[i].key),
                                        seconds=round(elapsed, 6),
                                        attempts=attempts[i] + 1)
                    else:
                        _sup_count("garbage")
                        obs_events.emit("point.garbage", index=i,
                                        key=repr(todo[i].key))
                        fail(i, InvalidPointResult(
                            f"worker returned a non-summary object "
                            f"{type(summary).__name__!r} for point "
                            f"{todo[i].key!r}", point_key=todo[i].key,
                            qid=todo[i].qid, attempts=attempts[i] + 1))
            if broken is not None:
                # The futures _futures_wait did not report this round are
                # broken too -- charge them through respawn, or a
                # crash-on-attempt-N point requeued uncharged would crash
                # at the same attempt indefinitely.
                respawn(broken)
                continue
            if point_timeout:
                now = time.monotonic()
                timed = [(fut, iv) for fut, iv in inflight.items()
                         if now - iv[1] > point_timeout]
                if timed:
                    for fut, (i, _t0) in timed:
                        del inflight[fut]
                        fail(i, PointTimeout(
                            f"sweep point {todo[i].key!r} exceeded the "
                            f"{point_timeout:.1f}s point timeout",
                            point_key=todo[i].key, qid=todo[i].qid,
                            attempts=attempts[i] + 1), timed_out=True)
                    respawn()
        pool.shutdown(wait=True)
        pool = None
    finally:
        if pool is not None:
            _terminate_pool(pool)

    # Graceful degradation: repeatedly failing points run in the parent,
    # where no pool can lose them (and injected worker faults cannot fire).
    for i in sorted(fallback):
        point = todo[i]
        try:
            summary = run_point(point, scale, seed=seed)
        except Exception as exc:
            worker_exc = last_error[i]
            raise _point_failure(
                point, attempts[i], exc,
                timeout=isinstance(worker_exc, PointTimeout)) from exc
        record_checkpoint(i, summary)
        obs_events.emit("point.done", index=i, key=repr(point.key),
                        attempts=attempts[i], fallback=True)
    return results


def _open_journal(config):
    """The resume store for one sweep's checkpoint directory.

    The workers backend needs the full lease ledger
    (:class:`~repro.core.ledger.LeaseLedger`); everything else keeps the
    plain checkpoint journal -- unless a ledger file already exists on
    disk, in which case it is honoured regardless of backend so a sweep
    interrupted under ``--backend workers`` resumes correctly from any
    backend.
    """
    from repro.core.checkpoint import CheckpointJournal
    from repro.core.ledger import LEDGER_NAME, LeaseLedger

    ledger_path = os.path.join(config.checkpoint_dir, LEDGER_NAME)
    if getattr(config, "backend", "auto") == "workers" \
            or os.path.exists(ledger_path):
        return LeaseLedger(config.checkpoint_dir,
                           lease_ttl=getattr(config, "lease_ttl", 30.0))
    return CheckpointJournal(config.checkpoint_dir)


def _requeue_stale(journal, points, scale, seed):
    """Reclaim stale leases on resume; count this sweep's requeued points.

    The ledger's durable abandon records make the requeue exactly-once: a
    second resume (or a concurrent driver) sees no stale lease for a point
    this call already reclaimed.  Points whose lease was reclaimed are
    simply absent from the completed set, so the normal todo computation
    re-runs them.
    """
    from repro.core.checkpoint import canonical_key

    reclaimed = set(journal.reclaim_stale())
    if not reclaimed:
        return 0
    mine = sum(1 for p in points
               if canonical_key(_point_cache_key(p, scale, seed))
               in reclaimed)
    if mine:
        registry().counter(_SUP_METRICS["requeued"]).inc(mine)
        obs_events.emit("points.requeued", count=mine,
                        reclaimed=len(reclaimed))
    return mine


#: Legacy ``run_sweep`` keyword arguments now carried by ``RunConfig``.
_LEGACY_SWEEP_KWARGS = ("checkpoint_dir", "point_timeout", "retries",
                        "backoff")
_LEGACY_WARNED = False


def _resolve_config(jobs, config, legacy):
    """The effective :class:`~repro.core.run.RunConfig` for one sweep.

    Precedence: explicit ``config`` argument, else the process-wide
    configuration; then deprecated loose kwargs (``checkpoint_dir`` etc.,
    which warn once per process), then an explicit ``jobs``.
    """
    global _LEGACY_WARNED
    from repro.core.run import current_run_config

    bad = set(legacy) - set(_LEGACY_SWEEP_KWARGS)
    if bad:
        raise TypeError(
            f"run_sweep() got unexpected keyword argument(s) {sorted(bad)}")
    if config is None:
        config = current_run_config()
    overrides = {k: v for k, v in legacy.items() if v is not None}
    if overrides:
        if not _LEGACY_WARNED:
            _LEGACY_WARNED = True
            warnings.warn(
                "passing checkpoint_dir/point_timeout/retries/backoff to "
                "run_sweep is deprecated; build a repro.core.RunConfig and "
                "pass it as config= (or set process defaults with "
                "configure_run)", DeprecationWarning, stacklevel=3)
        config = config.with_options(**overrides)
    if jobs is not None:
        config = config.with_options(jobs=jobs)
    return config


def run_sweep(points, scale="small", seed=42, jobs=None, config=None,
              **legacy):
    """Run every sweep point; return ``{point.key: summary}`` in order.

    ``config`` is a :class:`~repro.core.run.RunConfig` carrying the run's
    execution knobs (jobs, checkpoint directory, per-point timeout, retry
    budget, backoff); omitted, the process-wide configuration
    (:func:`repro.core.run.configure_run`, or the legacy
    :func:`configure_sweep` defaults) applies.  ``jobs`` overrides the
    config's worker count -- ``1`` runs in-process, ``>1`` fans the points
    out over a supervised ``spawn`` process pool: the parent prepares
    every needed trace once (recording, or loading from the persistent
    store when one is configured) and ships the encoded bytes to the
    workers, which replay without ever running the database engine.
    Results are independent of ``jobs`` -- including under worker crashes,
    hangs, and retries, which the supervisor absorbs (see
    :func:`_run_supervised`); a sweep either completes with correct
    results or raises one typed :class:`~repro.core.errors.SweepError`.

    ``config.backend`` selects the executor behind the same contract
    (:mod:`repro.core.backend`): ``auto`` picks the pool exactly as
    described above, ``workers`` fans out over lease-holding
    ``repro-sweep-worker`` subprocesses that fetch traces by store key
    and journal claim/heartbeat/complete transitions in a lease ledger
    (:mod:`repro.core.ledger`).

    A configured checkpoint directory journals every completed point
    (:mod:`repro.core.checkpoint`); a re-run loads the journal and
    re-simulates only unfinished points, bit-identically.

    Scenario traces (``scn:`` qids) live as long as the sweep needs them:
    once the last point naming one is simulated (or shipped), its traces
    are dropped from the process (:func:`_releasing`).  Query traces stay
    cached for the sweeps that follow.

    The pre-``RunConfig`` keyword arguments (``checkpoint_dir``,
    ``point_timeout``, ``retries``, ``backoff``) still work through a
    deprecation shim that warns once per process.
    """
    points = list(points)
    scale = get_scale(scale)
    config = _resolve_config(jobs, config, legacy)

    journal = None
    if config.checkpoint_dir is not None:
        journal = _open_journal(config)
    try:
        if journal is not None and hasattr(journal, "reclaim_stale"):
            # Claimed-but-never-completed points from an interrupted run
            # are re-queued exactly once (durable abandon records).
            _requeue_stale(journal, points, scale, seed)
        if journal is not None and journal.entries:
            # Resume: journaled summaries seed the point memo, so completed
            # points never reach the pool (or the in-process loop) again.
            resumed = 0
            for p in points:
                ckey = _point_cache_key(p, scale, seed)
                if ckey not in _POINT_CACHE:
                    summary = journal.get(ckey)
                    if summary is not None:
                        _POINT_CACHE[ckey] = summary
                        _sup_count("resumed")
                        resumed += 1
            if resumed:
                obs_events.emit("points.resumed", count=resumed)
        # Only memo misses go to the pool: a sweep whose points were
        # already simulated (e.g. fig9 right after fig8) answers from the
        # parent's memo without spawning workers.
        todo = [p for p in points
                if _point_cache_key(p, scale, seed) not in _POINT_CACHE]
        obs_events.emit("sweep.start", total=len(todo), points=len(points),
                        jobs=config.jobs,
                        backend=getattr(config, "backend", "auto"))
        t0 = time.perf_counter()
        if todo:
            from repro.core.backend import resolve_backend

            backend = resolve_backend(config, len(todo))
            if backend is not None:
                summaries = backend.run(todo, scale, seed, config, journal)
                # Keep the parent's memo warm so a later sweep over the
                # same points (the misses/time figure pairs) is free.
                for p, s in zip(todo, summaries):
                    _POINT_CACHE[_point_cache_key(p, scale, seed)] = s
        out = {}
        for p in _releasing(points):
            ckey = _point_cache_key(p, scale, seed)
            fresh = ckey not in _POINT_CACHE
            summary = run_point(p, scale, seed=seed)
            if fresh:
                if journal is not None:
                    journal.append(ckey, summary)
                obs_events.emit("point.done", key=repr(p.key))
            out[p.key] = summary
        obs_events.emit("sweep.end", points=len(points),
                        seconds=round(time.perf_counter() - t0, 6))
        return out
    finally:
        if journal is not None:
            journal.close()
