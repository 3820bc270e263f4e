"""Scenario session recorder: one streaming pass, N machine-ready traces.

Update-bearing workloads break the assumption the query trace cache lives
on: a DML statement mutates shared engine state, so the event stream one
client emits depends on what ran before it.  The recorder restores
machine-independence by *defining* a scenario's semantics as its canonical
serialization: operations execute one at a time, to completion, in the
schedule order fixed by :func:`repro.workload.scheduler.build_schedule`
(arrival, then CPU, client, sequence) against a **fresh** database --
never the shared read-only cache of
:func:`repro.core.experiment.workload_database`.  Each operation's events
stream straight into its CPU's trace (``QueryTrace.extend``: no event list,
no second pass), with the nominal idle gap between consecutive arrivals on
that CPU fed in as a busy event.

The per-CPU streams are then fixed data, exactly like a recorded query
trace: replay against any machine configuration is deterministic, and the
cross-CPU coherence traffic, lock-line handoffs and invalidations the
mixed-rw experiments measure emerge at replay from the recorded address
streams.  This is the paper's own methodology (trace generation separated
from memory-system simulation) extended to multi-tenant update traffic.

Integration is by *qid*: a scenario's traces are cached, stored, shipped
and lease-journaled under ``scn:<spec-hash>`` through the ordinary
:class:`~repro.core.tracecache.TraceCache` / trace-store / worker-fabric
paths -- :meth:`TraceCache._record` recognizes the prefix and delegates
here.  Recording happens only where a spec has been registered (the sweep
parent; ``repro-sweep-worker`` processes strict-load from the spool, so
they never record).  A
scenario trace can only serve the points of its own spec, so it lives as
long as its sweep: :func:`repro.core.sweep.run_sweep` releases it after the
last point naming the qid, and a later run of the same spec re-records (or
loads from ``--trace-dir``).
"""

from repro.memsim.events import busy
from repro.obs.metrics import registry
from repro.obs.spans import span
from repro.tpcd.queries import query_instance
from repro.workload.scheduler import build_schedule

#: Scenario qids carry this prefix in every trace identity.
SCENARIO_QID_PREFIX = "scn:"

#: ``qid -> ScenarioSpec``: specs known to this process.  Populated by
#: :func:`register_scenario` (the experiment family or ``--scenario``
#: loader) before any sweep needs the traces.
_SCENARIOS = {}

#: ``(qid, scale, db_seed, arena, lock_check) -> {cpu: QueryTrace}``.
#: One recording pass serves every per-CPU ``TraceCache.get``.
_RECORDINGS = {}


def scenario_qid(spec):
    """The trace-fabric identity of a spec: ``scn:<content-hash>``."""
    return SCENARIO_QID_PREFIX + spec.spec_hash()


def is_scenario_qid(qid):
    return isinstance(qid, str) and qid.startswith(SCENARIO_QID_PREFIX)


def register_scenario(spec):
    """Validate and register ``spec``; returns its qid.

    Registration is idempotent (the qid is a content hash, so a re-register
    of an equal spec is a no-op) and required before the trace layer can
    *record* the scenario -- replaying from a warm store or shipped bytes
    needs no registration.
    """
    spec.validate()
    qid = scenario_qid(spec)
    _SCENARIOS[qid] = spec
    return qid


def get_scenario(qid):
    """The registered spec behind ``qid``; raises ``KeyError`` if unknown."""
    try:
        return _SCENARIOS[qid]
    except KeyError:
        raise KeyError(
            f"scenario {qid!r} is not registered in this process; call "
            "repro.workload.register_scenario(spec) before recording "
            "(stored traces replay without registration)") from None


def clear_scenarios():
    """Drop registered specs and memoized recordings (test hygiene)."""
    _SCENARIOS.clear()
    _RECORDINGS.clear()


def release_scenario(qid):
    """Forget ``qid``'s memoized recordings (the spec stays registered)."""
    for mkey in [k for k in _RECORDINGS if k[0] == qid]:
        del _RECORDINGS[mkey]


def record_scenario(qid, scale, db_seed, arena_size, lock_check=True):
    """Record every per-CPU trace of one scenario; ``{cpu: QueryTrace}``.

    Builds a private database (``scale`` sizing, ``db_seed`` generation
    seed -- the same identity the trace-store key carries), one backend
    per CPU, and executes the canonical schedule.  Memoized per
    ``(qid, scale, db_seed, arena, lock_check)``: the N per-CPU
    ``TraceCache`` misses of one sweep point trigger a single pass.
    """
    from repro.core.tracecache import QueryTrace
    from repro.tpcd.dbgen import build_database
    from repro.tpcd.scales import get_scale

    scale = get_scale(scale)
    mkey = (qid, scale.name, db_seed, arena_size, bool(lock_check))
    traces = _RECORDINGS.get(mkey)
    if traces is not None:
        return traces
    spec = get_scenario(qid)
    schedule = build_schedule(spec)
    with span("record-scenario", qid=qid, name=spec.name,
              ops=len(schedule), cpus=spec.cpus) as sp:
        with span("dbgen", scale=scale.name, seed=db_seed,
                  variant="scenario"):
            db = build_database(sf=scale.sf, seed=db_seed)
        db.lock_check_per_rescan = bool(lock_check)
        cpus = range(spec.cpus)
        backends = [db.backend(cpu, arena_size=arena_size) for cpu in cpus]
        traces = {cpu: QueryTrace() for cpu in cpus}
        for trace in traces.values():
            trace.rows = []  # one (op, result) pair per operation
        cursor = [0] * spec.cpus
        for op in schedule:
            cpu = op.cpu
            trace = traces[cpu]
            gap = op.arrival - cursor[cpu]
            if gap > 0:
                trace.extend(iter((busy(gap),)))
                cursor[cpu] = op.arrival
            value = trace.extend(_op_stream_bound(db, backends[cpu], op, spec))
            trace.rows.append((op.op, value))
            backends[cpu].priv.reset_heap()
        if sp is not None:
            sp.meta["rows"] = sum(len(t) for t in traces.values())
    # Recording is parent-side only: sweep workers load scenario traces
    # from the spool and never reach this memo, so the global stays
    # process-local by design.
    _RECORDINGS[mkey] = traces
    registry().counter("workload.scenario.recordings").inc()
    registry().counter("workload.scenario.ops").inc(len(schedule))
    return traces


def _op_stream_bound(db, backend, op, spec):
    """One operation's traced generator (update batch resolved)."""
    if op.op in ("UF1", "UF2"):
        from repro.tpcd.updates import uf1_statements, uf2_statements

        batch = next(t.update_batch for t in spec.tenants
                     if t.name == op.tenant)
        build = uf1_statements if op.op == "UF1" else uf2_statements
        return _dml_stream(db, backend, build, batch, op.op_seed)
    qi = query_instance(op.op, seed=op.op_seed)
    return _query_stream(db, backend, qi)


def _query_stream(db, backend, qi):
    rows = yield from db.execute(qi.sql, backend, hints=qi.hints)
    return len(rows)


def _dml_stream(db, backend, build, batch, seed):
    total = 0
    for sql in build(db, batch=batch, seed=seed):
        total += yield from db.execute(sql, backend)
    return total
