"""The traced run: each workload as a staged pipeline, one span per layer.

The harness calls each layer's public function in order over the same
inputs the workload uses, inside its own span recorder; nothing inside the
program is instrumented (that is a later change), and ``repro.obs`` stays
off except for the one metric that measures it.  A traced run has two span
trees: ``run`` re-enacts the workload stage by stage (its self times should
add up to the untraced ``wall_s``), and ``micro`` holds measurements of
single layers taken beside it.  Spans are named after the module whose
function they time.

A sweep point (``run_point``: plan, schedule, replay, summarize) cannot be
split from outside; points are cut from the program's ``point.done`` events
and named ``memsim.interleave``, the layer that does nearly all of their
work.  A live simulation (engine and model interleaved in one generator
loop) is one ``core.experiment`` span for the same reason.
"""

import os
import statistics
from contextlib import contextmanager
from time import perf_counter

from simbench.harness import micro, spec, workloads
from simbench.harness.spans import SpanRecorder, seconds, self_time_by_name

#: Repetitions of each kernel-comparison replay; the minimum is kept.
KERNEL_REPS = 2

#: Span names that are not layers: their self time is unattributed.
NOT_LAYERS = ("run", "micro", "import")


class Staged:
    """State shared by the stages of one traced run."""

    def __init__(self, workload, seed, ctx):
        self.workload = workload
        self.seed = seed
        self.ctx = ctx
        self.rec = SpanRecorder(workload)
        self.metrics = {}
        self.detail = []


@contextmanager
def point_spans(rec):
    """Cut one ``memsim.interleave`` span per simulated sweep point from
    the program's ``point.done`` events; yields the list of durations."""
    from repro.obs import events

    durations = []
    last = [perf_counter()]

    def listener(kind, detail):
        now = perf_counter()
        if kind == "point.done":
            rec.add("memsim.interleave", last[0], now, what="run_point",
                    key=detail.get("key"))
            durations.append(now - last[0])
        last[0] = now

    events.subscribe(listener)
    try:
        yield durations
    finally:
        events.unsubscribe(listener)


def _kernel_fractions(metrics):
    from repro.memsim.batch import kernel_stats

    ks = kernel_stats()
    rows = ks["batched_rows"] + ks["inline_rows"] + ks["scalar_rows"]
    plan = ks["plan_rows"]
    metrics["interleave.inline_row_frac"] = \
        ks["inline_rows"] / rows if rows else 0.0
    metrics["interleave.ahead_row_frac"] = \
        ks["horizon_rows"] / rows if rows else 0.0
    metrics["interleave.guard_stops"] = ks["horizon_guards"]
    metrics["interleave.scalar_fallbacks"] = sum(ks["fallbacks"].values())
    metrics["horizon.retirable_frac"] = \
        1.0 - ks["plan_boundary"] / plan if plan else 0.0
    metrics["horizon.ws_lines"] = ks["ws_lines"]


def _geometry(scale, point):
    """``(l1 shift, l1 sets, l2 shift)`` of the machine a point runs on."""
    cfg = scale.machine_config(**point.machine)
    return (cfg.l1_line.bit_length() - 1,
            cfg.l1_size // (cfg.l1_line * cfg.l1_assoc),
            cfg.l2_line.bit_length() - 1)


# -- sweep-warm --------------------------------------------------------------

def sweep_warm(st):
    rec, m = st.rec, st.metrics
    with rec.span("import"):
        from repro.core import (
            RunConfig, configure_run, run_sweep, workload_trace_cache,
        )
        from repro.tpcd.scales import get_scale

    sc = get_scale("small")
    line_pts, size_pts = workloads.sweep_points(st.seed)
    points = line_pts + size_pts
    ids = workloads.sweep_trace_ids(points)
    cfg = RunConfig(scale="small", jobs=1, trace_dir=st.ctx.store)
    configure_run(cfg)
    with st.rec.span("core.tracestore", what="load") as t:
        cache = workload_trace_cache("small")
        traces = {tid: cache.get(*tid) for tid in ids}
    m["tracestore.load_s"] = seconds(t)
    m["tracestore.load_mb_per_s"] = \
        cache.stats()["bytes_read"] / 1e6 / seconds(t)
    with st.rec.span("core.sweep", what="pass") as t, point_spans(rec) as secs:
        results = {LS: run_sweep(pts, scale=sc, config=cfg)
                   for LS, pts in (("line", line_pts), ("size", size_pts))}
    m["sweep.point_s_p50"] = statistics.median(secs)
    m["sweep.glue_s"] = seconds(t) - sum(secs)
    # The line-size points come first and are all simulated.
    st.line_seconds = dict(zip([p.key for p in line_pts], secs))
    with st.rec.span("core.sweep", what="memo-pass") as t:
        run_sweep(line_pts, scale=sc, config=cfg)
        run_sweep(size_pts, scale=sc, config=cfg)
    m["sweep.memo_pass_s"] = seconds(t)
    _kernel_fractions(m)
    st.keep = (sc, cfg, points, line_pts, ids, traces, results)


def sweep_warm_micro(st):
    rec, m = st.rec, st.metrics
    sc, cfg, points, line_pts, ids, traces, results = st.keep
    from repro.core import TraceCache
    from repro.core.tracestore import (
        decode_trace, encode_trace, save_trace, store_key,
    )
    from repro.experiments.families import (
        family_report, grouped_misses, time_projection,
    )
    from repro.memsim.horizon import clear_memo, horizon_schedule
    from repro.tpcd.dbgen import build_database

    with st.rec.span("tpcd", what="build_database") as t:
        db = build_database(sf=sc.sf, seed=42)
    m["tpcd.dbgen_s"] = seconds(t)
    m["tpcd.dbgen_rows_per_s"] = \
        sum(tb.n_rows for tb in db.tables.values()) / seconds(t)

    cold = TraceCache(db, sc)
    with st.rec.span("core.tracecache", what="record") as t:
        recorded = [cold.get(*tid) for tid in ids]
    rows = sum(len(tr) for tr in recorded)
    m["tracecache.record_s"] = seconds(t)
    m["tracecache.record_rows_per_s"] = rows / seconds(t)
    m["tracecache.bytes_per_row"] = sum(tr.nbytes() for tr in recorded) / rows

    keys = [store_key("small", 42, qid, qseed, node, sc.arena_size, True)
            for qid, qseed, node in ids]
    with st.rec.span("core.tracestore", what="encode") as t:
        blobs = [encode_trace(k, tr) for k, tr in zip(keys, recorded)]
    m["tracestore.encode_s"] = seconds(t)
    m["tracestore.disk_bytes_per_row"] = sum(len(b) for b in blobs) / rows
    save_dir = os.path.join(st.ctx.scratch, "save")
    with st.rec.span("core.tracestore", what="save") as t:
        for k, tr in zip(keys, recorded):
            save_trace(save_dir, k, tr)
    m["tracestore.save_s"] = seconds(t)
    with st.rec.span("core.tracestore", what="decode") as t:
        for k, blob in zip(keys, blobs):
            decode_trace(blob, expect_key=k)
    m["tracestore.decode_s"] = seconds(t)
    del cold, recorded, blobs, db

    # Planning and scheduling as the sweep pays them: once per trace per L1
    # geometry, once per trace combination per L2 line size.
    l1_geoms = sorted({_geometry(sc, p)[:2] for p in points})
    with st.rec.span("memsim.batch", what="batch_plan") as t:
        for tr in traces.values():
            for shift, nsets in l1_geoms:
                tr.batch_plan(shift, nsets)
    m["batch.plan_s"] = seconds(t)
    combos = sorted({(p.qid, _geometry(sc, p)[2]) for p in points})
    clear_memo()
    with st.rec.span("memsim.horizon", what="horizon_schedule") as t:
        for qid, l2_shift in combos:
            horizon_schedule(_query_traces(traces, qid), l2_shift)
    m["horizon.schedule_s"] = seconds(t)

    _kernel_comparison(st, sc, traces)
    _numa_paths(st)

    with st.rec.span("experiments", what="family_report") as t:
        for fig, proj in (("fig8", grouped_misses), ("fig9", time_projection)):
            by_q = {}
            for (qid, x), s in results["line"].items():
                by_q.setdefault(qid, {})[x] = proj(s)
            family_report(fig, by_q)
        for fig, proj in (("fig10", grouped_misses),
                          ("fig11", time_projection)):
            by_q = {}
            for (qid, x), s in results["size"].items():
                by_q.setdefault(qid, {})[x] = proj(s)
            family_report(fig, by_q)
    m["experiments.report_s"] = seconds(t)

    _obs_overhead(st, sc, cfg, line_pts, ids)


def _query_traces(traces, qid):
    return [tr for (q, _seed, _node), tr in sorted(traces.items())
            if q == qid]


def _kernel_comparison(st, sc, traces):
    """Replay Q3/Q6/Q12 on the baseline machine under each kernel (plans
    pre-warmed, minimum of ``KERNEL_REPS``); every kernel must report the
    same ``exec_time``."""
    from repro.core import WorkloadResult, summarize
    from repro.db.shmem import shared_home_fn
    from repro.memsim.horizon import horizon_schedule
    from repro.memsim.interleave import Interleaver
    from repro.memsim.numa import NumaMachine

    m = st.metrics
    config = sc.machine_config()
    shift = config.l1_line.bit_length() - 1
    nsets = config.l1_size // (config.l1_line * config.l1_assoc)
    totals = dict.fromkeys(spec.KERNELS, 0.0)
    last = None
    for qid in spec.KERNEL_QUERIES:
        qtraces = _query_traces(traces, qid)
        rows = sum(len(tr) for tr in qtraces)
        for tr in qtraces:
            tr.batch_plan(shift, nsets)
        horizon_schedule(qtraces, config.l2_line.bit_length() - 1)
        cycles = {}
        for kernel in spec.KERNELS:
            best = None
            for _ in range(KERNEL_REPS):
                machine = NumaMachine(config, home_fn=shared_home_fn())
                sink = {}
                with st.rec.span("memsim.interleave", what="run_traces",
                              kernel=kernel, qid=qid) as t:
                    run = Interleaver(machine).run_traces(
                        qtraces, sink=sink, kernel=kernel)
                best = seconds(t) if best is None else min(best, seconds(t))
                last = WorkloadResult(qid, sc, machine, run, sink)
            cycles[kernel] = run.exec_time
            totals[kernel] += best
            m[f"interleave.rows_per_s.{kernel}.{qid}"] = rows / best
        if len(set(cycles.values())) != 1:
            st.detail.append(f"kernels disagree on {qid} exec_time: {cycles}")
    for kernel, secs in totals.items():
        m[f"interleave.replay_s.{kernel}"] = secs
    # What one pass pays to reduce its 24 results to summary dicts.
    with st.rec.span("core.sweep", what="summarize") as t:
        for _ in range(24):
            summarize(last)
    m["sweep.summarize_s"] = seconds(t)


def _numa_paths(st):
    bad = 0
    for name in spec.NUMA_PATHS:
        with st.rec.span("memsim.numa", what=name):
            ns, ok = micro.run_path(name)
        st.metrics[f"numa.ns_per_row.{name}"] = ns
        if not ok:
            bad += 1
            st.detail.append(f"micro-trace {name} missed its closed form")
    st.metrics["numa.micro_mismatches"] = bad


def _obs_overhead(st, sc, cfg, line_pts, ids):
    """Re-run the Q6 line-size points with ``repro.obs`` on and a run
    report built; compare with the same points of the untraced pass."""
    import repro.obs
    from repro.core import (
        build_run_report, clear_caches, configure_run, run_sweep,
        workload_trace_cache,
    )

    pts = [p for p in line_pts if p.qid == "Q6"]
    off = sum(st.line_seconds[p.key] for p in pts)
    clear_caches()
    configure_run(cfg)
    cache = workload_trace_cache("small")
    for tid in ids:
        if tid[0] == "Q6":
            cache.get(*tid)
    repro.obs.enable()
    try:
        with st.rec.span("obs", what="enabled-pass") as t, \
                point_spans(st.rec) as secs:
            out = run_sweep(pts, scale=sc, config=cfg)
            t_points = perf_counter()
            build_run_report(cfg, outcomes=[
                {"name": "fig8", "results": out, "seconds": sum(secs)}])
            report_s = perf_counter() - t_points
    finally:
        repro.obs.disable()
    st.metrics["obs.enabled_overhead_frac"] = \
        (sum(secs) + report_s - off) / off


# -- live-char ---------------------------------------------------------------

def live_char(st):
    rec, m = st.rec, st.metrics
    with rec.span("import"):
        from repro.core import (
            run_query_workload, run_warm_workload, workload_database,
        )
        from repro.experiments import fig6, fig12
        from repro.tpcd.scales import get_scale

    sc = get_scale("small")
    with st.rec.span("tpcd", what="workload_database") as t:
        db = workload_database("small")
    m["tpcd.dbgen_s"] = seconds(t)
    m["tpcd.dbgen_rows_per_s"] = \
        sum(tb.n_rows for tb in db.tables.values()) / seconds(t)
    base = 10 * st.seed
    for qid in fig6.QUERIES:
        with rec.span("core.experiment", what=f"base/{qid}"):
            run_query_workload(qid, scale=sc, seed_base=base)
    for qid in fig6.QUERIES:
        with rec.span("core.experiment", what=f"pf/{qid}"):
            run_query_workload(qid, scale=sc, seed_base=base, prefetch=True)
    huge = sc.huge_machine_config()
    for measure, warm in fig12.SETUPS:
        with rec.span("core.experiment", what=f"warm/{measure}/{warm}"):
            run_warm_workload(measure, warm, scale=sc, machine_config=huge)
    st.keep = (sc, fig6.QUERIES)


def live_char_micro(st):
    m = st.metrics
    sc, queries = st.keep
    from repro.core import workload_trace_cache
    from repro.core.experiment import run_untraced
    from repro.db.shmem import shared_home_fn
    from repro.memsim.interleave import Interleaver
    from repro.memsim.numa import NumaMachine

    base = 10 * st.seed
    with st.rec.span("db", what="run_untraced") as t:
        for qid in queries:
            for node in range(4):
                run_untraced(qid, scale=sc, seed=base + node)
    m["db.execute_s"] = seconds(t)
    # The same twelve query instances, recorded (untimed) to count the
    # events the engine emitted and to feed the generator replay.
    cache = workload_trace_cache("small")
    traces = {q: [cache.get(q, base + node, node) for node in range(4)]
              for q in queries}
    events = sum(tr.n_source_events for ts in traces.values() for tr in ts)
    m["db.events_per_s"] = events / seconds(t)
    secs = rows = 0
    for qid, qtraces in traces.items():
        machine = NumaMachine(sc.machine_config(), home_fn=shared_home_fn())
        with st.rec.span("memsim.interleave", what="run", qid=qid) as t:
            Interleaver(machine).run([tr.replay() for tr in qtraces])
        secs += seconds(t)
        rows += sum(len(tr) for tr in qtraces)
    m["interleave.gen_replay_s"] = secs
    m["interleave.gen_rows_per_s"] = rows / secs


# -- mixed-rw ----------------------------------------------------------------

def mixed_rw(st):
    rec, m = st.rec, st.metrics
    with rec.span("import"):
        from repro.core import RunConfig, configure_run, run_experiments
        from repro.tpcd.scales import get_scale
        from repro.workload import register_scenario
        from repro.workload.session import record_scenario

    sc = get_scale("small")
    specs = workloads.mixed_specs()
    cfg = RunConfig(scale="small", jobs=1)
    configure_run(cfg)
    # Spec by spec, as the workload does it: recording all four first would
    # run the recorder before any replay state is live, which the garbage
    # collector makes measurably (7%) cheaper than the real order.
    recorded = []
    record_s = 0.0
    for sp in specs:
        with st.rec.span("workload", what="record_scenario",
                         spec=sp.name) as t:
            qid = register_scenario(sp)
            recorded.append(record_scenario(qid, sc, 42, sc.arena_size))
        record_s += seconds(t)
        with rec.span("core.sweep", what="run_experiments", spec=sp.name), \
                point_spans(rec):
            run_experiments([sp], cfg)
    rows = sum(len(tr) for by_cpu in recorded for tr in by_cpu.values())
    m["workload.record_scenario_s"] = record_s
    m["workload.rows_per_s"] = rows / record_s
    m["workload.trace_mb"] = sum(
        tr.nbytes() for by_cpu in recorded for tr in by_cpu.values()) / 1e6
    _kernel_fractions(m)
    st.keep = (sc, recorded)


def mixed_rw_micro(st):
    sc, recorded = st.keep
    from repro.memsim.horizon import clear_memo, horizon_schedule

    l2_shift = sc.machine_config().l2_line.bit_length() - 1
    clear_memo()
    with st.rec.span("memsim.horizon", what="horizon_schedule") as t:
        for by_cpu in recorded:
            horizon_schedule([by_cpu[c] for c in sorted(by_cpu)], l2_shift)
    st.metrics["horizon.schedule_s"] = seconds(t)


# -- fanout-tiny -------------------------------------------------------------

def _fanout_pass(st, sc, points, name, what, checkpoint=None, **how):
    from repro.core import RunConfig, clear_caches, configure_run, run_sweep

    cfg = RunConfig(scale="tiny", trace_dir=st.ctx.store,
                    checkpoint_dir=checkpoint, **how)
    configure_run(cfg)
    with st.rec.span(name, what=what) as t:
        run_sweep(points, scale=sc, config=cfg)
    clear_caches()
    return seconds(t)


def fanout_tiny(st):
    rec, m = st.rec, st.metrics
    with rec.span("import"):
        from repro.core import (
            RunConfig, configure_run, workload_trace_cache,
        )
        from repro.tpcd.scales import get_scale

    sc = get_scale("tiny")
    points = workloads.fanout_points(st.seed)
    configure_run(RunConfig(scale="tiny", trace_dir=st.ctx.store))
    with st.rec.span("core.tracestore", what="load") as t:
        cache = workload_trace_cache("tiny")
        for tid in workloads.sweep_trace_ids(points):
            cache.get(*tid)
    m["tracestore.load_s"] = seconds(t)
    m["tracestore.load_mb_per_s"] = \
        cache.stats()["bytes_read"] / 1e6 / seconds(t)
    scratch = st.ctx.scratch
    m["backend.pool_s"] = _fanout_pass(
        st, sc, points, "core.backend", "pool",
        checkpoint=os.path.join(scratch, "ck-pool"), backend="pool", jobs=2)
    st.ledger_dir = os.path.join(scratch, "ck-workers")
    m["backend.workers_s"] = _fanout_pass(
        st, sc, points, "core.backend", "workers", checkpoint=st.ledger_dir,
        backend="workers", jobs=2, workers=2)
    st.keep = (sc, points)


def fanout_tiny_micro(st):
    m = st.metrics
    sc, points = st.keep
    from repro.core import fabric_stats, supervisor_stats

    n = len(points)
    inproc = _fanout_pass(st, sc, points, "core.backend", "inproc",
                          backend="inproc", jobs=1)
    journaled = _fanout_pass(
        st, sc, points, "core.ledger", "inproc+checkpoint",
        checkpoint=os.path.join(st.ctx.scratch, "ck-inproc"),
        backend="inproc", jobs=1)
    m["backend.inproc_s"] = inproc
    for name in ("pool", "workers"):
        secs = m[f"backend.{name}_s"]
        m[f"backend.{name}_speedup"] = inproc / secs
        m[f"backend.overhead_ms_per_point.{name}"] = \
            1e3 * (secs - inproc / 2) / n
    m["ledger.append_ms_per_point"] = 1e3 * (journaled - inproc) / n
    m["ledger.bytes_per_point"] = sum(
        os.path.getsize(os.path.join(st.ledger_dir, f))
        for f in os.listdir(st.ledger_dir)
        if os.path.isfile(os.path.join(st.ledger_dir, f))) / n
    m["ledger.resume_s"] = _fanout_pass(
        st, sc, points, "core.ledger", "resume", checkpoint=st.ledger_dir,
        backend="workers", jobs=2, workers=2)
    m["backend.spawns"] = fabric_stats()["spawns"]
    m["backend.retries"] = supervisor_stats()["retries"]


STAGES = {
    "sweep-warm": (sweep_warm, sweep_warm_micro),
    "live-char": (live_char, live_char_micro),
    "mixed-rw": (mixed_rw, mixed_rw_micro),
    "fanout-tiny": (fanout_tiny, fanout_tiny_micro),
}


def run(workload, seed, ctx, spans_path):
    """Run one workload's staged pipeline; return the child report."""
    st = Staged(workload, seed, ctx)
    stages, micros = STAGES[workload]
    with st.rec.span("run", what=workload) as root:
        stages(st)
    with st.rec.span("micro", what=workload):
        micros(st)
    if spans_path:
        st.rec.write(spans_path)
    selfs = self_time_by_name(st.rec.spans, under=0)
    return {
        "workload": workload,
        "seed": seed,
        "metrics": st.metrics,
        "stage_wall_s": seconds(root),
        "attributed_s": sum(s for name, s in selfs.items()
                            if name not in NOT_LAYERS),
        "self_s": selfs,
        "detail": st.detail,
    }
