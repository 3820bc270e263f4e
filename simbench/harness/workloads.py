"""The four workloads: inputs from the seed, the timed body, the checks.

Everything here runs in the child process.  The ``*_points``/``*_specs``
functions turn a pooled seed into the points and specs the program receives
(the program never sees the seed); the ``run_*`` functions are the timed
bodies, public ``repro`` calls only; ``bands`` applies the paper's
qualitative checks to a body's own results.  Result dicts are keyed by plain
strings so goldens and child reports are JSON.

Where a public function takes no seed (``run_warm_workload``) it runs
unseeded: its six simulations are the same for every ``--seed``.
``mixed-rw`` is unseeded altogether (see ``mixed_specs``).
"""

import dataclasses

LINE, SIZE = "line", "size"

#: ``fanout-tiny`` grid: queries x L2 line x L2 size multiplier x CPUs.
FANOUT_GRID = (("Q3", "Q6"), (32, 64, 128, 256), (1, 2, 4, 8), (2, 4))

MIXED_FRACS = (0.0, 0.5)
MIXED_CPUS = (2, 4)
MIXED_CLIENTS = 8


# -- input generation --------------------------------------------------------

def _seeded(points, seed):
    return [dataclasses.replace(p, seed_base=10 * seed) for p in points]


def sweep_points(seed):
    """The fig8/9 and fig10/11 point lists, query parameters from ``seed``."""
    from repro.experiments import fig8, fig10
    from repro.experiments.families import cache_size_points, line_size_points
    from repro.tpcd.scales import get_scale

    sc = get_scale("small")
    return (_seeded(line_size_points(fig8.QUERIES, fig8.LINE_SIZES), seed),
            _seeded(cache_size_points(sc, fig10.QUERIES, fig10.MULTIPLIERS),
                    seed))


def fanout_points(seed):
    from repro.core import SweepPoint
    from repro.tpcd.scales import get_scale

    sc = get_scale("tiny")
    queries, lines, mults, cpus = FANOUT_GRID
    return [
        SweepPoint(key=f"{q}/{line}/{mult}/{n}", qid=q,
                   machine={"l1_line": line // 2, "l2_line": line,
                            "l2_size": sc.l2_size * mult},
                   n_procs=n, seed_base=10 * seed)
        for q in queries for line in lines for mult in mults for n in cpus
    ]


def mixed_specs():
    """The four ``mixed-rw`` scenarios: the family's own grid points.

    Unseeded.  A scenario draws its operations and their parameters from
    the spec seed, and both the recording and the replay cost move with
    the draw (26 s against 20 s between spec seeds 7 and 10; +-8% even
    between draws with equal operation counts and equal trace rows), which
    is more than a 10% bound can absorb.  Every ``--seed`` therefore runs
    the same four specs, as the ``mixed-rw`` family itself does.
    """
    from repro.experiments.mixed_rw import make_mixed_rw_spec

    return [make_mixed_rw_spec(frac, MIXED_CLIENTS, cpus)
            for frac in MIXED_FRACS for cpus in MIXED_CPUS]


def sweep_trace_ids(points):
    """``(qid, query seed, node)`` of every trace ``points`` replay."""
    seen = []
    for p in points:
        for node in range(p.n_procs):
            tid = (p.qid, p.seed_base + node, node)
            if tid not in seen:
                seen.append(tid)
    return seen


def populate_store(workload, seed, store):
    """Set-up for the store-backed workloads: record every trace the sweep
    needs into an empty store (dbgen + record + encode + save)."""
    from repro.core import RunConfig, configure_run, workload_trace_cache

    if workload == "sweep-warm":
        scale = "small"
        line_pts, size_pts = sweep_points(seed)
        points = line_pts + size_pts
    else:
        scale = "tiny"
        points = fanout_points(seed)
    configure_run(RunConfig(scale=scale, trace_dir=store))
    cache = workload_trace_cache(scale)
    for qid, qseed, node in sweep_trace_ids(points):
        cache.get(qid, qseed, node)
    return cache.stats()


# -- timed bodies ------------------------------------------------------------

class Outcome:
    """What a timed body produced: result dicts to hash, operations
    attempted and failed, simulated references, and band inputs."""

    def __init__(self):
        self.results = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.extras = {}
        #: keys of ``results`` that are distinct simulations (memo hits and
        #: repeated passes add no simulated references)
        self.simulated = []

    def fail(self, what):
        self.failed += 1
        self.failures.append(what)


def run_sweep_warm(seed, ctx, out):
    from repro.core import RunConfig, configure_run, run_sweep
    from repro.tpcd.scales import get_scale

    line_pts, size_pts = sweep_points(seed)
    sc = get_scale("small")
    cfg = RunConfig(scale="small", jobs=1, kernel=ctx.kernel,
                    trace_dir=ctx.store)
    configure_run(cfg)
    first = {}
    for tag, pts in ((LINE, line_pts), (SIZE, size_pts)):
        for (qid, x), s in run_sweep(pts, scale=sc, config=cfg).items():
            first[f"{tag}/{qid}/{x}"] = s
    # fig9/fig11 read the time projection of the same simulations: a
    # second pass that must answer every point from the memo.
    for tag, pts in ((LINE, line_pts), (SIZE, size_pts)):
        for (qid, x), s in run_sweep(pts, scale=sc, config=cfg).items():
            if s != first[f"{tag}/{qid}/{x}"]:
                out.fail(f"memo pass differs at {tag}/{qid}/{x}")
    out.results = first
    out.attempted = 2 * len(first)
    out.simulated = [k for k in first
                     if not (k.startswith(SIZE) and k.endswith("/1"))]


def run_live_char(seed, ctx, out):
    from repro.core import run_query_workload, run_warm_workload, summarize
    from repro.experiments import fig6, fig12
    from repro.tpcd.scales import get_scale

    sc = get_scale("small")
    mem = {}
    for qid in fig6.QUERIES:
        w = run_query_workload(qid, scale=sc, seed_base=10 * seed)
        out.results[f"base/{qid}"] = summarize(w)
        mem[qid] = w.mem_breakdown()
    prefetches = 0
    for qid in fig6.QUERIES:
        w = run_query_workload(qid, scale=sc, seed_base=10 * seed,
                               prefetch=True)
        out.results[f"pf/{qid}"] = dict(
            summarize(w), prefetches_issued=w.stats.prefetches_issued)
        prefetches += w.stats.prefetches_issued
    huge = sc.huge_machine_config()
    for measure, warm in fig12.SETUPS:
        w = run_warm_workload(measure, warm, scale=sc, machine_config=huge)
        out.results[f"warm/{measure}/{warm or 'cold'}"] = summarize(w)
    out.attempted = len(out.results)
    out.simulated = list(out.results)
    out.extras = {"mem_breakdown": mem, "prefetches_issued": prefetches}


def run_mixed_rw(seed, ctx, out):
    from repro.core import RunConfig, configure_run, run_experiments

    specs = mixed_specs()
    cfg = RunConfig(scale="small", jobs=1, kernel=ctx.kernel)
    configure_run(cfg)
    done = run_experiments(specs, cfg)
    if done["interrupted"]:
        raise KeyboardInterrupt
    for o in done["outcomes"]:
        out.results[o["name"]] = o["results"]
    out.attempted = len(specs)
    out.simulated = list(out.results)


def run_fanout_tiny(seed, ctx, out):
    import os

    from repro.core import (
        RunConfig, clear_caches, configure_run, fabric_stats, run_sweep,
        supervisor_stats,
    )
    from repro.tpcd.scales import get_scale

    points = fanout_points(seed)
    sc = get_scale("tiny")
    passes = (
        ("pool", dict(backend="pool", jobs=2)),
        ("workers", dict(backend="workers", jobs=2, workers=2)),
    )
    for tag, how in passes:
        cfg = RunConfig(scale="tiny", kernel=ctx.kernel, trace_dir=ctx.store,
                        checkpoint_dir=os.path.join(ctx.scratch, f"ck-{tag}"),
                        **how)
        configure_run(cfg)
        for key, s in run_sweep(points, scale=sc, config=cfg).items():
            out.results[f"{tag}/{key}"] = s
        clear_caches()
    out.attempted = len(out.results)
    out.simulated = list(out.results)
    sup, fab = supervisor_stats(), fabric_stats()
    for name in ("retries", "timeouts", "respawns", "fallbacks", "garbage"):
        for _ in range(sup[name]):
            out.fail(f"supervisor {name}")
    for name in ("deaths", "stale", "corrupt_frames", "degraded"):
        for _ in range(fab[name]):
            out.fail(f"fabric {name}")


BODIES = {
    "sweep-warm": run_sweep_warm,
    "live-char": run_live_char,
    "mixed-rw": run_mixed_rw,
    "fanout-tiny": run_fanout_tiny,
}


def summary_of(result):
    """The ``summarize`` dict inside a result (scenario results wrap it)."""
    return result["summary"] if "summary" in result else result


def golden_key(workload, key):
    """The golden entry a result is checked against: both ``fanout-tiny``
    passes must reproduce the same 64 pinned hashes."""
    return key.split("/", 1)[1] if workload == "fanout-tiny" else key


# -- paper bands -------------------------------------------------------------

def _l2(summary, group):
    return sum(summary["l2_grouped"][group])


def bands(workload, results, extras):
    """Violated qualitative checks, as one line each (empty when all hold).

    The model has no numeric reference, only these bands: it is unvalidated
    beyond them.
    """
    bad = []

    def check(ok, what):
        if not ok:
            bad.append(what)

    if workload == "live-char":
        base = {q: results[f"base/{q}"] for q in ("Q3", "Q6", "Q12")}
        mem = extras["mem_breakdown"]
        for q, s in base.items():
            busy = s["breakdown"]["Busy"]
            check(0.50 <= busy <= 0.70, f"{q} Busy {busy:.3f} not in "
                                        "[0.50, 0.70]")
        check(base["Q3"]["breakdown"]["MSync"]
              > base["Q6"]["breakdown"]["MSync"], "MSync(Q3) <= MSync(Q6)")
        check(mem["Q3"]["Index"] + mem["Q3"]["Metadata"] > mem["Q3"]["Data"],
              "Q3 stalls more on Data than on Index+Metadata")
        for q in ("Q6", "Q12"):
            check(mem[q]["Data"] > 0.6, f"{q} Data stall share "
                                        f"{mem[q]['Data']:.3f} <= 0.6")
        check(results["pf/Q6"]["exec_time"] < base["Q6"]["exec_time"],
              "prefetch does not speed Q6")
        check(results["pf/Q3"]["exec_time"] >= base["Q3"]["exec_time"],
              "prefetch speeds Q3")
        warm = _l2(results["warm/Q12/Q12"], "Data")
        cold = _l2(results["warm/Q12/cold"], "Data")
        check(warm < 0.2 * cold, f"Q12-after-Q12 Data misses {warm} >= 0.2 "
                                 f"x cold {cold}")
    elif workload == "sweep-warm":
        for q in ("Q3", "Q6", "Q12"):
            lines = {int(k.rsplit("/", 1)[1]): s["exec_time"]
                     for k, s in results.items()
                     if k.startswith(f"{LINE}/{q}/")}
            best = min(lines, key=lines.get)
            check(best in (64, 128), f"{q} best L2 line is {best}")
            d1 = _l2(results[f"{SIZE}/{q}/1"], "Data")
            d16 = _l2(results[f"{SIZE}/{q}/16"], "Data")
            check(abs(d16 - d1) <= 0.05 * d1,
                  f"{q} Data misses move {d1} -> {d16} from x1 to x16")
    elif workload == "mixed-rw":
        for frac in MIXED_FRACS:
            f = int(round(100 * frac))
            lock = [summary_of(results[f"mixed-rw-f{f}-c{MIXED_CLIENTS}-p{p}"])
                    ["l2_cohe_by_class"]["LockSLock"] for p in MIXED_CPUS]
            check(lock[1] > lock[0], f"f={frac}: LockSLock coherence misses "
                                     f"{lock[0]} -> {lock[1]} do not rise")
    return bad


# -- modelled (simulated) statistics ----------------------------------------

def modelled(results, simulated, extras):
    """Simulated statistics of the distinct simulations of a run.  Exact:
    a speed-only change leaves every one of them bit-identical."""
    cycles = refs = l1r = l1m = l2m = cohe = busy = msync = mem = 0
    for key in simulated:
        s = summary_of(results[key])
        cycles += s["exec_time"]
        refs += s["l1_reads"] + s["l1_writes"]
        l1r += s["l1_reads"]
        l1m += sum(sum(v) for v in s["l1_grouped"].values())
        l2m += sum(sum(v) for v in s["l2_grouped"].values())
        cohe += sum(v[2] for v in s["l2_grouped"].values())
        for cpu in s["cpu"]:
            busy += cpu["busy"]
            msync += cpu["msync"]
            mem += cpu["mem"]
    total = (busy + msync + mem) or 1
    return {
        "numa.sim_cycles": cycles,
        "numa.sim_refs": refs,
        "numa.l1_miss_rate": l1m / l1r if l1r else 0.0,
        "numa.l2_miss_rate": l2m / l1r if l1r else 0.0,
        "numa.l2_coherence_share": cohe / l2m if l2m else 0.0,
        "numa.busy_frac": busy / total,
        "numa.msync_frac": msync / total,
        "numa.mem_frac": mem / total,
        "numa.prefetches_issued": extras.get("prefetches_issued", 0),
    }
