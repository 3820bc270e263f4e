"""What the benchmark measures: workload and metric names, units, bounds.

This module is the single source for every name the harness prints;
``BENCHMARK.json`` at the repository root declares the same names and
``test_harness.py`` checks the two against each other in both directions.
It imports nothing from ``repro``, so the parent process can read it
without paying for the program under test.
"""

#: Pooled seeds ``S`` per scale; a workload's query parameters come from
#: ``seed_base = 10 * S``.  ``--seed n`` selects entry ``n % 8``.  Outputs can
#: only be checked against goldens and goldens exist only for pinned seeds,
#: so seeds fold onto a pinned pool.  The pools hold the first eight ``S``
#: whose Q3 instances record within 1.5% as many trace rows as those of
#: ``S = 0`` (``pool.py`` finds them): Q3's rows move by +-20% with its
#: parameters and Q6/Q12's by under 1%, so pooled seeds differ in parameters
#: but ask for the same amount of work.
SEED_POOLS = {
    "small": (0, 1, 4, 20, 33, 91, 94, 99),
    "tiny": (0, 4, 28, 72, 94, 158, 214, 265),
}

#: workload -> the scale whose pool seeds it (``mixed-rw`` is unseeded).
POOL_OF = {"sweep-warm": "small", "live-char": "small", "mixed-rw": None,
           "fanout-tiny": "tiny"}

#: Environment variables that would change what the program runs; the
#: child removes them before it imports ``repro``.
SCRUBBED_ENV = ("REPRO_KERNEL", "REPRO_FAULTS", "REPRO_SANITIZE")

#: name -> (why it exists, default reps of the ``run`` subcommand)
WORKLOADS = {
    "sweep-warm": (
        "fig8-11 sweep at small from a warm trace store, run twice (miss "
        "then time projection): array-direct replay is ~86% of it",
        3),
    "live-char": (
        "fig6/7/12/13 calls with no trace cache: the engine runs live "
        "inside the generator path, with prefetch and 256x-cache machines",
        3),
    "mixed-rw": (
        "four mixed read/write scenarios recorded and replayed in the "
        "timed body: db/workload/tracecache and coherence-heavy replay",
        3),
    "fanout-tiny": (
        "64 cheap tiny points through the pool and the workers backend: "
        "spawn, ship-by-hash, framing, ledger and fsync at their largest "
        "share",
        5),
}

#: End-to-end metrics: (name, unit, better, bound as a share of the base).
#: The issue asked for 10% on the timed ones.  On the 2-vCPU sandbox this
#: was built on, identical inputs drift by up to 10% over minutes (mixed-rw,
#: one fixed input: 15.6 s to 18.7 s within ten runs), so ten-run spreads
#: reach 6-10%; 15% is the tightest bound they stay clear of.
END_TO_END = [
    ("wall_s", "s", "lower", 0.15),
    ("cpu_s", "s", "lower", 0.15),
    ("sim_refs_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: Exact metrics: any value other than 0 fails the run.  They are 0 on a
#: correct program, so they cannot carry a relative bound; the driver-facing
#: output folds them into ``correct``/``failed`` and lists them per layer.
EXACT = [
    ("stat_mismatches", "count"),
    ("paper_band_violations", "count"),
    ("failed_share", "fraction"),
]

ALL = tuple(WORKLOADS)
KERNELS = ("scalar", "batched", "horizon")
KERNEL_QUERIES = ("Q3", "Q6", "Q12")
NUMA_PATHS = ("busy", "l1_hit", "l2_hit", "l2_miss_local", "l2_miss_2hop",
              "l2_miss_3hop", "wb_saturate", "pingpong", "lock_spin",
              "prefetch")

_SW = ("sweep-warm",)
_LC = ("live-char",)
_MX = ("mixed-rw",)
_FO = ("fanout-tiny",)

#: Per-layer metrics: (name, unit, better, workloads whose traced run
#: measures it).  On the other workloads the layer does none of this work
#: and the metric is printed as 0.
PER_LAYER = (
    [(name, unit, "lower", ALL) for name, unit in EXACT]
    + [
        ("tpcd.dbgen_s", "s", "lower", _SW + _LC),
        ("tpcd.dbgen_rows_per_s", "1/s", "higher", _SW + _LC),
        ("db.execute_s", "s", "lower", _LC),
        ("db.events_per_s", "1/s", "higher", _LC),
        ("tracecache.record_s", "s", "lower", _SW),
        ("tracecache.record_rows_per_s", "1/s", "higher", _SW),
        ("tracecache.bytes_per_row", "B", "lower", _SW),
        ("tracestore.encode_s", "s", "lower", _SW),
        ("tracestore.save_s", "s", "lower", _SW),
        ("tracestore.load_s", "s", "lower", _SW + _FO),
        ("tracestore.decode_s", "s", "lower", _SW),
        ("tracestore.load_mb_per_s", "MB/s", "higher", _SW + _FO),
        ("tracestore.disk_bytes_per_row", "B", "lower", _SW),
        ("batch.plan_s", "s", "lower", _SW),
        ("horizon.schedule_s", "s", "lower", _SW + _MX),
        ("horizon.retirable_frac", "fraction", "higher", _SW + _MX),
        ("horizon.ws_lines", "count", "lower", _SW + _MX),
    ]
    + [(f"interleave.replay_s.{k}", "s", "lower", _SW) for k in KERNELS]
    + [(f"interleave.rows_per_s.{k}.{q}", "1/s", "higher", _SW)
       for k in KERNELS for q in KERNEL_QUERIES]
    + [
        ("interleave.gen_replay_s", "s", "lower", _LC),
        ("interleave.gen_rows_per_s", "1/s", "higher", _LC),
        ("interleave.inline_row_frac", "fraction", "higher", _SW + _MX),
        ("interleave.ahead_row_frac", "fraction", "higher", _SW + _MX),
        ("interleave.guard_stops", "count", "lower", _SW + _MX),
        ("interleave.scalar_fallbacks", "count", "lower", _SW + _MX),
    ]
    + [(f"numa.ns_per_row.{p}", "ns", "lower", _SW) for p in NUMA_PATHS]
    + [
        ("numa.micro_mismatches", "count", "lower", _SW),
        ("numa.sim_cycles", "cycles", "lower", ALL),
        ("numa.sim_refs", "count", "higher", ALL),
        ("numa.l1_miss_rate", "fraction", "lower", ALL),
        ("numa.l2_miss_rate", "fraction", "lower", ALL),
        ("numa.l2_coherence_share", "fraction", "lower", ALL),
        ("numa.busy_frac", "fraction", "higher", ALL),
        ("numa.msync_frac", "fraction", "lower", ALL),
        ("numa.mem_frac", "fraction", "lower", ALL),
        ("numa.prefetches_issued", "count", "higher", _LC),
        ("sweep.point_s_p50", "s", "lower", _SW),
        ("sweep.memo_pass_s", "s", "lower", _SW),
        ("sweep.summarize_s", "s", "lower", _SW),
        ("sweep.glue_s", "s", "lower", _SW),
        ("backend.inproc_s", "s", "lower", _FO),
        ("backend.pool_s", "s", "lower", _FO),
        ("backend.workers_s", "s", "lower", _FO),
        ("backend.pool_speedup", "x", "higher", _FO),
        ("backend.workers_speedup", "x", "higher", _FO),
        ("backend.overhead_ms_per_point.pool", "ms", "lower", _FO),
        ("backend.overhead_ms_per_point.workers", "ms", "lower", _FO),
        ("backend.spawns", "count", "lower", _FO),
        ("backend.retries", "count", "lower", _FO),
        ("ledger.resume_s", "s", "lower", _FO),
        ("ledger.append_ms_per_point", "ms", "lower", _FO),
        ("ledger.bytes_per_point", "B", "lower", _FO),
        ("workload.record_scenario_s", "s", "lower", _MX),
        ("workload.rows_per_s", "1/s", "higher", _MX),
        ("workload.trace_mb", "MB", "lower", _MX),
        ("experiments.report_s", "s", "lower", _SW),
        ("obs.enabled_overhead_frac", "fraction", "lower", _SW),
        ("bench.trace_overhead_frac", "fraction", "lower", ALL),
        ("bench.unattributed_frac", "fraction", "lower", ALL),
    ]
)

E2E_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _b, _w in PER_LAYER}


def pool(workload):
    """The pooled seeds of a workload; ``(0,)`` for an unseeded one."""
    scale = POOL_OF[workload]
    return SEED_POOLS[scale] if scale else (0,)


def fold_seed(workload, seed):
    """The pooled seed whose inputs ``--seed seed`` selects."""
    seeds = pool(workload)
    return seeds[seed % len(seeds)]


def benchmark_json(run_seconds):
    """The ``BENCHMARK.json`` document this module declares."""
    return {
        "command": ["python3", "-m", "simbench.harness", "bench"],
        "paths": ["simbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, (why, _reps) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _w in PER_LAYER],
    }
