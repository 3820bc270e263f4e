"""The child process: one repetition, one set-up, or one traced run.

A fresh child per repetition gives clean module caches and a true per-rep
peak RSS, and charges ``import repro`` to the run as the CLI does.  The
clock starts before anything of ``repro`` is imported; hashing and checks
happen after it stops.
"""

import json
import os
import resource
from time import perf_counter

from simbench.harness.spec import SCRUBBED_ENV


def _cpu_seconds():
    """User + system seconds of this process and its waited-for
    descendants (``getrusage`` resolves microseconds, ``os.times`` only
    clock ticks)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports kilobytes


def measure_rep(workload, seed, ctx):
    """Run the workload's timed body once; return the child report.
    ``ctx`` carries ``store``, ``scratch`` and ``kernel`` (the parsed
    command line)."""
    t0 = perf_counter()
    c0 = _cpu_seconds()
    from simbench.harness import workloads

    out = workloads.Outcome()
    error = None
    try:
        workloads.BODIES[workload](seed, ctx, out)
    except Exception as exc:  # the report must say what failed, then fail
        error = f"{type(exc).__name__}: {exc}"
        out.attempted = max(out.attempted, 1)
        out.fail(error)
    wall = perf_counter() - t0
    cpu = _cpu_seconds() - c0

    from repro.memsim.batch import resolve_kernel
    from repro.obs.report import summary_hash

    report = {
        "workload": workload,
        "seed": seed,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "kernel": resolve_kernel(),
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures[:20],
        "error": error,
        "hashes": {k: summary_hash(v) for k, v in out.results.items()},
    }
    if error is None:
        report["band_violations"] = workloads.bands(
            workload, out.results, out.extras)
        report["modelled"] = workloads.modelled(
            out.results, out.simulated, out.extras)
        report["work_refs"] = report["modelled"]["numa.sim_refs"]
    return report


def measure_populate(workload, seed, ctx):
    """Populate an empty trace store (the store workloads' set-up)."""
    t0 = perf_counter()
    from simbench.harness import workloads

    stats = workloads.populate_store(workload, seed, ctx.store)
    return {"workload": workload, "seed": seed,
            "wall_s": perf_counter() - t0, "records": stats["records"],
            "rows": stats["events"], "bytes_written": stats["bytes_written"]}


def preflight(workload, seed):
    """Import what the workload's body imports, and nothing more."""
    t0 = perf_counter()
    import repro.core  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.workload  # noqa: F401
    return {"workload": workload, "seed": seed,
            "wall_s": perf_counter() - t0}


def main(args):
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    if args.mode == "rep":
        report = measure_rep(args.workload, args.seed, args)
    elif args.mode == "populate":
        report = measure_populate(args.workload, args.seed, args)
    elif args.mode == "preflight":
        report = preflight(args.workload, args.seed)
    else:
        from simbench.harness import staged

        report = staged.run(args.workload, args.seed, args, args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0
