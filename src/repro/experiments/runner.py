"""Command-line front end: regenerate any table/figure of the paper.

Usage::

    repro-experiments --list
    repro-experiments table1 fig6 --scale small
    repro-experiments all --scale paper     # the full 1/100 TPC-D sizing
    REPRO_SCALE=paper repro-experiments all # same, via the environment
    repro-experiments fig8 fig9 --jobs 4    # sweeps on 4 worker processes
    repro-experiments fig8 --trace-dir ~/.cache/repro-traces
                                            # record once, load forever
    repro-experiments fig8 fig9 --jobs 4 --checkpoint-dir ckpt \\
        --point-timeout 120 --retries 3     # fault-tolerant paper-scale run
                                            # (Ctrl-C / crash, then re-run:
                                            #  resumes from completed points)
    repro-experiments fig8 --jobs 4 --report-out run.json --progress
                                            # structured run report + live
                                            # sweep progress line

The CLI builds one :class:`repro.core.RunConfig` from its flags, makes it
the process default with :func:`repro.core.configure_run`, and hands it to
:func:`repro.core.run_experiments` -- the same three calls a library user
makes.
"""

import argparse
import os
import sys


def _fmt_bytes(n):
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024


def _per_row(nbytes, rows):
    return f"{nbytes / rows:.1f} B/row" if rows else "- B/row"


def _build_parser():
    parser = argparse.ArgumentParser(
        description="Reproduce the tables and figures of the HPCA 1997 "
                    "DSS memory-performance paper.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (or 'all')")
    parser.add_argument("--scenario", action="append", default=[],
                        metavar="SPEC.json",
                        help="run a declarative workload scenario spec "
                             "(validated ScenarioSpec JSON; see 'python -m "
                             "repro.workload validate'); repeatable, "
                             "combines with experiment names")
    parser.add_argument("--scale",
                        default=os.environ.get("REPRO_SCALE", "small"),
                        help="scale preset: tiny, small, medium, paper")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="repro-sweep-worker subprocesses for "
                             "sweep-based experiments; they fetch traces "
                             "by store key (default: 1, run in-process)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="persistent trace store: record query traces "
                             "there on first run, load them on later runs "
                             "(damaged entries re-record with a warning; "
                             "see --strict-store)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="keep the sweep's ledger of completed points "
                             "there (one sweep at a time): they are durable "
                             "with any --jobs, and an interrupted run "
                             "resumes from it instead of restarting")
    parser.add_argument("--point-timeout", type=float, default=None,
                        metavar="SEC",
                        help="kill and retry a sweep point whose worker "
                             "exceeds SEC seconds (default: no timeout)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="worker re-attempts per failed sweep point "
                             "before degrading to in-process execution "
                             "(default: 2)")
    parser.add_argument("--lease-ttl", type=float, default=30.0,
                        metavar="SEC",
                        help="heartbeat silence after which a sweep "
                             "worker subprocess is killed and its point "
                             "re-queued (default: 30)")
    parser.add_argument("--kernel", default=os.environ.get("REPRO_KERNEL",
                                                           "auto"),
                        choices=["auto", "horizon", "batched", "scalar"],
                        help="replay dispatch engine: 'batched' retires "
                             "single-line reads and writes through "
                             "numpy-planned inlined paths, 'horizon' adds "
                             "a sharing classifier and retires whole "
                             "non-interacting regions past the window "
                             "cuts (opt-in), 'scalar' is the pure-Python "
                             "reference loop, 'auto' picks batched when "
                             "numpy is importable "
                             "(default: auto, or REPRO_KERNEL)")
    parser.add_argument("--strict-store", action="store_true",
                        help="raise on damaged trace-store entries instead "
                             "of re-recording them")
    parser.add_argument("--report-out", default=None, metavar="FILE",
                        help="write a schema-versioned JSON run report "
                             "(config, timings, metrics, phase spans, "
                             "supervisor events) to FILE; written even when "
                             "the run is interrupted")
    parser.add_argument("--progress", action="store_true",
                        help="live one-line sweep progress on stderr "
                             "(points done, retries, respawns)")
    parser.add_argument("--time", action="store_true", dest="show_time",
                        help="print wall-clock, cache-traffic, and "
                             "robustness summaries after the reports")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    return parser


def main(argv=None):
    from repro.experiments.families import FAMILIES, family_report

    args = _build_parser().parse_args(argv)

    if args.list or not (args.experiments or args.scenario):
        print("Available experiments:")
        for name, family in FAMILIES.items():
            doc = family.resolve().__doc__ or ""
            print(f"  {name:8s} {doc.strip().splitlines()[0]}")
        return 0

    names = list(FAMILIES) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2

    specs = []
    if args.scenario:
        from repro.workload import SpecError, load_spec

        for path in args.scenario:
            try:
                specs.append(load_spec(path))
            except (OSError, SpecError) as exc:
                print(f"invalid scenario spec {path}: {exc}", file=sys.stderr)
                return 2

    from repro.core import RunConfig, configure_run, run_experiments

    config = RunConfig(
        scale=args.scale,
        jobs=args.jobs,
        trace_dir=args.trace_dir,
        checkpoint_dir=args.checkpoint_dir,
        point_timeout=args.point_timeout,
        retries=args.retries if args.retries is not None else 2,
        strict_store=args.strict_store,
        report_out=args.report_out,
        progress=args.progress,
        kernel=args.kernel,
        lease_ttl=args.lease_ttl,
    )
    configure_run(config)

    progress = None
    if config.progress:
        from repro.obs import ProgressReporter

        progress = ProgressReporter(stream=sys.stderr)
        progress.attach()

    spec_names = {s.name for s in specs}

    def show(name, results, elapsed):
        if progress is not None:
            progress.end_line()
        print(f"\n{'=' * 72}\n{name}  (scale={config.scale}, "
              f"{elapsed:.1f}s)\n{'=' * 72}")
        if name in spec_names:
            from repro.workload import scenario_report

            print(scenario_report(results))
        else:
            print(family_report(name, results))

    try:
        outcome = run_experiments(names + specs, config, on_result=show)
    finally:
        if progress is not None:
            progress.detach()

    if outcome["interrupted"]:
        # Completed points are already durable (the ledger fsyncs each
        # one); report what finished instead of a traceback.
        print("\ninterrupted"
              + (f" -- completed sweep points are recorded under "
                 f"{config.checkpoint_dir}; re-run the same command to resume"
                 if config.checkpoint_dir else ""),
              file=sys.stderr)

    if config.report_out:
        from repro.core import build_run_report
        from repro.obs import write_report

        report = build_run_report(config, outcome["outcomes"],
                                  outcome["interrupted"])
        write_report(config.report_out, report)
        print(f"run report written to {config.report_out}", file=sys.stderr)

    if args.show_time:
        _print_timings(config, outcome["outcomes"])
    return 130 if outcome["interrupted"] else 0


def _print_timings(config, outcomes):
    """The ``--time`` footer: wall-clock plus harness-health counters, all
    read from the metrics registry through the per-subsystem views."""
    from repro.core.backend import fabric_stats
    from repro.core.experiment import trace_cache_stats
    from repro.core.sweep import point_memo_stats, supervisor_stats
    from repro.core.tracestore import corruption_stats
    from repro.memsim.batch import kernel_stats

    timings = [(o["name"], o["seconds"]) for o in outcomes]
    print(f"\n{'=' * 72}\nTimings  (scale={config.scale}, "
          f"jobs={config.jobs})\n{'=' * 72}")
    for name, elapsed in timings:
        print(f"  {name:8s} {elapsed:8.2f}s")
    print(f"  {'total':8s} {sum(t for _, t in timings):8.2f}s")
    tc = trace_cache_stats()
    pm = point_memo_stats()
    print(f"  trace cache  hits={tc['hits']} records={tc['records']} "
          f"loads={tc['loads']} traces={tc['traces']} "
          f"released={tc['released']} ({_fmt_bytes(tc['bytes'])}, "
          f"{_per_row(tc['bytes'], tc['events'])}; "
          f"plans {_fmt_bytes(tc['plan_bytes'])}, "
          f"{_per_row(tc['plan_bytes'], tc['live_events'])})")
    print(f"  trace store  read={_fmt_bytes(tc['bytes_read'])} "
          f"written={_fmt_bytes(tc['bytes_written'])}"
          + (f"  dir={config.trace_dir}" if config.trace_dir else ""))
    cs = corruption_stats()
    causes = " ".join(f"{cause}={n}"
                      for cause, n in sorted(cs["by_cause"].items()))
    print(f"  store health corrupt={cs['corrupt']}"
          + (f" ({causes})" if causes else "")
          + f" stale_tmp_removed={cs['stale_tmp_removed']}"
          + f" rerecords={cs['rerecords']}"
          + f" read_races={cs['read_races']}")
    print(f"  point memo   hits={pm['hits']} misses={pm['misses']} "
          f"cached={pm['cached']}")
    sup = supervisor_stats()
    print(f"  supervisor   retries={sup['retries']} "
          f"timeouts={sup['timeouts']} respawns={sup['respawns']} "
          f"fallbacks={sup['fallbacks']} garbage={sup['garbage']} "
          f"resumed={sup['resumed']}")
    fab = fabric_stats()
    if any(fab.values()):
        print(f"  worker fab   spawns={fab['spawns']} "
              f"deaths={fab['deaths']} stale={fab['stale']} "
              f"corrupt_frames={fab['corrupt_frames']} "
              f"degraded={fab['degraded']}")
    ks = kernel_stats()
    rows = ks["inline_rows"] + ks["scalar_rows"]
    frac = f" ({ks['inline_rows'] / rows:.1%} inlined)" if rows else ""
    print(f"  replay kern  horizon={ks['horizon_runs']} runs "
          f"{ks['horizon_seconds']:.2f}s  batched={ks['batched_runs']} runs "
          f"{ks['batched_seconds']:.2f}s  scalar={ks['scalar_runs']} runs "
          f"{ks['scalar_seconds']:.2f}s{frac}")
    if ks["horizon_runs"]:
        ahead = (f"{ks['horizon_rows'] / rows:.1%} of rows" if rows
                 else f"{ks['horizon_rows']} rows")
        plan = ks["plan_rows"]
        retir = (f" retirable={1 - ks['plan_boundary'] / plan:.1%}"
                 if plan else "")
        print(f"  horizon tier {ahead} retired ahead in "
              f"{ks['horizon_regions']} regions, "
              f"{ks['horizon_merges']} window merges + "
              f"{ks['horizon_windows']} stepped virtual windows, "
              f"{ks['horizon_guards']} guard stops; "
              f"ws_lines={ks['ws_lines']}{retir}")
    if ks["fallbacks"]:
        causes = " ".join(f"{cause}={n}"
                          for cause, n in sorted(ks["fallbacks"].items()))
        print(f"  kern fallbk  {causes}")


if __name__ == "__main__":
    sys.exit(main())
