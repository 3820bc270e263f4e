"""Command line of the benchmark harness.

    python3 -m simbench.harness run [--seed 0] [--reps N] [--workload NAME]
                                    [--trace] [--out FILE]
    python3 -m simbench.harness bench --workload NAME --seed N --seconds S
                                      --trace 0|1
    python3 -m simbench.harness pin [--seed S] [--workload NAME] [--force]
    python3 -m simbench.harness pool
    python3 -m simbench.harness compare A.json B.json

``run`` is for people: every metric by name with its unit, a result file
for ``compare`` and a line per workload in the committed trajectories.
``bench`` is the one-workload form ``BENCHMARK.json`` names: it prints one
JSON object as its last line and reports a wrong output there, in
``correct``; ``run`` exits non-zero on one.

The pool backend starts its workers with the ``spawn`` method, which
re-imports this module in every worker: the ``__main__`` guard at the
bottom is what keeps a worker from starting a benchmark of its own.
"""

import argparse
import json
import sys

from simbench.harness import spec


def _cmd_child(args):
    from simbench.harness import child

    return child.main(args)


def _cmd_bench(args):
    from simbench.harness import runner

    trace = bool(args.trace)
    if trace:
        record = runner.measure(args.workload, args.seed, reps=1, trace=True,
                                setups=1)
        values, units = record["layers"], spec.LAYER_UNITS
    else:
        record = runner.measure(args.workload, args.seed,
                                seconds=args.seconds)
        values, units = record["metrics"], spec.E2E_UNITS
    runner.print_record(record)
    print(json.dumps({
        "correct": runner.correct(record),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def _cmd_run(args):
    from simbench.harness import runner, trajectory

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    records = []
    for name in names:
        reps = args.reps or spec.WORKLOADS[name][1]
        record = runner.measure(name, args.seed, reps=reps, trace=args.trace)
        runner.print_record(record)
        records.append(record)
    trajectory.append(records, args.seed)
    path = trajectory.write_result(records, args.out)
    print(f"result file: {path}")
    return 0 if all(runner.correct(r) for r in records) else 1


def _cmd_pin(args):
    from simbench.harness import pin

    return pin.main(args)


def _cmd_pool(args):
    from simbench.harness import pool

    return pool.main()


def _cmd_compare(args):
    from simbench.harness import compare

    return compare.main(args.base, args.new)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python3 -m simbench.harness",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="measure every workload (or one)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=None,
                   help="repetitions per workload (default 3; 5 for "
                        "fanout-tiny)")
    p.add_argument("--workload", choices=list(spec.WORKLOADS))
    p.add_argument("--trace", action="store_true",
                   help="also run the staged per-layer pipeline")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="result file for `compare` (default: "
                        "simbench/out/result-<time>.json)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bench", help="one workload, machine-readable")
    p.add_argument("--workload", choices=list(spec.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("pin", help="write goldens under the scalar oracle")
    p.add_argument("--seed", type=int, action="append", default=None,
                   help="pooled seed to pin (repeatable; default: every "
                        "pooled seed)")
    p.add_argument("--workload", choices=list(spec.WORKLOADS))
    p.add_argument("--force", action="store_true",
                   help="overwrite an already pinned seed")
    p.set_defaults(fn=_cmd_pin)

    p = sub.add_parser("pool", help="recompute the equal-work seed pools")
    p.set_defaults(fn=_cmd_pool)

    p = sub.add_parser("compare", help="apply the bounds to two result files")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("child", help=argparse.SUPPRESS)
    p.add_argument("mode", choices=("rep", "populate", "preflight", "staged"))
    p.add_argument("workload", choices=list(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--store", default=None)
    p.add_argument("--kernel", default="auto")
    p.add_argument("--spans", default=None)
    p.set_defaults(fn=_cmd_child)

    args = parser.parse_args(argv)
    from simbench.harness.runner import HarnessError

    try:
        return args.fn(args)
    except HarnessError as exc:
        print(f"simbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
