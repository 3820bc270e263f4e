"""The parent process: set-up, one child per repetition, checks, metrics.

Closed loop, one client: children run strictly one after another, and the
only concurrency is what the program under test starts itself.  The parent
imports nothing from ``repro``.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from simbench.harness import golden, spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "simbench", "out")

STORE_WORKLOADS = ("sweep-warm", "fanout-tiny")

#: Set-ups per run; the median is ``setup_s``.
SETUP_SAMPLES = 3

#: No child may outlive this: the whole benchmark run has 180 s.
CHILD_TIMEOUT = 170


class HarnessError(Exception):
    """The harness could not measure (as opposed to: measured a failure)."""


def require_program():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise HarnessError(f"no program to measure: {SRC}/repro is missing")


def child(mode, workload, seed, scratch, store=None, kernel="auto",
          spans=None):
    """Run one child to completion and return its JSON report."""
    fd, out = tempfile.mkstemp(prefix=f"{mode}-", suffix=".json", dir=scratch)
    os.close(fd)
    cmd = [sys.executable, "-m", "simbench.harness", "child", mode, workload,
           "--seed", str(seed), "--out", out, "--scratch", scratch,
           "--kernel", kernel]
    if store:
        cmd += ["--store", store]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Its own process group: on a timeout or Ctrl-C the pool and sweep
    # workers the child started are stopped with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise HarnessError(f"{mode} child for {workload} ran past "
                               f"{CHILD_TIMEOUT} s") from None
        raise
    if code != 0:
        raise HarnessError(f"{mode} child for {workload} exited {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


class Scratch:
    """A temporary directory under ``simbench/out``, removed on exit --
    also when the run is interrupted."""

    def __enter__(self):
        os.makedirs(OUT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=OUT)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        return False


def set_up(workload, seed, scratch):
    """Prepare one workload from nothing; ``(seconds, goldens, store)``.

    Loads the goldens and runs one child: for the store workloads the cold
    pass that fills an empty trace store (dbgen + record + encode + save),
    for the others a preflight that only imports the program -- the golden
    load alone is a fraction of a millisecond, too little to time.
    """
    t0 = perf_counter()
    entries = golden.load()
    store = None
    if workload in STORE_WORKLOADS:
        store = tempfile.mkdtemp(prefix="store-", dir=scratch)
        child("populate", workload, seed, scratch, store=store)
    else:
        child("preflight", workload, seed, scratch)
    return perf_counter() - t0, entries, store


def check_reps(workload, seed, reports, entries):
    """The exact metrics of a set of repetitions of one workload."""
    entry = golden.lookup(entries, workload, seed)
    if entry is None:
        raise HarnessError(f"seed {seed} of {workload} has no goldens; run "
                           f"`pin --seed {seed}` first")
    lines = []
    for i, rep in enumerate(reports):
        lines += [f"rep {i}: {m}"
                  for m in golden.mismatches(rep, entry)]
        if rep["hashes"] != reports[0]["hashes"]:
            lines.append(f"rep {i}: hashes differ from rep 0")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    band_lines = sorted({v for r in reports
                         for v in r.get("band_violations", ())})
    failure_lines = [f for r in reports for f in r["failures"]]
    return {
        "stat_mismatches": len(lines),
        "paper_band_violations": len(band_lines),
        "failed_share": min(1.0, (failed + len(lines)) / attempted),
        "attempted": attempted,
        "failed": min(attempted, failed + len(lines)),
        "detail": lines + band_lines + failure_lines,
        "work_refs": entry["work_refs"],
    }


def measure(workload, seed, reps=None, seconds=None, trace=False,
            setups=SETUP_SAMPLES):
    """Measure one workload; returns its record.

    Runs ``reps`` repetitions, or -- given ``seconds`` -- as many as fit:
    another repetition starts only if one more of the same length would
    end within the budget.  With ``trace`` one staged, traced child runs
    after the untraced repetitions and its per-layer metrics are added.
    """
    require_program()
    seed = spec.fold_seed(workload, seed)
    with Scratch() as scratch:
        samples = []
        for _ in range(setups):
            if samples and store:
                shutil.rmtree(store)
            seconds_taken, entries, store = set_up(workload, seed, scratch)
            samples.append(seconds_taken)
        reports = []
        spent = 0.0
        while True:
            rep_dir = tempfile.mkdtemp(prefix="rep-", dir=scratch)
            rep = child("rep", workload, seed, rep_dir, store=store)
            shutil.rmtree(rep_dir)
            reports.append(rep)
            spent += rep["wall_s"]
            if reps is not None:
                if len(reports) >= reps:
                    break
            elif spent + rep["wall_s"] > seconds:
                break
        exact = check_reps(workload, seed, reports, entries)
        walls = [r["wall_s"] for r in reports]
        record = {
            "workload": workload,
            "seed": seed,
            "reps": len(reports),
            "kernel": reports[0]["kernel"],
            "samples": {
                "wall_s": walls,
                "cpu_s": [r["cpu_s"] for r in reports],
                "sim_refs_per_s": [exact["work_refs"] / w for w in walls],
                "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
                "setup_s": samples,
            },
            "exact": {k: exact[k] for k, _u in spec.EXACT},
            "attempted": exact["attempted"],
            "failed": exact["failed"],
            "detail": exact["detail"],
            "modelled": reports[0].get("modelled", {}),
        }
        record["metrics"] = {name: statistics.median(values)
                             for name, values in record["samples"].items()}
        if trace:
            record["layers"] = traced(workload, seed, scratch, store, record)
        return record


def traced(workload, seed, scratch, store, record):
    """Run the staged, traced child; return every per-layer metric."""
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}.json")
    staged_dir = tempfile.mkdtemp(prefix="staged-", dir=scratch)
    report = child("staged", workload, seed, staged_dir, store=store,
                   spans=spans_path)
    wall = record["metrics"]["wall_s"]
    layers = {name: 0.0 for name, _u, _b, _w in spec.PER_LAYER}
    layers.update(record["modelled"])
    layers.update(record["exact"])
    layers.update(report["metrics"])
    layers["bench.trace_overhead_frac"] = \
        (report["stage_wall_s"] - wall) / wall
    layers["bench.unattributed_frac"] = 1.0 - report["attributed_s"] / wall
    unknown = set(layers) - set(spec.LAYER_UNITS)
    if unknown:
        raise HarnessError(f"undeclared per-layer metrics: {sorted(unknown)}")
    record["staged_detail"] = report.get("detail", [])
    return layers


def correct(record):
    """Whether every output of the run was right."""
    ok = (record["exact"]["stat_mismatches"] == 0
          and record["exact"]["paper_band_violations"] == 0
          and record["failed"] == 0)
    layers = record.get("layers")
    if layers is not None:
        ok = ok and layers["numa.micro_mismatches"] == 0 \
            and not record["staged_detail"]
    return ok


def print_record(record):
    """Every metric of one workload by name, with its unit."""
    w = record["workload"]
    print(f"== {w}  seed={record['seed']} reps={record['reps']} "
          f"kernel={record['kernel']}")
    for name, unit, _better, bound in spec.END_TO_END:
        n = len(record["samples"][name])
        print(f"  {name:<24}{record['metrics'][name]:>16.4f} {unit:<6} "
              f"median of {n}, bound {bound:.0%}")
    for name, unit in spec.EXACT:
        print(f"  {name:<24}{record['exact'][name]:>16.4f} {unit:<6} "
              "exact, must be 0")
    print("  model: unvalidated beyond qualitative bands")
    for name, unit, _better, on in spec.PER_LAYER:
        if "layers" in record and w in on:
            print(f"  {name:<40}{record['layers'][name]:>16.6g} {unit}")
    for line in record["detail"] + record.get("staged_detail", []):
        print(f"  ! {line}")
