"""Committed trajectories and per-run result files.

Each ``run`` appends one NDJSON line per workload to
``simbench/trajectory/e2e.ndjson`` and, with ``--trace``, one to
``simbench/trajectory/layers.ndjson``; the full record of the run (every
repetition's samples) goes to a result file that ``compare`` reads.
"""

import json
import os
import platform
import subprocess
import time

from simbench.harness import runner

DIR = os.path.join(runner.ROOT, "simbench", "trajectory")


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=runner.ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def environment():
    """Where and on what the run was made."""
    status = _git("status", "--porcelain")
    return {
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": os.cpu_count(),
    }


def _append(name, lines):
    os.makedirs(DIR, exist_ok=True)
    with open(os.path.join(DIR, name), "a", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def append(records, seed):
    env = environment()

    def head(r):
        return dict(env, schema="simbench.traj/1", workload=r["workload"],
                    seed=r["seed"], asked_seed=seed, reps=r["reps"],
                    kernel=r["kernel"])

    _append("e2e.ndjson", [
        dict(head(r), metrics=dict(r["metrics"], **r["exact"]))
        for r in records])
    _append("layers.ndjson", [dict(head(r), metrics=r["layers"])
                              for r in records if "layers" in r])


def write_result(records, path=None):
    """Write the run's full records for ``compare``; returns the path."""
    if path is None:
        os.makedirs(runner.OUT, exist_ok=True)
        path = os.path.join(runner.OUT,
                            time.strftime("result-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": "simbench.result/1",
                   "environment": environment(),
                   "workloads": {r["workload"]: r for r in records}},
                  fh, indent=1)
        fh.write("\n")
    return path
