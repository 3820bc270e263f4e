"""CI chaos smoke: a sweep under injected faults must match serial.

Three acts over line-size sweeps on ``repro-sweep-worker`` workers:

1. a clean four-point run is bit-identical to the in-process run,
   replaces no worker, and leaves exactly one ledger record per point;
2. an eight-point run under every fault kind at once -- a raise, a
   worker crash, a garbage result, a hang, a corrupt result frame, a
   heartbeat stall -- plus a randomized-but-seeded chaos schedule on top,
   is *still* bit-identical, and each recovery path provably fired;
3. a run interrupted mid-sweep (SIGINT) resumes from the ledger: with
   ``k`` points recorded complete, the resume takes exactly those ``k``
   from it and re-runs exactly the other ``n - k``, the final results are
   bit-identical again, and a second resume re-runs nothing.

The chaos seed comes from ``CHAOS_SEED`` (default 42) so CI can sweep a
matrix of schedules while any one failure stays reproducible::

    PYTHONPATH=src CHAOS_SEED=7 python scripts/chaos_smoke.py
"""

import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time


def _points(n_procs=4):
    from repro.core.sweep import SweepPoint

    return [
        SweepPoint(key=("Q6", line, n_procs), qid="Q6", n_procs=n_procs,
                   machine={"l1_line": line // 2, "l2_line": line})
        for line in (16, 32, 64, 128)
    ]


def _fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    return 1


def _clean_run(serial, ckpt):
    from repro.core import RunConfig
    from repro.core.ledger import Ledger, iter_records
    from repro.core.sweep import (
        clear_variant_cache, run_sweep, supervisor_stats,
    )

    clear_variant_cache()
    before = supervisor_stats()["respawns"]
    got = run_sweep(_points(), scale="tiny",
                    config=RunConfig(jobs=4, checkpoint_dir=ckpt,
                                     lease_ttl=20.0))
    if got != serial:
        return _fail("clean sweep on workers diverged from serial")
    if supervisor_stats()["respawns"] != before:
        return _fail("a clean sweep replaced a worker")
    with Ledger(ckpt) as ledger, open(ledger.path, "rb") as fh:
        n_records = sum(1 for _ in iter_records(fh.read()))
        if len(ledger.completed) != len(got) or n_records != len(got):
            return _fail(f"ledger not settled: {len(ledger.completed)} "
                         f"completed in {n_records} records for "
                         f"{len(got)} points")
    print("chaos smoke 1/3 OK: clean workers == serial")
    return 0


def _chaos_run(serial, ckpt, seed):
    from repro.core import RunConfig
    from repro.core.backend import fabric_stats
    from repro.core.faults import ENV_VAR
    from repro.core.sweep import (
        clear_variant_cache, run_sweep, supervisor_stats,
    )

    clear_variant_cache()
    before = {**supervisor_stats(), **fabric_stats()}
    # Every compute and worker-fabric failure mode pinned on a point each;
    # points 3 and 4 are left to the seeded chaos schedule, which also
    # covers whatever coordinates the retries add on top.
    os.environ[ENV_VAR] = ("raise@0,crash@1,garbage@2,hang@5,wcorrupt@6,"
                           f"wstall@7,chaos@{seed}*30")
    try:
        got = run_sweep(_points() + _points(n_procs=2), scale="tiny",
                        config=RunConfig(jobs=4, checkpoint_dir=ckpt,
                                         point_timeout=5.0, lease_ttl=4.0,
                                         retries=3))
    finally:
        del os.environ[ENV_VAR]
    if got != serial:
        return _fail(f"chaos sweep (seed {seed}) diverged from serial")
    stats = {**supervisor_stats(), **fabric_stats()}
    for counter in ("retries", "respawns", "timeouts", "garbage", "deaths",
                    "corrupt_frames", "stale"):
        if stats[counter] <= before[counter]:
            return _fail(f"expected the {counter!r} recovery path to fire: "
                         f"{stats}")
    print(f"chaos smoke 2/3 OK: crash + hang + raise + garbage + corrupt "
          f"frame + heartbeat stall + seeded chaos (seed {seed}) == serial, "
          f"{stats}")
    return 0


_INTERRUPT_PROG = textwrap.dedent("""
    import os
    from repro.core import RunConfig
    from repro.core.faults import ENV_VAR
    from repro.core.sweep import SweepPoint, run_sweep
    # A heartbeat stall keeps the sweep alive long enough to interrupt,
    # and leaves that point never completed in the ledger.
    os.environ[ENV_VAR] = "wstall@3"
    points = [SweepPoint(key=("Q6", line, 4), qid="Q6",
                         machine={"l1_line": line // 2, "l2_line": line})
              for line in (16, 32, 64, 128)]
    print("SWEEPING", flush=True)
    run_sweep(points, scale="tiny",
              config=RunConfig(jobs=2, checkpoint_dir=os.environ["CKPT"],
                               lease_ttl=60.0))
""")


def _resume_counted(ckpt):
    """One resume of the interrupted sweep: its results, how many points
    it took from the ledger, and how many it ran."""
    from repro.core import RunConfig
    from repro.core.sweep import (
        clear_variant_cache, run_sweep, supervisor_stats,
    )
    from repro.obs import events

    ran = []

    def count_runs(kind, _detail):
        if kind == "point.done":
            ran.append(kind)

    before = supervisor_stats()["resumed"]
    clear_variant_cache()
    events.subscribe(count_runs)
    try:
        got = run_sweep(_points(), scale="tiny",
                        config=RunConfig(jobs=2, checkpoint_dir=ckpt,
                                         lease_ttl=20.0))
    finally:
        events.unsubscribe(count_runs)
    return got, supervisor_stats()["resumed"] - before, len(ran)


def _interrupt_and_resume(serial, ckpt):
    from repro.core.ledger import Ledger

    env = dict(os.environ, CKPT=ckpt)
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.Popen([sys.executable, "-c", _INTERRUPT_PROG],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    proc.stdout.readline()          # wait for the sweep to be underway
    time.sleep(10)                  # let some points complete, some not
    proc.send_signal(signal.SIGINT)
    proc.wait(timeout=60)
    if proc.returncode == 0:
        return _fail("interrupted run finished before the SIGINT landed; "
                     "nothing was resumed")

    # What the interrupted run left: k points recorded complete.
    with Ledger(ckpt) as ledger:
        k = len(ledger.completed)
    n = len(serial)
    if not (1 <= k < n):
        return _fail(f"expected the SIGINT to land mid-sweep, but the "
                     f"ledger holds {k} of {n} points")

    got, resumed, ran = _resume_counted(ckpt)
    if got != serial:
        return _fail("resumed sweep diverged from serial")
    if resumed != k or ran != n - k:
        return _fail(f"the resume took {resumed} points from a ledger of "
                     f"{k} and ran {ran}; expected {k} and {n - k}")

    # A further resume finds everything completed and runs nothing.
    again, resumed2, ran2 = _resume_counted(ckpt)
    if again != serial:
        return _fail("second resume diverged from serial")
    if resumed2 != n or ran2:
        return _fail(f"the second resume took {resumed2} of {n} points "
                     f"from the ledger and ran {ran2}")
    print(f"chaos smoke 3/3 OK: SIGINT resume == serial "
          f"(resumed={k} re-ran={n - k})")
    return 0


def main():
    from repro.core import RunConfig
    from repro.core.sweep import run_sweep

    seed = int(os.environ.get("CHAOS_SEED", "42"))
    serial = run_sweep(_points() + _points(n_procs=2), scale="tiny",
                       config=RunConfig(scale="tiny", jobs=1))
    serial4 = {p.key: serial[p.key] for p in _points()}

    with tempfile.TemporaryDirectory() as d:
        rc = _clean_run(serial4, os.path.join(d, "clean"))
        if rc:
            return rc
    with tempfile.TemporaryDirectory() as d:
        rc = _chaos_run(serial, os.path.join(d, "chaos"), seed)
        if rc:
            return rc
    with tempfile.TemporaryDirectory() as d:
        rc = _interrupt_and_resume(serial4, os.path.join(d, "resume"))
        if rc:
            return rc
    print("chaos smoke OK: all three acts bit-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
