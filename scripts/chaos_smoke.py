"""CI chaos smoke: a sweep under injected faults must match serial.

Four acts over the same four-point line-size sweep:

1. a clean ``--backend workers`` run is bit-identical to the in-process
   run (and the lease ledger ends compacted, with no leases left);
2. a run on the process pool with an injected worker raise, crash,
   garbage result and hang is bit-identical, and each recovery path
   provably fired;
3. a ``--backend workers`` run under every worker-targeted fault kind at
   once -- a worker kill, a corrupt result frame, a heartbeat stall --
   plus a randomized-but-seeded chaos schedule on top, is *still*
   bit-identical, and each recovery path provably fired;
4. a run interrupted mid-sweep (SIGINT) resumes from the lease ledger:
   the in-flight point is re-queued exactly once and the final results
   are bit-identical again.

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


def _points():
    from repro.core.sweep import SweepPoint

    return [
        SweepPoint(key=("Q6", line), qid="Q6",
                   machine={"l1_line": line // 2, "l2_line": line})
        for line in (16, 32, 64, 128)
    ]


def _fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    return 1


def _clean_run(serial, ckpt):
    from repro.core import RunConfig
    from repro.core.ledger import LeaseLedger
    from repro.core.sweep import clear_variant_cache, run_sweep

    clear_variant_cache()
    got = run_sweep(_points(), scale="tiny",
                    config=RunConfig(backend="workers", workers=4,
                                     checkpoint_dir=ckpt, lease_ttl=20.0))
    if got != serial:
        return _fail("clean workers-backend sweep diverged from serial")
    with LeaseLedger(ckpt) as ledger:
        if len(ledger.completed) != len(serial) or ledger.leases:
            return _fail(f"ledger not settled: {len(ledger.completed)} "
                         f"completed, {len(ledger.leases)} leases")
    print("chaos smoke 1/4 OK: clean workers backend == serial")
    return 0


def _pool_run(serial):
    from repro.core import RunConfig
    from repro.core.faults import ENV_VAR
    from repro.core.sweep import (
        clear_variant_cache, run_sweep, supervisor_stats,
    )

    clear_variant_cache()
    before = supervisor_stats()
    # Multi-attempt budgets (*N) keep each fault deterministic even though
    # the crash-induced pool breakage charges every in-flight point an
    # attempt: the fault still fires once the point actually runs.
    os.environ[ENV_VAR] = "raise@0*2,crash@1,garbage@2*3,hang@3*2"
    try:
        got = run_sweep(_points(), scale="tiny",
                        config=RunConfig(jobs=4, point_timeout=5.0))
    finally:
        del os.environ[ENV_VAR]
    if got != serial:
        return _fail("faulted pool sweep diverged from serial")
    stats = supervisor_stats()
    for counter in ("retries", "respawns", "timeouts", "garbage"):
        if stats[counter] <= before[counter]:
            return _fail(f"expected the {counter!r} recovery path to fire: "
                         f"{stats}")
    print(f"chaos smoke 2/4 OK: crash + hang + raise + garbage on the pool "
          f"== serial, {stats}")
    return 0


def _chaos_run(serial, ckpt, seed):
    from repro.core import RunConfig
    from repro.core.backend import fabric_stats
    from repro.core.faults import ENV_VAR
    from repro.core.sweep import clear_variant_cache, run_sweep

    clear_variant_cache()
    before = fabric_stats()
    # Every worker-fabric failure mode pinned on a point each, seeded
    # chaos covering whatever coordinates the retries add on top.
    os.environ[ENV_VAR] = f"crash@0,wcorrupt@1,wstall@2,chaos@{seed}*30"
    try:
        got = run_sweep(_points(), scale="tiny",
                        config=RunConfig(backend="workers", workers=4,
                                         checkpoint_dir=ckpt,
                                         lease_ttl=4.0, retries=3))
    finally:
        del os.environ[ENV_VAR]
    if got != serial:
        return _fail(f"chaos sweep (seed {seed}) diverged from serial")
    stats = fabric_stats()
    for counter in ("deaths", "corrupt_frames", "stale"):
        if stats[counter] <= before[counter]:
            return _fail(f"expected the {counter!r} recovery path to fire: "
                         f"{stats}")
    print(f"chaos smoke 3/4 OK: seeded chaos (seed {seed}) == serial, "
          f"{stats}")
    return 0


_INTERRUPT_PROG = textwrap.dedent("""
    import os
    from repro.core import RunConfig
    from repro.core.faults import ENV_VAR
    from repro.core.sweep import SweepPoint, run_sweep
    # A heartbeat stall keeps the sweep alive long enough to interrupt,
    # and leaves that point claimed-but-never-completed in the ledger.
    os.environ[ENV_VAR] = "wstall@3"
    points = [SweepPoint(key=("Q6", line), qid="Q6",
                         machine={"l1_line": line // 2, "l2_line": line})
              for line in (16, 32, 64, 128)]
    print("SWEEPING", flush=True)
    run_sweep(points, scale="tiny",
              config=RunConfig(backend="workers", workers=2,
                               checkpoint_dir=os.environ["CKPT"],
                               lease_ttl=60.0))
""")


def _interrupt_and_resume(serial, ckpt):
    from repro.core import RunConfig
    from repro.core.sweep import (
        clear_variant_cache, run_sweep, supervisor_stats,
    )

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

    before = supervisor_stats()
    clear_variant_cache()
    got = run_sweep(_points(), scale="tiny",
                    config=RunConfig(backend="workers", workers=2,
                                     checkpoint_dir=ckpt, lease_ttl=20.0))
    stats = supervisor_stats()
    if got != serial:
        return _fail("resumed sweep diverged from serial")
    resumed = stats["resumed"] - before["resumed"]
    requeued = stats["requeued"] - before["requeued"]
    if not (1 <= resumed <= 3):
        return _fail(f"expected 1..3 resumed points, got {resumed}")
    if requeued < 1:
        return _fail("expected the interrupted in-flight point re-queued")

    # Exactly once: a further resume finds everything completed.
    clear_variant_cache()
    again = run_sweep(_points(), scale="tiny",
                      config=RunConfig(backend="workers", workers=2,
                                       checkpoint_dir=ckpt, lease_ttl=20.0))
    final = supervisor_stats()
    if again != serial:
        return _fail("second resume diverged from serial")
    if final["requeued"] != stats["requeued"]:
        return _fail("a reclaimed lease was re-queued twice")
    print(f"chaos smoke 4/4 OK: SIGINT resume == serial "
          f"(resumed={resumed} requeued={requeued})")
    return 0


def main():
    from repro.core.sweep import run_sweep

    seed = int(os.environ.get("CHAOS_SEED", "42"))
    serial = run_sweep(_points(), scale="tiny", jobs=1)

    with tempfile.TemporaryDirectory() as d:
        rc = _clean_run(serial, os.path.join(d, "clean"))
        if rc:
            return rc
    rc = _pool_run(serial)
    if rc:
        return rc
    with tempfile.TemporaryDirectory() as d:
        rc = _chaos_run(serial, os.path.join(d, "chaos"), seed)
        if rc:
            return rc
    with tempfile.TemporaryDirectory() as d:
        rc = _interrupt_and_resume(serial, os.path.join(d, "resume"))
        if rc:
            return rc
    print("chaos smoke OK: all four acts bit-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
