"""The sweep supervisor's fault matrix, on ``repro-sweep-worker`` workers.

The supervisor's contract (see :mod:`repro.core.backend`) is that a sweep
fanned out over worker subprocesses under injected crashes, hangs, raises
and garbage results completes with summaries bit-identical to the
``jobs=1`` run, or, when a point cannot be computed at all, raises one
:class:`PointFailure` carrying the point's identity and the original
error.  Faults are injected through :mod:`repro.core.faults`, which worker
processes pick up from the environment.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core import backend
from repro.core.backend import fabric_stats
from repro.core.errors import PointFailure
from repro.core.faults import ENV_HANG, ENV_VAR
from repro.core.ledger import LEDGER_NAME, Ledger, iter_records, pack_record
from repro.core.run import RunConfig
from repro.core.sweep import (
    SweepPoint,
    _point_cache_key,
    clear_variant_cache,
    point_memo_stats,
    run_sweep,
    supervisor_stats,
)
from repro.obs import events as obs_events
from repro.tpcd.scales import get_scale

SCALE = "tiny"
LINES = (16, 32, 64, 128)


def _points(n):
    return [SweepPoint(key=("Q6", line), qid="Q6",
                       machine={"l1_line": line // 2, "l2_line": line})
            for line in LINES[:n]]


def _counters():
    return {**fabric_stats(), **supervisor_stats()}


def _sweep(points, jobs=2, **options):
    """``points`` on ``jobs`` workers (``jobs=1``: serially) from a cold
    memo; returns the results and how far each recovery counter moved."""
    clear_variant_cache()
    before = _counters()
    config = RunConfig(scale=SCALE, jobs=jobs, **options)
    results = run_sweep(points, scale=SCALE, config=config)
    return results, {k: v - before[k] for k, v in _counters().items()}


@pytest.fixture(scope="module")
def serial3():
    """The jobs=1 ground truth for the first three sweep points."""
    return run_sweep(_points(3), scale=SCALE,
                     config=RunConfig(scale=SCALE, jobs=1))


def test_injected_raise_is_retried(monkeypatch, serial3):
    monkeypatch.setenv(ENV_VAR, "raise@1")
    result, moved = _sweep(_points(3))
    assert result == serial3
    assert moved["retries"] == 1
    assert moved["fallbacks"] == 0


def test_crash_respawns_pool_and_garbage_is_rejected(monkeypatch, serial3):
    # The crashed worker is replaced: a death, then a respawn.
    monkeypatch.setenv(ENV_VAR, "crash@0,garbage@2")
    result, moved = _sweep(_points(3))
    assert result == serial3
    assert moved["deaths"] > 0 and moved["respawns"] > 0
    assert moved["garbage"] > 0


def test_hang_times_out_and_recovers(monkeypatch, serial3):
    # The timeout is measured from dispatch to a worker that has finished
    # starting, so it can be far shorter than an interpreter start-up.
    # Both workers hang, so both are killed while points remain and both
    # must be replaced.
    monkeypatch.setenv(ENV_VAR, "hang@0,hang@1")
    monkeypatch.setenv(ENV_HANG, "60")
    result, moved = _sweep(_points(3), point_timeout=0.5)
    assert result == serial3
    assert moved["timeouts"] == 2
    assert moved["deaths"] > 0 and moved["respawns"] > 0


def test_persistent_failure_degrades_to_in_process(monkeypatch, serial3):
    # Two ways out of the retry loop.  Point 0's fault outlives the retry
    # budget: one retry, then the parent (where injected faults never
    # fire) computes it.  Point 1's error declares itself not retryable --
    # a declaration that must survive the wire -- so it goes to the parent
    # without a retry.
    monkeypatch.setenv(ENV_VAR, "raise@0*9,fatal@1*9")
    result, moved = _sweep(_points(3), retries=1)
    assert result == serial3
    assert moved["retries"] == 1
    assert moved["fallbacks"] == 2


def test_worker_error_carries_point_identity():
    # A genuinely broken point (not an injected fault): the error must
    # surface with the point key and the original message, not a bare
    # worker traceback -- and not poison the healthy point beside it.
    bad = SweepPoint(key=("Q6", "bogus"), qid="Q6", placement="bogus")
    with pytest.raises(PointFailure, match="unknown placement") as info:
        _sweep([_points(1)[0], bad], retries=0)
    assert info.value.point_key == ("Q6", "bogus")
    assert info.value.qid == "Q6"


def test_spawn_budget_exhaustion_degrades_to_in_process(monkeypatch, serial3):
    # A transport that can never bring a worker up must not respawn without
    # bound: the budget runs out and the whole sweep runs in the parent.
    def no_popen(*args, **kwargs):
        raise OSError("no worker ever comes up")

    monkeypatch.setattr(backend.subprocess, "Popen", no_popen)
    with pytest.warns(UserWarning, match="degraded to in-process"):
        result, moved = _sweep(_points(3))
    assert result == serial3
    assert moved["degraded"] == 1 and moved["respawns"] == 0
    assert moved["fallbacks"] == 0 and moved["retries"] == 0


def test_checkpoint_resume_skips_completed_points(tmp_path, serial3):
    # The ledger is the same file serial or parallel, so each run below
    # resumes what an earlier one left.
    # One point is too few to fan out, so this first run is serial.
    ckpt = str(tmp_path)
    done, moved = _sweep(_points(1), checkpoint_dir=ckpt)
    assert done == {p.key: serial3[p.key] for p in _points(1)}
    assert moved["spawns"] == 0

    # Simulated restart (the memo is gone, only the ledger remains), and
    # the sweep has grown: only the two new points are simulated.
    extended, moved = _sweep(_points(3), checkpoint_dir=ckpt)
    assert extended == serial3
    assert moved["resumed"] == 1 and moved["spawns"] == 2

    before_misses = point_memo_stats()["misses"]
    for jobs in (2, 1):
        again, moved = _sweep(_points(3), jobs=jobs, checkpoint_dir=ckpt)
        assert again == serial3, jobs
        assert moved["resumed"] == 3 and moved["spawns"] == 0, jobs
    assert point_memo_stats()["misses"] == before_misses
    # One record per point, ever: resumes append nothing.
    with Ledger(ckpt) as ledger, open(ledger.path, "rb") as fh:
        assert len(ledger.completed) == 3
        assert len(list(iter_records(fh.read()))) == 3


def test_stale_lease_is_requeued_exactly_once(tmp_path, serial3):
    """A version-1 ledger as an interrupted earlier writer of the format
    left it -- point 0 completed, point 1 claimed and heartbeating when its
    driver died, point 2 abandoned after a failure -- resumes point 0 and
    re-runs exactly the other two, once each and bit-identically; a second
    resume re-runs nothing."""
    points = _points(3)
    keys = [_point_cache_key(p, get_scale(SCALE), 42) for p in points]
    records = [
        {"op": "complete", "key": keys[0], "worker": "w0", "t": 1.0,
         "summary": serial3[points[0].key]},
        {"op": "claim", "key": keys[1], "worker": "w1",
         "pid": 2 ** 22 + 999, "t": 2.0, "ttl": 30.0},
        {"op": "heartbeat", "key": keys[1], "worker": "w1", "t": 3.0},
        {"op": "abandon", "key": keys[2], "worker": "w1", "t": 4.0,
         "reason": "PointTimeout"},
    ]
    (tmp_path / LEDGER_NAME).write_bytes(
        b"".join(pack_record(r) for r in records))
    ran = []

    def count_runs(kind, _detail):
        if kind == "point.done":
            ran.append(kind)

    obs_events.subscribe(count_runs)
    try:
        result, moved = _sweep(points, checkpoint_dir=str(tmp_path))
        assert result == serial3
        assert moved["resumed"] == 1 and moved["spawns"] == 2
        assert len(ran) == len(points) - moved["resumed"]

        ran.clear()
        result, moved = _sweep(points, checkpoint_dir=str(tmp_path))
        assert result == serial3
        assert moved["resumed"] == 3 and moved["spawns"] == 0
        assert not ran
    finally:
        obs_events.unsubscribe(count_runs)


_UNGUARDED_SCRIPT = textwrap.dedent("""
    from repro.core import RunConfig, fabric_stats, run_sweep
    from repro.core.sweep import SweepPoint, supervisor_stats

    points = [SweepPoint(key=("Q6", line), qid="Q6",
                         machine={"l1_line": line // 2, "l2_line": line})
              for line in (16, 32, 64)]
    run_sweep(points, scale="tiny", config=RunConfig(scale="tiny", jobs=2))
    print("SWEPT", supervisor_stats()["respawns"],
          fabric_stats()["degraded"], flush=True)
""")


def test_unguarded_script_runs_its_body_once(tmp_path):
    # A script with no ``if __name__ == "__main__":`` guard that sweeps
    # with jobs=2: workers are fresh ``python -m repro.core.worker``
    # interpreters, so the caller's module is never re-executed in them.
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED_SCRIPT)
    pkg_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    env.pop(ENV_VAR, None)
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300,
                          cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    marks = [line for line in done.stdout.splitlines()
             if line.startswith("SWEPT")]
    assert marks == ["SWEPT 0 0"], done.stdout


class ScriptedTransport:
    """An in-memory transport on a fake clock: every ``(index, attempt)``
    it is handed is answered from ``script``, each entry once (default: the
    right summary), so the supervisor's policy can be read off the dispatch log without a
    process being spawned or a second being waited."""

    name = "scripted"
    capacity = 2
    alive = 1

    def __init__(self, script, summaries):
        self.script, self.summaries = script, summaries
        self.now = 0.0
        self.inflight = {}
        self.log = []             # (index, attempt, dispatch time)
        self.killed = []

    def clock(self):
        return self.now

    def start(self, want, budget):
        return 0

    def free_slots(self):
        return self.capacity - len(self.inflight)

    def submit(self, i, attempt, point):
        self.inflight[i] = attempt
        self.log.append((i, attempt, round(self.now, 3)))

    def poll(self, tick):
        self.now += 0.125         # a binary fraction: the clock stays exact
        events = []
        for i, attempt in list(self.inflight.items()):
            kind, payload = self.script.get(
                (i, attempt), ("result", self.summaries[i]))
            if kind != "hang":
                self.script.pop((i, attempt), None)
                del self.inflight[i]
                events.append((kind, i, payload))
        return events

    def kill(self, i):
        del self.script[i, self.inflight.pop(i)]
        self.killed.append(i)

    def close(self):
        assert not self.inflight


def test_supervisor_policy_on_a_scripted_transport(serial3):
    points = _points(3)
    transport = ScriptedTransport({
        (0, 0): ("error", RuntimeError("retryable by default")),
        (0, 1): ("lost", ConnectionError("worker died")),
        (1, 0): ("lost", None),                 # collateral: not charged
        (2, 0): ("hang", None),
        (2, 1): ("result", {"not": "a summary"}),
    }, [serial3[p.key] for p in points])
    before = _counters()
    config = RunConfig(scale=SCALE, retries=2, backoff=0.5,
                       point_timeout=0.625)
    results = backend.supervise(transport, points, get_scale(SCALE), 42,
                                config, clock=transport.clock)
    moved = {k: v - before[k] for k, v in _counters().items()}
    assert results == [serial3[p.key] for p in points]
    by_point = {i: [(attempt, t) for j, attempt, t in transport.log if j == i]
                for i in range(3)}
    # Charged twice: backoff 0.5 then 1.0 s after each failure was seen
    # (at 0.125 and 0.75).
    assert by_point[0] == [(0, 0.0), (1, 0.625), (2, 1.75)]
    # Lost uncharged: straight back in at the same attempt number.
    assert by_point[1] == [(0, 0.0), (0, 0.125)]
    # Queued behind the two slots; hung past the timeout and was killed
    # (0.875); returned garbage (1.5); then right.  Never a fallback.
    assert by_point[2] == [(0, 0.125), (1, 1.375), (2, 2.5)]
    assert transport.killed == [2]
    assert (moved["retries"], moved["timeouts"], moved["garbage"],
            moved["fallbacks"]) == (4, 1, 1, 0)
