"""Lease ledger: claim lifecycle, stale reclaim, crash repair, compaction.

The ledger's contract (see :mod:`repro.core.ledger`) joins a
bit-identical-resume guarantee (the framing under it is pinned in
``test_checkpoint.py``) to a work-queue one: every in-flight point is
visible as a lease, a dead or lapsed lease is reclaimable by anyone, and
the reclaim itself is durable -- so a resumed sweep requeues each
interrupted point exactly once.
"""

import os

import pytest

from repro.core.errors import LedgerError
from repro.core.ledger import LEDGER_NAME, LeaseLedger, canonical_key

KEY_A = ("tiny", 7, "Q6", (64, 128, True), 4)
KEY_B = ("tiny", 7, "Q12", (64, 128, True), 4)
SUMMARY = {
    "exec_time": 123456,
    "breakdown": {"busy": 0.5, "msync": 0.25, "mem": 0.25},
    "l2_grouped": {"Database": [10, 2]},
    "cpu": [{"busy": 100, "msync": 5, "mem": 7, "finish_time": 112}],
}


def test_claim_complete_lifecycle(tmp_path):
    with LeaseLedger(tmp_path) as ledger:
        assert ledger.claim(KEY_A, "w0", pid=os.getpid())
        # A live lease blocks other workers but not the holder.
        assert not ledger.claim(KEY_A, "w1", pid=os.getpid())
        assert ledger.claim(KEY_A, "w0", pid=os.getpid())
        assert ledger.heartbeat(KEY_A, "w0")
        assert not ledger.heartbeat(KEY_A, "w1")
        ledger.complete(KEY_A, SUMMARY, worker="w0")
        assert canonical_key(KEY_A) not in ledger.leases
        # Completed points are never claimable again.
        assert not ledger.claim(KEY_A, "w1", pid=os.getpid())
    with LeaseLedger(tmp_path) as reopened:
        assert reopened.get(KEY_A) == SUMMARY
        assert not reopened.leases


def test_abandon_releases_the_lease(tmp_path):
    with LeaseLedger(tmp_path) as ledger:
        ledger.claim(KEY_A, "w0", pid=os.getpid())
        ledger.abandon(KEY_A, "w0", reason="shutdown")
    with LeaseLedger(tmp_path) as reopened:
        assert not reopened.leases
        assert reopened.claim(KEY_A, "w1", pid=os.getpid())


def test_dead_pid_lease_is_stale_and_superseded(tmp_path):
    # A pid that cannot exist: fork would have to wrap around to hit it.
    dead = 2 ** 22 + 12345
    with LeaseLedger(tmp_path) as ledger:
        ledger.claim(KEY_A, "w0", pid=dead)
    with LeaseLedger(tmp_path) as reopened:
        assert reopened.stale_leases() == [canonical_key(KEY_A)]
        # A new worker claims straight through the stale lease.
        assert reopened.claim(KEY_A, "w1", pid=os.getpid())
        assert reopened.leases[canonical_key(KEY_A)].worker == "w1"


def test_lapsed_ttl_is_stale_even_with_a_live_pid(tmp_path):
    with LeaseLedger(tmp_path, lease_ttl=10.0) as ledger:
        ledger.claim(KEY_A, "w0", pid=os.getpid(), ttl=10.0, now=1000.0)
        assert ledger.stale_leases(now=1005.0) == []
        assert ledger.stale_leases(now=1011.0) == [canonical_key(KEY_A)]
        # A heartbeat renews the lease.
        ledger.heartbeat(KEY_A, "w0", now=1010.0)
        assert ledger.stale_leases(now=1011.0) == []


def test_reclaim_stale_is_exactly_once(tmp_path):
    dead = 2 ** 22 + 12345
    with LeaseLedger(tmp_path) as ledger:
        ledger.claim(KEY_A, "w0", pid=dead)
        ledger.claim(KEY_B, "w1", pid=os.getpid())  # live, not reclaimed
        reclaimed = ledger.reclaim_stale()
        assert reclaimed == [canonical_key(KEY_A)]
        # The abandon is durable: a second pass (same or new process)
        # finds nothing left to reclaim.
        assert ledger.reclaim_stale() == []
    with LeaseLedger(tmp_path) as reopened:
        assert reopened.reclaim_stale(now=0.0) == []
        assert canonical_key(KEY_A) not in reopened.leases


def test_damaged_tail_is_repaired(tmp_path):
    with LeaseLedger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY, worker="w0")
        good_size = os.path.getsize(ledger.path)
        ledger.claim(KEY_B, "w1", pid=os.getpid())
        path = ledger.path
    with open(path, "r+b") as fh:
        fh.truncate(good_size + 7)
    with pytest.warns(UserWarning, match="damaged record"):
        reopened = LeaseLedger(tmp_path)
    assert reopened.damaged == 1
    assert reopened.get(KEY_A) == SUMMARY
    assert not reopened.leases
    # Appends after the repair are clean.
    reopened.complete(KEY_B, SUMMARY, worker="w1")
    reopened.close()
    with LeaseLedger(tmp_path) as third:
        assert third.damaged == 0
        assert third.get(KEY_B) == SUMMARY


def test_compaction_preserves_completions_and_live_leases(tmp_path):
    with LeaseLedger(tmp_path) as ledger:
        for n in range(20):
            key = ("tiny", 7, f"Q{n}", (), 4)
            ledger.claim(key, "w0", pid=os.getpid())
            for _ in range(5):
                ledger.heartbeat(key, "w0")
            ledger.complete(key, SUMMARY, worker="w0")
        ledger.claim(KEY_A, "w1", pid=os.getpid())
        before = os.path.getsize(ledger.path)
        saved = ledger.compact()
        assert saved > 0
        assert os.path.getsize(ledger.path) == before - saved
        # Post-compaction appends land in the new file.
        ledger.complete(KEY_B, SUMMARY, worker="w1")
    with LeaseLedger(tmp_path) as reopened:
        assert len(reopened.completed) == 21
        assert reopened.get(KEY_B) == SUMMARY
        assert reopened.leases[canonical_key(KEY_A)].worker == "w1"


def test_pre_ledger_journal_is_refused_not_ignored(tmp_path):
    # A directory left by a version that kept a completed-points journal:
    # silently starting over would throw that run's progress away.
    legacy = tmp_path / "sweep-checkpoint.rpcj"
    legacy.write_bytes(b"RPCJ")
    with pytest.raises(LedgerError, match="sweep-checkpoint.rpcj.*delete it"):
        LeaseLedger(tmp_path)
    assert not (tmp_path / LEDGER_NAME).exists()
    # Beside a ledger the old file is inert: the ledger is what resumes.
    legacy.unlink()
    with LeaseLedger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY)
    legacy.write_bytes(b"RPCJ")
    with LeaseLedger(tmp_path) as ledger:
        assert ledger.get(KEY_A) == SUMMARY


def test_unwritable_directory_raises_ledger_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the directory should go")
    with pytest.raises(LedgerError):
        LeaseLedger(blocker / "nested")
