"""The sweep ledger: framing, resume identity, damaged-tail repair, the lock.

A checkpoint directory holds one file, the ledger (see
:mod:`repro.core.ledger`).  Its contract: a summary read back from disk is
bit-identical to the one that was completed; the only loss a crash can
produce is a truncated tail, which a reopen repairs without poisoning
later appends; and one live sweep at a time holds the file, until it
closes it or dies.
"""

import os
import signal
import struct
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core.errors import LedgerError
from repro.core.ledger import (
    FORMAT_VERSION,
    LEDGER_NAME,
    MAGIC,
    Ledger,
    canonical_key,
    iter_records,
    pack_record,
)

KEY_A = ("tiny", 42, "Q6", (64, 128, True), 4)
KEY_B = ("tiny", 42, "Q12", (64, 128, True), 4)
SUMMARY_A = {
    "exec_time": 123456,
    "breakdown": {"busy": 0.5, "msync": 0.25, "mem": 0.25},
    "l2_grouped": {"Database": [10, 2], "Meta": [3, 0]},
    "cpu": [{"busy": 100, "msync": 5, "mem": 7, "finish_time": 112}],
}
SUMMARY_B = {"exec_time": 7, "breakdown": {}, "l2_grouped": {}, "cpu": []}


def test_canonical_key_is_tuple_list_agnostic():
    assert canonical_key(KEY_A) == canonical_key(
        ["tiny", 42, "Q6", [64, 128, True], 4])
    assert canonical_key(KEY_A) != canonical_key(KEY_B)


def test_record_framing_round_trips_and_stops_at_damage():
    first = pack_record({"op": "complete", "key": ["a", 1], "summary": {}})
    second = pack_record({"op": "complete", "key": ["b", 2], "summary": {}})
    assert [payload["key"] for _end, payload
            in iter_records(first + second)] == [["a", 1], ["b", 2]]
    # A record cut short, and whatever follows it, is never yielded.
    damaged = first + second[:-3] + first
    assert [end for end, _payload in iter_records(damaged)] == [len(first)]


def test_append_and_reopen_round_trip(tmp_path):
    with Ledger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        ledger.complete(KEY_B, SUMMARY_B)
        assert len(ledger.completed) == 2

    with Ledger(tmp_path) as reopened:
        assert len(reopened.completed) == 2
        assert reopened.damaged == 0
        # Bit-identical resume: the summary survives the JSON round trip
        # exactly, nested floats and all.
        assert reopened.get(KEY_A) == SUMMARY_A
        assert reopened.get(KEY_B) == SUMMARY_B
        assert reopened.get(("tiny", 42, "absent", (), 4)) is None


def test_records_are_complete_only_and_deterministic(tmp_path):
    # One record per point, {op, key, summary} and nothing else: no clock,
    # pid or worker id, so the same results write the same bytes.
    paths = []
    for name in ("one", "two"):
        with Ledger(tmp_path / name) as ledger:
            ledger.complete(KEY_A, SUMMARY_A)
            ledger.complete(KEY_B, SUMMARY_B)
            paths.append(ledger.path)
    data = [open(path, "rb").read() for path in paths]
    assert data[0] == data[1]
    assert [sorted(payload) for _end, payload in iter_records(data[0])] \
        == [["key", "op", "summary"]] * 2


def test_rewritten_key_takes_the_latest_summary(tmp_path):
    with Ledger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        ledger.complete(KEY_A, SUMMARY_B)
    with Ledger(tmp_path) as reopened:
        assert reopened.get(KEY_A) == SUMMARY_B


def test_truncated_tail_is_repaired(tmp_path):
    with Ledger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        good_size = os.path.getsize(ledger.path)
        ledger.complete(KEY_B, SUMMARY_B)
        path = ledger.path

    # Crash mid-append: the second record loses its tail.
    with open(path, "r+b") as fh:
        fh.truncate(good_size + 9)

    with pytest.warns(UserWarning, match="damaged record"):
        reopened = Ledger(tmp_path)
    assert reopened.damaged == 1
    assert reopened.get(KEY_A) == SUMMARY_A
    assert reopened.get(KEY_B) is None
    assert os.path.getsize(path) == good_size
    # The tail was truncated back to the last good record, so appending
    # and reopening again is clean.
    reopened.complete(KEY_B, SUMMARY_B)
    reopened.close()
    with Ledger(tmp_path) as third:
        assert third.damaged == 0
        assert third.get(KEY_B) == SUMMARY_B


def test_damaged_tail_is_repaired(tmp_path):
    # The tail an earlier writer of the format could leave: a lease record
    # cut short mid-append.  Repair drops it like any damaged tail.
    with Ledger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        good_size = os.path.getsize(ledger.path)
        path = ledger.path
    claim = pack_record({"op": "claim", "key": canonical_key(KEY_B),
                         "worker": "w1", "pid": os.getpid(), "t": 1.0,
                         "ttl": 30.0})
    with open(path, "ab") as fh:
        fh.write(claim[:7])
    with pytest.warns(UserWarning, match="damaged record"):
        reopened = Ledger(tmp_path)
    assert reopened.damaged == 1
    assert reopened.get(KEY_A) == SUMMARY_A
    assert set(reopened.completed) == {canonical_key(KEY_A)}
    assert os.path.getsize(path) == good_size
    # Appends after the repair are clean.
    reopened.complete(KEY_B, SUMMARY_B)
    reopened.close()
    with Ledger(tmp_path) as third:
        assert third.damaged == 0
        assert third.get(KEY_B) == SUMMARY_B


def test_corrupted_record_stops_the_load(tmp_path):
    with Ledger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        ledger.complete(KEY_B, SUMMARY_B)
        path = ledger.path

    # Flip a payload byte inside the second record.
    data = bytearray(open(path, "rb").read())
    second = data.index(MAGIC, 4)
    data[second + struct.calcsize("<4sII") + 5] ^= 0x40
    with open(path, "wb") as fh:
        fh.write(bytes(data))

    with pytest.warns(UserWarning, match="damaged record"):
        reopened = Ledger(tmp_path)
    assert reopened.get(KEY_A) == SUMMARY_A
    assert reopened.get(KEY_B) is None
    reopened.close()


def test_version_bump_invalidates_the_record(tmp_path):
    with Ledger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        path = ledger.path
    data = bytearray(open(path, "rb").read())
    struct.pack_into("<I", data, 4, FORMAT_VERSION + 1)
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    with pytest.warns(UserWarning):
        reopened = Ledger(tmp_path)
    assert not reopened.completed
    reopened.close()


def test_pre_ledger_journal_is_refused_not_ignored(tmp_path):
    # A directory left by a version that kept a completed-points journal:
    # silently starting over would throw that run's progress away.
    legacy = tmp_path / "sweep-checkpoint.rpcj"
    legacy.write_bytes(b"RPCJ")
    with pytest.raises(LedgerError, match="sweep-checkpoint.rpcj.*delete it"):
        Ledger(tmp_path)
    assert not (tmp_path / LEDGER_NAME).exists()
    # Beside a ledger the old file is inert: the ledger is what resumes.
    legacy.unlink()
    with Ledger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
    legacy.write_bytes(b"RPCJ")
    with Ledger(tmp_path) as ledger:
        assert ledger.get(KEY_A) == SUMMARY_A


def test_unwritable_directory_raises_ledger_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the directory should go")
    with pytest.raises(LedgerError, match="cannot create ledger directory"):
        Ledger(blocker / "nested")


def test_unwritable_directory_raises_checkpoint_error(tmp_path):
    # End to end: a checkpoint directory that cannot be created stops the
    # sweep with the ledger's typed error before anything is simulated.
    from repro.core import RunConfig, SweepPoint, run_sweep

    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the directory should go")
    config = RunConfig(scale="tiny", checkpoint_dir=str(blocker / "nested"))
    with pytest.raises(LedgerError, match="cannot create ledger directory"):
        run_sweep([SweepPoint(key="p", qid="Q6")], scale="tiny", config=config)


# -- one live sweep per ledger -----------------------------------------------

def test_second_live_driver_is_refused(tmp_path):
    with Ledger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        with pytest.raises(LedgerError, match="held by another live") as info:
            Ledger(tmp_path)
        assert ledger.path in str(info.value)
        # The refused open neither read nor repaired nor wrote anything.
        ledger.complete(KEY_B, SUMMARY_B)
    with Ledger(tmp_path) as reopened:
        assert reopened.damaged == 0
        assert len(reopened.completed) == 2


_HOLDER = textwrap.dedent("""
    import sys, time
    from repro.core.ledger import Ledger
    ledger = Ledger(sys.argv[1])
    print("HELD", flush=True)
    time.sleep(120)
""")


def test_killed_holder_releases_the_lock(tmp_path):
    pkg_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    holder = subprocess.Popen([sys.executable, "-c", _HOLDER, str(tmp_path)],
                              env=env, stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline().strip() == "HELD"
        with pytest.raises(LedgerError, match="held by another live"):
            Ledger(tmp_path)
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=30)
        holder.stdout.close()
    # No takeover step: the kernel dropped the dead holder's lock.
    with Ledger(tmp_path) as ledger:
        assert ledger.damaged == 0
