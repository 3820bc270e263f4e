"""The checkpoint directory's record framing: durability, resume identity,
damaged-tail repair.

A checkpoint directory holds one file, the lease ledger; its lease protocol
is pinned in ``test_ledger.py``.  This file pins the framing contract under
it (see :mod:`repro.core.ledger`): a summary read back from disk is
bit-identical to the one that was completed, and the only loss a crash can
produce is a truncated tail -- which a reopen repairs without poisoning
later appends.
"""

import os
import struct

import pytest

from repro.core.ledger import (
    FORMAT_VERSION,
    MAGIC,
    LeaseLedger,
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
    first = pack_record({"op": "abandon", "key": ["a", 1]})
    second = pack_record({"op": "abandon", "key": ["b", 2]})
    assert [payload["key"] for _end, payload
            in iter_records(first + second)] == [["a", 1], ["b", 2]]
    # A record cut short, and whatever follows it, is never yielded.
    damaged = first + second[:-3] + first
    assert [end for end, _payload in iter_records(damaged)] == [len(first)]


def test_append_and_reopen_round_trip(tmp_path):
    with LeaseLedger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        ledger.complete(KEY_B, SUMMARY_B)
        assert len(ledger.completed) == 2

    reopened = LeaseLedger(tmp_path)
    assert len(reopened.completed) == 2
    assert reopened.damaged == 0
    # Bit-identical resume: the summary survives the JSON round trip
    # exactly, nested floats and all.
    assert reopened.get(KEY_A) == SUMMARY_A
    assert reopened.get(KEY_B) == SUMMARY_B
    assert reopened.get(("tiny", 42, "absent", (), 4)) is None
    reopened.close()


def test_rewritten_key_takes_the_latest_summary(tmp_path):
    with LeaseLedger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        ledger.complete(KEY_A, SUMMARY_B)
    with LeaseLedger(tmp_path) as reopened:
        assert reopened.get(KEY_A) == SUMMARY_B


def test_truncated_tail_is_repaired(tmp_path):
    with LeaseLedger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        good_size = os.path.getsize(ledger.path)
        ledger.complete(KEY_B, SUMMARY_B)
        path = ledger.path

    # Crash mid-append: the second record loses its tail.
    with open(path, "r+b") as fh:
        fh.truncate(good_size + 9)

    with pytest.warns(UserWarning, match="damaged record"):
        reopened = LeaseLedger(tmp_path)
    assert reopened.damaged == 1
    assert reopened.get(KEY_A) == SUMMARY_A
    assert reopened.get(KEY_B) is None
    # The tail was truncated back to the last good record, so appending
    # and reopening again is clean.
    reopened.complete(KEY_B, SUMMARY_B)
    reopened.close()
    third = LeaseLedger(tmp_path)
    assert third.damaged == 0
    assert third.get(KEY_B) == SUMMARY_B
    third.close()


def test_corrupted_record_stops_the_load(tmp_path):
    with LeaseLedger(tmp_path) as ledger:
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
        reopened = LeaseLedger(tmp_path)
    assert reopened.get(KEY_A) == SUMMARY_A
    assert reopened.get(KEY_B) is None
    reopened.close()


def test_version_bump_invalidates_the_record(tmp_path):
    with LeaseLedger(tmp_path) as ledger:
        ledger.complete(KEY_A, SUMMARY_A)
        path = ledger.path
    data = bytearray(open(path, "rb").read())
    struct.pack_into("<I", data, 4, FORMAT_VERSION + 1)
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    with pytest.warns(UserWarning):
        reopened = LeaseLedger(tmp_path)
    assert not reopened.completed
    reopened.close()


def test_unwritable_directory_raises_checkpoint_error(tmp_path):
    # End to end: a checkpoint directory that cannot be created stops the
    # sweep with the ledger's typed error before anything is simulated.
    from repro.core import LedgerError, RunConfig, SweepPoint, run_sweep

    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the directory should go")
    config = RunConfig(scale="tiny", checkpoint_dir=str(blocker / "nested"))
    with pytest.raises(LedgerError, match="cannot create ledger directory"):
        run_sweep([SweepPoint(key="p", qid="Q6")], scale="tiny", config=config)
