"""Persistent trace store: round trips, damage detection, fallback.

The store's contract (see :mod:`repro.core.tracestore`) is that a loaded
trace is indistinguishable from the recording it came from, and that any
damaged or incompatible entry behaves as "not stored": the cache re-records
instead of ever replaying corrupt data.
"""

import os
import struct
import subprocess
import sys
import zlib
from array import array

import pytest

from repro.core.errors import TraceStoreWarning
from repro.core.experiment import workload_trace_cache
from repro.core.tracecache import QueryTrace, TraceCache
from repro.core.tracestore import (
    FORMAT_VERSION,
    MAGIC,
    TraceStoreError,
    clean_stale_temps,
    corruption_stats,
    decode_trace,
    encode_trace,
    load_trace,
    save_trace,
    store_key,
    trace_filename,
)
from repro.db.shmem import shared_home_fn
from repro.memsim.batch import HAVE_NUMPY
from repro.memsim.interleave import Interleaver
from repro.memsim.numa import NumaMachine
from repro.memsim.stats import MachineStats
from repro.tpcd.queries import QUERY_IDS
from repro.tpcd.scales import get_scale

SCALE = "tiny"

_COLUMNS = ("kinds", "a", "b", "c", "d", "e")


def _key(qid, seed=0, node=0):
    scale = get_scale(SCALE)
    return store_key(scale.name, 42, qid, seed, node, scale.arena_size, True)


def _trace(qid, seed=0, node=0):
    return workload_trace_cache(SCALE).get(qid, seed, node)


def assert_traces_equal(decoded, original):
    for name in _COLUMNS:
        assert getattr(decoded, name) == getattr(original, name), name
    assert decoded.lock_ids == original.lock_ids
    assert decoded.rows == original.rows
    assert decoded.n_source_events == original.n_source_events


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_round_trip_all_queries(qid):
    """All 17 TPC-D queries: encode -> decode reproduces every column,
    the lock table, and the result rows."""
    trace = _trace(qid)
    key = _key(qid)
    decoded, decoded_key = decode_trace(encode_trace(key, trace))
    assert decoded_key == key
    assert_traces_equal(decoded, trace)


def test_save_load_round_trip(tmp_path):
    trace = _trace("Q6")
    key = _key("Q6")
    written = save_trace(tmp_path, key, trace)
    assert written > 0
    loaded, nbytes = load_trace(tmp_path, key)
    assert nbytes == written
    assert_traces_equal(loaded, trace)


def _wide_copy(trace):
    """``trace`` with 64-bit ``a``/``b`` (``'q'``) and ``d``/``e``
    (``'l'``) columns, the widths every store entry was written with
    before the encoder narrowed them to 32 bits."""
    wide = QueryTrace()
    wide.kinds, wide.c = trace.kinds[:], trace.c[:]
    wide.a, wide.b = array("q", trace.a), array("q", trace.b)
    wide.d, wide.e = array("l", trace.d), array("l", trace.e)
    wide.lock_ids = list(trace.lock_ids)
    wide.rows = trace.rows
    wide.n_source_events = trace.n_source_events
    return wide


def _replay(traces, kernel):
    """Machine counters and per-CPU accounting of one replay."""
    machine = NumaMachine(get_scale(SCALE).machine_config(),
                          home_fn=shared_home_fn())
    run = Interleaver(machine).run_traces(traces, kernel=kernel)
    return ({name: getattr(machine.stats, name)
             for name in MachineStats.__slots__},
            [(s.busy, s.msync, list(s.mem_by_class), s.finish_time)
             for s in run.cpu_stats])


def test_wide_column_store_loads_and_replays_identically(tmp_path):
    """An entry written with 64-bit columns loads at its stored widths
    and replays bit-identically to the 32-bit recording under every
    kernel: readers take each column's own typecode."""
    narrow = [_trace("Q6", seed=i, node=i) for i in range(4)]
    assert {narrow[0].a.typecode, narrow[0].d.typecode} == {"I"}
    loaded = []
    for i, trace in enumerate(narrow):
        save_trace(tmp_path, _key("Q6", i, i), _wide_copy(trace))
        wide, _ = load_trace(tmp_path, _key("Q6", i, i))
        assert [getattr(wide, c).typecode for c in "abde"] == [
            "q", "q", "l", "l"]
        assert_traces_equal(wide, trace)
        loaded.append(wide)
    kernels = ["scalar"] + (["batched", "horizon"] if HAVE_NUMPY else [])
    for kernel in kernels:
        assert _replay(loaded, kernel) == _replay(narrow, kernel), kernel


def test_stored_key_peek_and_filename():
    trace = _trace("Q6")
    key = _key("Q6")
    assert decode_trace(encode_trace(key, trace))[1] == key
    name = trace_filename(key)
    assert name.endswith(".trace")
    assert "Q6" in name


def test_wrong_key_is_rejected():
    blob = encode_trace(_key("Q6"), _trace("Q6"))
    with pytest.raises(TraceStoreError):
        decode_trace(blob, expect_key=_key("Q6", seed=1))


def test_truncated_blob_is_rejected():
    blob = encode_trace(_key("Q6"), _trace("Q6"))
    for cut in (3, 10, len(blob) // 2, len(blob) - 1):
        with pytest.raises(TraceStoreError):
            decode_trace(blob[:cut])


def test_flipped_byte_is_rejected():
    blob = bytearray(encode_trace(_key("Q6"), _trace("Q6")))
    blob[len(blob) // 2] ^= 0x40
    with pytest.raises(TraceStoreError):
        decode_trace(bytes(blob))


def test_version_bump_is_rejected():
    blob = bytearray(encode_trace(_key("Q6"), _trace("Q6")))
    struct.pack_into("<I", blob, 4, FORMAT_VERSION + 1)
    with pytest.raises(TraceStoreError):
        decode_trace(bytes(blob))
    assert blob[:4] == MAGIC


def _fresh_cache(trace_dir):
    """A read-through cache over the shared tiny database (own memo)."""
    shared = workload_trace_cache(SCALE)
    return TraceCache(shared.db, SCALE, trace_dir=str(trace_dir), db_seed=42)


def test_read_through_loads_instead_of_recording(tmp_path):
    first = _fresh_cache(tmp_path)
    trace = first.get("Q6", 0, 0)
    assert first.records == 1 and first.loads == 0
    assert first.bytes_written > 0

    second = _fresh_cache(tmp_path)
    loaded = second.get("Q6", 0, 0)
    assert second.records == 0 and second.loads == 1
    assert second.bytes_read > 0
    assert_traces_equal(loaded, trace)


@pytest.mark.parametrize("damage", ["truncate", "flip", "version",
                                    "version1", "typecode"])
def test_damaged_store_entry_falls_back_to_recording(tmp_path, damage):
    """A truncated, bit-flipped, version-bumped, version-1 (payload-only
    CRC), or unknown-typecode file re-records cleanly."""
    first = _fresh_cache(tmp_path)
    trace = first.get("Q6", 0, 0)

    path = tmp_path / trace_filename(_key("Q6"))
    blob = bytearray(path.read_bytes())
    if damage == "truncate":
        blob = blob[:len(blob) // 3]
    elif damage == "flip":
        blob[len(blob) - 7] ^= 0x01
    elif damage == "typecode":
        blob = bytearray(blob.replace(b'["a","I"', b'["a","Z"', 1))
        _restamp_crc(blob)  # so the load reaches the typecode check
    elif damage == "version1":
        struct.pack_into("<I", blob, 4, 1)
    else:
        struct.pack_into("<I", blob, 4, FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))

    second = _fresh_cache(tmp_path)
    recorded = second.get("Q6", 0, 0)
    assert second.records == 1 and second.loads == 0
    assert_traces_equal(recorded, trace)
    # The re-recording overwrote the damaged entry with a good copy.
    third = _fresh_cache(tmp_path)
    third.get("Q6", 0, 0)
    assert third.loads == 1 and third.records == 0


def _restamp_crc(blob):
    """Rewrite ``blob``'s prefix CRC to match its (edited) contents."""
    struct.pack_into("<I", blob, 12, zlib.crc32(blob[16:]))


def test_header_bit_flip_fails_the_checksum(tmp_path):
    """The CRC covers the JSON header: a flipped bit in the lock-id table
    (``LockMgrLock`` -> ``LnckMgrLock``, still valid JSON) is damage, not a
    silently renamed lock."""
    key = _key("Q6")
    trace = _trace("Q6")
    assert "LockMgrLock" in trace.lock_ids
    save_trace(tmp_path, key, trace)
    path = tmp_path / trace_filename(key)
    blob = bytearray(path.read_bytes())
    at = blob.index(b'"LockMgrLock"') + 2
    blob[at] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceStoreError) as info:
        load_trace(tmp_path, key, strict=True)
    assert info.value.cause == "checksum"

    cache = _fresh_cache(tmp_path)
    with pytest.warns(TraceStoreWarning):
        recorded = cache.get("Q6", 0, 0)
    assert cache.records == 1 and cache.loads == 0
    assert_traces_equal(recorded, trace)


def test_store_entries_are_keyed_by_database_seed(tmp_path):
    """A trace stored for one database seed never serves another."""
    _fresh_cache(tmp_path).get("Q6", 0, 0)
    shared = workload_trace_cache(SCALE)
    other = TraceCache(shared.db, SCALE, trace_dir=str(tmp_path), db_seed=7)
    other.get("Q6", 0, 0)
    assert other.loads == 0 and other.records == 1
    again = _fresh_cache(tmp_path)
    again.get("Q6", 0, 0)
    assert again.loads == 1 and again.records == 0


def test_lazy_database_stays_unbuilt_on_warm_store(tmp_path):
    """A store-warmed cache never materializes its database."""
    seed_cache = _fresh_cache(tmp_path)
    seed_cache.get("Q6", 0, 0)

    calls = []

    def build():
        calls.append(1)
        return workload_trace_cache(SCALE).db

    lazy = TraceCache(build, SCALE, trace_dir=str(tmp_path), db_seed=42,
                      lock_check_per_rescan=True)
    lazy.get("Q6", 0, 0)
    assert lazy.loads == 1 and not calls
    # A miss beyond the store finally pays for the build.
    lazy.get("Q6", 5, 0)
    assert lazy.records == 1 and len(calls) == 1


# -- failure-path visibility ------------------------------------------------

def _damage_entry(tmp_path):
    """A stored Q6 trace with one payload byte flipped; returns its key."""
    key = _key("Q6")
    save_trace(tmp_path, key, _trace("Q6"))
    path = tmp_path / trace_filename(key)
    blob = bytearray(path.read_bytes())
    blob[len(blob) - 7] ^= 0x01
    path.write_bytes(bytes(blob))
    return key


def test_damaged_load_warns_and_counts(tmp_path):
    key = _damage_entry(tmp_path)
    before = corruption_stats()
    with pytest.warns(TraceStoreWarning, match="damaged trace store entry"):
        assert load_trace(tmp_path, key) is None
    after = corruption_stats()
    assert after["corrupt"] == before["corrupt"] + 1
    assert (after["by_cause"].get("checksum", 0)
            == before["by_cause"].get("checksum", 0) + 1)


def test_rerecords_count_unique_points_not_attempts(tmp_path):
    # The old --time accounting counted one re-record per *attempt*: a
    # damaged entry hit again on retry inflated the total.  The registry
    # keys re-records by store key, so repeated damage on the same point
    # counts once while every corruption event still counts.
    key = _damage_entry(tmp_path)
    before = corruption_stats()
    with pytest.warns(TraceStoreWarning):
        assert load_trace(tmp_path, key) is None
    # Same damaged point, second attempt (a retried sweep point re-reads
    # the store before it re-records).
    _damage_entry(tmp_path)
    with pytest.warns(TraceStoreWarning):
        assert load_trace(tmp_path, key) is None
    after = corruption_stats()
    assert after["corrupt"] == before["corrupt"] + 2
    assert after["rerecords"] == before["rerecords"] + 1


def test_missing_entry_is_a_silent_miss(tmp_path):
    import warnings

    before = corruption_stats()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_trace(tmp_path, _key("Q6")) is None
    assert corruption_stats()["corrupt"] == before["corrupt"]


def test_strict_mode_raises_instead_of_falling_back(tmp_path):
    key = _damage_entry(tmp_path)
    with pytest.raises(TraceStoreError):
        load_trace(tmp_path, key, strict=True)
    # A cache opened strict (RunConfig.strict_store) has the same effect;
    # one opened with the default falls back with a warning.
    shared = workload_trace_cache(SCALE)
    strict = TraceCache(shared.db, SCALE, trace_dir=str(tmp_path),
                        db_seed=42, strict_store=True)
    with pytest.raises(TraceStoreError):
        strict.get("Q6", 0, 0)
    with pytest.warns(TraceStoreWarning):
        assert _fresh_cache(tmp_path).get("Q6", 0, 0) is not None


def _dead_pid():
    """A pid guaranteed not to be running: a just-reaped child's."""
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


def test_clean_stale_temps_removes_only_dead_writers(tmp_path):
    dead = tmp_path / f"a.trace.tmp.{_dead_pid()}"
    mine = tmp_path / f"b.trace.tmp.{os.getpid()}"
    alive = tmp_path / f"c.trace.tmp.{os.getppid()}"
    old_junk = tmp_path / "d.trace.tmp.notapid"
    fresh_junk = tmp_path / "e.trace.tmp.alsonotapid"
    for path in (dead, mine, alive, old_junk, fresh_junk):
        path.write_bytes(b"partial write")
    os.utime(old_junk, (0, 0))

    before = corruption_stats()["stale_tmp_removed"]
    assert clean_stale_temps(tmp_path) == 2
    assert corruption_stats()["stale_tmp_removed"] == before + 2
    assert not dead.exists() and not old_junk.exists()
    assert mine.exists() and alive.exists() and fresh_junk.exists()


def test_crashed_writer_never_corrupts_the_live_entry(tmp_path):
    """An atomic-write temp file abandoned by a crashed writer sits beside
    the live entry; opening the store sweeps it and the entry loads
    intact."""
    first = _fresh_cache(tmp_path)
    trace = first.get("Q6", 0, 0)
    leftover = tmp_path / (trace_filename(_key("Q6")) + f".tmp.{_dead_pid()}")
    leftover.write_bytes(b"half a trace, interrupted mid-write")

    second = _fresh_cache(tmp_path)   # opening the dir sweeps stale temps
    assert not leftover.exists()
    loaded = second.get("Q6", 0, 0)
    assert second.loads == 1 and second.records == 0
    assert_traces_equal(loaded, trace)


# -- concurrent-writer read races ------------------------------------------

def test_writer_racing_detects_only_live_foreign_writers(tmp_path):
    from repro.core.tracestore import _writer_racing

    entry = tmp_path / trace_filename(_key("Q6"))
    entry.write_bytes(b"whatever")
    assert not _writer_racing(str(entry))

    (tmp_path / (entry.name + f".tmp.{_dead_pid()}")).write_bytes(b"x")
    (tmp_path / (entry.name + f".tmp.{os.getpid()}")).write_bytes(b"x")
    (tmp_path / (entry.name + ".tmp.notapid")).write_bytes(b"x")
    assert not _writer_racing(str(entry))   # dead, own, junk: no race

    (tmp_path / (entry.name + f".tmp.{os.getppid()}")).write_bytes(b"x")
    assert _writer_racing(str(entry))       # a live foreign writer


def test_read_race_retries_once_and_counts_read_races(tmp_path, monkeypatch):
    """A checksum failure that coincides with a live writer's temp file is
    a torn read, not damage: the entry is re-read once, and the success is
    counted under ``store.read_races`` -- the corruption counters stay
    untouched, strict mode included."""
    import repro.core.tracestore as ts

    trace = _trace("Q6")
    key = _key("Q6")
    save_trace(tmp_path, key, trace)
    path = tmp_path / trace_filename(key)
    good = path.read_bytes()
    torn = bytearray(good)
    torn[len(torn) // 2] ^= 0x40
    path.write_bytes(bytes(torn))

    def writer_lands(p):
        # The concurrent writer's os.replace settles between the failed
        # read and the retry.
        path.write_bytes(good)
        return True

    monkeypatch.setattr(ts, "_writer_racing", writer_lands)
    before = corruption_stats()
    loaded, nbytes = load_trace(tmp_path, key, strict=True)
    after = corruption_stats()
    assert_traces_equal(loaded, trace)
    assert nbytes == len(good)
    assert after["read_races"] == before["read_races"] + 1
    assert after["corrupt"] == before["corrupt"]
    assert after["rerecords"] == before["rerecords"]


def test_read_race_retry_failure_is_real_damage(tmp_path):
    """If the retry still fails, the entry is damaged for real: normal
    corruption accounting applies even with a live writer sibling."""
    trace = _trace("Q6")
    key = _key("Q6")
    save_trace(tmp_path, key, trace)
    path = tmp_path / trace_filename(key)
    torn = bytearray(path.read_bytes())
    torn[len(torn) // 2] ^= 0x40
    path.write_bytes(bytes(torn))
    (tmp_path / (path.name + f".tmp.{os.getppid()}")).write_bytes(b"x")

    before = corruption_stats()
    with pytest.warns(TraceStoreWarning, match="damaged trace store entry"):
        assert load_trace(tmp_path, key) is None
    after = corruption_stats()
    assert after["corrupt"] == before["corrupt"] + 1
    assert after["read_races"] == before["read_races"]
