"""The worker transport: protocol framing, selection, stdio-only faults.

The compute faults (crash, hang, raise, garbage) are pinned by the matrix
in ``test_sweep_supervisor.py``.  This file covers the rest of the
``repro-sweep-worker`` transport (see :mod:`repro.core.backend`): the
CRC-framed wire protocol, the error codec that crosses it, and the
protocol-level failures -- heartbeat stalls and corrupt result frames --
under which a sweep must still match the serial run bit for bit.
"""

import os

import pytest

from repro.core.backend import (
    FrameBuffer,
    WorkerTransport,
    fabric_stats,
    pack_frame,
    point_from_wire,
    point_to_wire,
    select_transport,
)
from repro.core.errors import (
    LeaseExpired,
    PointTimeout,
    RemoteWorkerError,
    TraceStoreError,
    WorkerError,
    WorkerProtocolError,
    decode_error,
    encode_error,
    is_retryable,
)
from repro.core.faults import ENV_VAR
from repro.core.ledger import LEDGER_NAME, Ledger, pack_record
from repro.core.run import RunConfig
from repro.core.sweep import (
    SweepPoint,
    _point_cache_key,
    clear_variant_cache,
    point_memo_stats,
    run_sweep,
    supervisor_stats,
)
from repro.tpcd.scales import get_scale

SCALE = "tiny"
LINES = (16, 32, 64, 128)


def _points(n):
    return [SweepPoint(key=("Q6", line), qid="Q6",
                       machine={"l1_line": line // 2, "l2_line": line})
            for line in LINES[:n]]


def _workers_config(tmp_path, **overrides):
    options = dict(scale=SCALE, jobs=2,
                   checkpoint_dir=str(tmp_path / "ckpt"), lease_ttl=20.0)
    options.update(overrides)
    return RunConfig(**options)


# -- wire protocol ---------------------------------------------------------

def test_frame_round_trip_and_partial_feed():
    buf = FrameBuffer()
    frame = pack_frame({"op": "result", "index": 3, "summary": {"a": 1}})
    # Byte-at-a-time feeding: no frame until the last byte lands.
    for byte in frame[:-1]:
        buf.feed(bytes([byte]))
        assert buf.next_frame() is None
    buf.feed(frame[-1:])
    assert buf.next_frame() == {"op": "result", "index": 3,
                                "summary": {"a": 1}}
    assert buf.next_frame() is None


def test_two_frames_in_one_feed():
    buf = FrameBuffer()
    buf.feed(pack_frame({"op": "ready"}) + pack_frame({"op": "heartbeat"}))
    assert buf.next_frame() == {"op": "ready"}
    assert buf.next_frame() == {"op": "heartbeat"}


def test_corrupt_payload_byte_raises_protocol_error():
    frame = bytearray(pack_frame({"op": "ready", "pid": 1234}))
    frame[-1] ^= 0x40
    buf = FrameBuffer()
    buf.feed(bytes(frame))
    with pytest.raises(WorkerProtocolError, match="checksum"):
        buf.next_frame()


def test_oversized_length_prefix_raises_protocol_error():
    from repro.core.backend import FRAME_HEADER, MAX_FRAME

    buf = FrameBuffer()
    buf.feed(FRAME_HEADER.pack(MAX_FRAME + 1, 0))
    with pytest.raises(WorkerProtocolError, match="cap"):
        buf.next_frame()


def test_non_op_payload_raises_protocol_error():
    import json
    import zlib

    from repro.core.backend import FRAME_HEADER

    payload = json.dumps([1, 2, 3]).encode()
    buf = FrameBuffer()
    buf.feed(FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
    with pytest.raises(WorkerProtocolError, match="op message"):
        buf.next_frame()


def test_point_wire_round_trip():
    point = SweepPoint(key=("Q6", 128, "node0"), qid="Q6",
                       machine={"l2_line": 128}, n_procs=8, seed_base=3,
                       arena_size=4096, placement="node0",
                       lock_check_per_rescan=False)
    back = point_from_wire(point_to_wire(point))
    assert back == point
    # The wire dict itself must be JSON-safe.
    import json

    assert point_from_wire(
        json.loads(json.dumps(point_to_wire(point)))) == point


# -- error taxonomy across the protocol ------------------------------------

@pytest.mark.parametrize("exc", [
    WorkerError("w died", worker_id="w3", point_key=("Q6", 64), qid="Q6",
                attempts=2),
    WorkerProtocolError("bad frame", worker_id="w1"),
    LeaseExpired("lapsed", worker_id="w2", point_key=("Q6", 32)),
    PointTimeout("too slow", point_key=("Q6", 16), qid="Q6", attempts=3),
    TraceStoreError("bad entry", cause="checksum"),
])
def test_typed_errors_round_trip_the_wire(exc):
    back = decode_error(encode_error(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert is_retryable(back) == is_retryable(exc)
    for attr in ("worker_id", "qid", "attempts", "cause", "point_key"):
        if getattr(exc, attr, None) is not None:
            assert getattr(back, attr) == getattr(exc, attr)


def test_foreign_error_becomes_remote_worker_error():
    back = decode_error(encode_error(ZeroDivisionError("boom")))
    assert isinstance(back, RemoteWorkerError)
    assert back.remote_type == "ZeroDivisionError"
    assert str(back) == "boom"
    assert is_retryable(back)  # foreign errors default retryable


def test_nonretryable_classification_survives_unknown_types():
    class WorkerOnlyFatal(Exception):
        retryable = False

    back = decode_error(encode_error(WorkerOnlyFatal("no point retrying")))
    assert isinstance(back, RemoteWorkerError)
    assert back.remote_type == "WorkerOnlyFatal"
    assert not is_retryable(back)


def test_malformed_error_frame_decodes_to_protocol_error():
    assert isinstance(decode_error(None), WorkerProtocolError)
    assert isinstance(decode_error({"type": "WorkerError"}),
                      WorkerProtocolError)
    assert isinstance(decode_error({"message": "x", "attrs": "junk"}),
                      RemoteWorkerError)


# -- backend selection -----------------------------------------------------

def test_resolve_backend_selection():
    # The worker transport whenever more than one job and more than one
    # point; ``backend`` is only validated and ``workers`` is ignored.
    for backend in ("auto", "inproc", "pool", "workers"):
        config = RunConfig(backend=backend, jobs=2)
        assert select_transport(config, 4) is WorkerTransport
        assert select_transport(RunConfig(backend=backend), 4) is None
        assert select_transport(RunConfig(backend=backend, jobs=4), 1) is None
        assert select_transport(RunConfig(backend=backend, jobs=4), 0) is None
    with pytest.raises(ValueError, match="unknown sweep backend"):
        select_transport(RunConfig(backend="mainframe"), 4)


# -- the transport end to end ----------------------------------------------

@pytest.fixture(scope="module")
def serial3():
    """The jobs=1 ground truth for the first three sweep points."""
    return run_sweep(_points(3), scale=SCALE, jobs=1)


def _workers(points, tmp_path, **overrides):
    clear_variant_cache()  # force the points through the workers
    return run_sweep(points, scale=SCALE,
                     config=_workers_config(tmp_path, **overrides))


def test_workers_backend_matches_serial(tmp_path, serial3):
    before = {**fabric_stats(), **supervisor_stats()}
    result = _workers(_points(3), tmp_path)
    moved = {k: v - before[k]
             for k, v in {**fabric_stats(), **supervisor_stats()}.items()}
    assert result == serial3
    assert moved["spawns"] == 2
    assert moved["corrupt_frames"] == 0
    # A clean sweep replaces no worker: the first wave is not a respawn.
    assert moved["respawns"] == moved["deaths"] == moved["degraded"] == 0
    # The ledger holds every summary.
    with Ledger(tmp_path / "ckpt") as ledger:
        assert len(ledger.completed) == 3


def test_sweep_results_independent_of_jobs():
    """One sweep, three worker counts, one answer.  With per-point futures
    there is no chunking: any split of points over workers must reproduce
    the serial summaries bit for bit, including when points outnumber the
    pool and the submission window has to cycle."""
    points = _points(4)
    serial = run_sweep(points, scale=SCALE, jobs=1)
    for jobs in (2, 3):
        clear_variant_cache()   # force the points through the pool
        assert run_sweep(points, scale=SCALE, jobs=jobs) == serial


def test_workers_backend_survives_faults(monkeypatch, tmp_path, serial3):
    # One worker kill, one corrupt result frame, one heartbeat stall --
    # every protocol-level failure mode in one sweep.
    monkeypatch.setenv(ENV_VAR, "crash@0,wcorrupt@1,wstall@2")
    before = fabric_stats()
    result = _workers(_points(3), tmp_path, lease_ttl=0.5, retries=2)
    after = fabric_stats()
    assert result == serial3
    assert after["deaths"] > before["deaths"]
    assert after["corrupt_frames"] > before["corrupt_frames"]
    assert after["stale"] > before["stale"]


def test_workers_backend_seeded_chaos_is_bit_identical(
        monkeypatch, tmp_path, serial3):
    monkeypatch.setenv(ENV_VAR, "chaos@42*40")
    result = _workers(_points(3), tmp_path, lease_ttl=0.5, retries=2)
    assert result == serial3


def test_stale_lease_requeued_exactly_once_on_resume(tmp_path, serial3):
    """The serial cell of the supervisor matrix's stale-lease case: the
    resume itself happens in ``run_sweep``, transport or no.  A claimed,
    heartbeating point in a version-1 ledger is not finished, so it runs
    exactly once; a further resume runs nothing."""
    points = _points(3)
    keys = [_point_cache_key(p, get_scale(SCALE), 42) for p in points]
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    records = [
        {"op": "complete", "key": keys[0], "worker": "w0", "t": 1.0,
         "summary": serial3[points[0].key]},
        {"op": "claim", "key": keys[1], "worker": "w1",
         "pid": 2 ** 22 + 999, "t": 2.0, "ttl": 30.0},
        {"op": "heartbeat", "key": keys[1], "worker": "w1", "t": 3.0},
    ]
    (ckpt / LEDGER_NAME).write_bytes(b"".join(pack_record(r) for r in records))
    config = RunConfig(scale=SCALE, checkpoint_dir=str(ckpt))

    def resume():
        clear_variant_cache()
        before = {**supervisor_stats(), **point_memo_stats()}
        result = run_sweep(points, scale=SCALE, config=config)
        after = {**supervisor_stats(), **point_memo_stats()}
        return result, {k: after[k] - before[k] for k in ("resumed", "misses")}

    result, moved = resume()
    assert result == serial3
    assert moved["resumed"] == 1
    assert moved["misses"] == len(points) - moved["resumed"]

    result, moved = resume()
    assert result == serial3
    assert moved["resumed"] == 3 and moved["misses"] == 0
    with Ledger(ckpt) as ledger:
        assert all(ledger.get(k) is not None for k in keys)


def test_interrupted_workers_ledger_resumes_in_process(tmp_path, serial3):
    """Cross-width resume: a ledger left by a jobs=2 run is honoured by a
    plain serial resume in the same checkpoint dir."""
    points = _points(2)
    scale = get_scale(SCALE)
    ckpt = tmp_path / "ckpt"
    with Ledger(ckpt) as ledger:
        ledger.complete(_point_cache_key(points[0], scale, 42),
                        serial3[points[0].key])
    clear_variant_cache()
    result = run_sweep(points, scale=SCALE,
                       config=RunConfig(scale=SCALE,
                                        checkpoint_dir=str(ckpt)))
    assert result == {p.key: serial3[p.key] for p in points}
    assert os.listdir(ckpt) == ["sweep-ledger.rpll"]
