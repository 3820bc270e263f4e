"""Sweep execution: one supervisor over ``repro-sweep-worker`` subprocesses.

:func:`repro.core.sweep.run_sweep` computes *what* must run (the memo and
ledger misses); this module runs it when more than one process is wanted.
:func:`supervise` is the only scheduler: it alone decides what a failure
costs a point (one attempt, exponential backoff, requeue), when a point
stops being retried (the retry budget is spent, or
:func:`~repro.core.errors.is_retryable` says retrying is pointless) and
runs in the parent instead, when a point has hung (the per-point timeout),
whether a result is a summary at all, how many workers a sweep may spawn
before the whole transport is given up on, and when the checkpoint
directory's ledger (:mod:`repro.core.ledger`) records a point -- once,
durably, when its result is accepted.
Summaries are plain JSON-safe dicts and every point is deterministic, so no
recovery path can change a result, only its latency.

Beneath it a *transport* owns only how a worker process is reached --
``start(want, budget)``, ``alive``, ``free_slots()``, ``submit(i,
attempt, point)``, ``poll(tick)``, ``kill(i)``, ``close()`` -- and
reports what happened to each submitted point as ``(kind, index,
payload)`` events: ``result`` (the returned object), ``error`` (the worker
raised; the exception), ``lost`` (the transport lost the point: an
exception to charge it with, or ``None`` for collateral that retries
free).  The one transport, :class:`WorkerTransport`, runs
``repro-sweep-worker`` subprocesses (:mod:`repro.core.worker`) that speak
a length-prefixed JSON protocol over their stdio pipes and fetch traces
*by store key* from a spool directory -- nothing bigger than a key crosses
the pipe, and no trace array is ever pickled onto it.  Workers are fresh
interpreters running ``python -m repro.core.worker``, so a caller's
``__main__`` module is never re-imported in them.  A dead worker (EOF), a
corrupt frame (CRC mismatch; the stream past the damage is
unsynchronized, so the worker is discarded) or heartbeat silence past
``lease_ttl`` seconds (a stall or partition, detected with the parent's
monotonic clock) loses one point; a kill takes one worker.  A worker
spawned to replace a lost one is a *respawn*.

Frame format (little-endian)::

    bytes 0..3   payload length P (u32)
    bytes 4..7   CRC-32 of the payload (u32)
    bytes 8..    payload: UTF-8 JSON, P bytes

Parent -> worker ops: ``init``, ``run``, ``shutdown``.
Worker -> parent ops: ``ready``, ``heartbeat``, ``result``, ``error``.

All of it is deterministic to exercise: :mod:`repro.core.faults` fires
crashes, hangs, raises and garbage inside the workers by ``(point index,
attempt)`` coordinate, plus the protocol kinds
(``wstall``/``wpartition``/``wcorrupt``) and seeded chaos.
"""

import json
import os
import selectors
import shutil
import struct
import subprocess
import sys
import tempfile
import time
import warnings
import zlib

from repro.core.errors import (
    InvalidPointResult, LeaseExpired, PointFailure, PointTimeout,
    WorkerError, WorkerProtocolError, decode_error, is_retryable,
)
from repro.core.sweep import (
    _POINT_SECONDS_BUCKETS, _needed_traces, _point_cache_key, _store_keys,
    _sup_count, _trace_for, _valid_summary, run_point,
)
from repro.core.tracestore import save_trace, trace_filename
from repro.obs import events as obs_events
from repro.obs.metrics import registry
from repro.obs.spans import span

#: Frame header: payload length, CRC-32 of the payload.
FRAME_HEADER = struct.Struct("<II")

#: Upper bound on one frame's payload; a longer length prefix is damage.
MAX_FRAME = 16 << 20

#: ``fabric_stats`` key -> registry counter name.
_FABRIC_METRICS = {
    "spawns": "sweep.worker.spawns",
    "deaths": "sweep.worker.deaths",
    "stale": "sweep.worker.stale",
    "corrupt_frames": "sweep.backend.corrupt_frames",
    "degraded": "sweep.backend.degraded",
}


def fabric_stats():
    """Transport health counters (views over the metrics registry):
    worker spawns/deaths, stale-heartbeat kills, corrupt protocol frames
    and whole-transport degradations."""
    reg = registry()
    return {key: reg.value(name) for key, name in _FABRIC_METRICS.items()}


def _heartbeat_interval(lease_ttl):
    """Seconds between a worker's liveness signals, for a heartbeat-silence
    limit of ``lease_ttl``."""
    return max(0.05, min(1.0, lease_ttl / 4.0))


# -- wire protocol ---------------------------------------------------------

def pack_frame(obj):
    """Frame one JSON-able message for the worker pipe."""
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class FrameBuffer:
    """Reassemble protocol frames from a byte stream.

    :meth:`next_frame` returns one decoded message dict, ``None`` when
    more bytes are needed, and raises :class:`WorkerProtocolError` on
    damage (oversized length prefix, CRC mismatch, undecodable payload)
    -- after which the stream is unsynchronized and the peer must be
    discarded.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data):
        self._buf.extend(data)

    def next_frame(self):
        buf = self._buf
        if len(buf) < FRAME_HEADER.size:
            return None
        length, crc = FRAME_HEADER.unpack_from(buf)
        if length > MAX_FRAME:
            raise WorkerProtocolError(
                f"frame length {length} exceeds the {MAX_FRAME}-byte cap")
        end = FRAME_HEADER.size + length
        if len(buf) < end:
            return None
        payload = bytes(buf[FRAME_HEADER.size:end])
        del buf[:end]
        if zlib.crc32(payload) != crc:
            raise WorkerProtocolError("frame checksum mismatch")
        try:
            obj = json.loads(payload.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise WorkerProtocolError(
                f"undecodable frame payload: {exc}") from None
        if not isinstance(obj, dict) or "op" not in obj:
            raise WorkerProtocolError("frame payload is not an op message")
        return obj


def point_to_wire(point):
    """A :class:`~repro.core.sweep.SweepPoint` as a JSON-safe dict."""
    return dict(vars(point), machine=dict(point.machine))


def point_from_wire(data):
    """Rebuild a :class:`~repro.core.sweep.SweepPoint` from the wire dict
    (JSON turns a tuple key into a list; it is turned back)."""
    from repro.core.sweep import SweepPoint

    key = data.get("key")
    return SweepPoint(**dict(
        data, key=tuple(key) if isinstance(key, list) else key))


# -- the workers transport -------------------------------------------------

class _WorkerProc:
    """Parent-side handle on one ``repro-sweep-worker`` subprocess."""

    def __init__(self, wid, proc):
        self.id = wid
        self.proc = proc
        self.buf = FrameBuffer()
        self.ready = False
        self.task = None          # index of the point it holds
        self.last_seen = time.monotonic()

    def send(self, obj):
        self.proc.stdin.write(pack_frame(obj))
        self.proc.stdin.flush()

    def kill(self):
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.kill()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except Exception:
            pass


class WorkerTransport:
    """``repro-sweep-worker`` subprocesses on stdio pipes (module docstring).

    All state is instance-local (nothing module-global is written), the
    parent's clocks are monotonic, and every worker transition emits an obs
    event -- ``--progress`` renders the workers' health live.  At most
    ``config.jobs`` workers run at once, never more than the points, and
    each replays on ``config.kernel``.
    """

    name = "workers"

    #: Grace multiplier for a worker that has not said ``ready`` yet
    #: (interpreter start-up is slower than any heartbeat interval).
    INIT_GRACE = 15.0

    def __init__(self, todo, scale, seed, config):
        self.todo = todo
        self.scale = scale
        self.seed = seed
        self.kernel = config.kernel
        self.capacity = min(len(todo), config.jobs)
        self.lease_ttl = float(config.lease_ttl or 30.0)
        self.workers = {}
        self._events = []
        self._next_wid = 0
        self._lost = 0            # dead workers not yet replaced
        self._spool_traces(config)
        self.sel = selectors.DefaultSelector()

    def _spool_traces(self, config):
        """Make every needed trace loadable by store key.

        The spool is ``config``'s trace store when it has one (the traces
        are already, or become, regular store entries); otherwise a
        directory under its checkpoint dir, or a private temp dir.  The
        workers receive only the keys -- ship-by-hash, never pickled
        arrays.
        """
        self._spool = config.trace_dir
        self._own_spool = False
        if self._spool is None and config.checkpoint_dir is not None:
            self._spool = os.path.join(config.checkpoint_dir, "trace-spool")
        elif self._spool is None:
            self._spool = tempfile.mkdtemp(prefix="repro-spool-")
            self._own_spool = True
        with span("spool", points=len(self.todo)):
            for skey in _needed_traces(self.todo, self.scale, self.seed):
                path = os.path.join(self._spool, trace_filename(skey))
                if not os.path.exists(path):
                    save_trace(self._spool, skey,
                               _trace_for(self.scale, skey, config))

    # -- the transport interface -------------------------------------------

    @property
    def alive(self):
        return len(self.workers)

    def start(self, want, budget):
        missing = min(self.capacity, want) - len(self.workers)
        spawned = max(0, min(missing, budget))
        for _ in range(spawned):
            if not self._lost:
                self._spawn_one()
                continue
            with span("worker-respawn"):
                wid = self._spawn_one()
            if wid is not None:
                self._lost -= 1
                _sup_count("respawns")
                obs_events.emit("worker.respawn", worker=wid)
        return spawned

    def free_slots(self):
        return sum(1 for w in self.workers.values()
                   if w.ready and w.task is None)

    def submit(self, i, attempt, point):
        w = next(w for _wid, w in sorted(self.workers.items())
                 if w.ready and w.task is None)
        keys = _store_keys(point, self.scale, self.seed)
        try:
            w.send({"op": "run", "index": i, "attempt": attempt,
                    "point": point_to_wire(point),
                    "trace_keys": [list(skey) for skey in keys]})
        except OSError as exc:
            self._events.append(("lost", i, None))
            self._worker_died(w, f"write failed: {exc}")
            return
        w.task = i
        w.last_seen = time.monotonic()

    def poll(self, tick):
        idle = not self._events and self.workers
        for key, _mask in self.sel.select(timeout=tick if idle else 0):
            w = key.data
            if w.id not in self.workers:
                continue
            try:
                data = os.read(key.fileobj.fileno(), 1 << 16)
            except BlockingIOError:
                continue
            except OSError:
                data = b""
            if not data:
                self._worker_died(w, "stdout closed")
                continue
            w.buf.feed(data)
            self._drain_frames(w)
        self._check_health()
        events, self._events = self._events, []
        return events

    def kill(self, i):
        self._events = [e for e in self._events if e[1] != i]
        for w in list(self.workers.values()):
            if w.task == i:
                w.task = None
                self._worker_died(w, "point timeout")

    def close(self):
        for wid in sorted(self.workers):
            w = self.workers[wid]
            try:
                w.send({"op": "shutdown"})
                w.proc.stdin.close()
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 2.0
        for wid in sorted(self.workers):
            w = self.workers[wid]
            try:
                w.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except Exception:
                pass
            w.kill()
        self.workers.clear()
        self.sel.close()
        if self._own_spool:
            shutil.rmtree(self._spool, ignore_errors=True)

    # -- spawning ----------------------------------------------------------

    def _spawn_one(self):
        """Start one worker; its id, or ``None`` if it could not start."""
        import repro

        wid = f"w{self._next_wid}"
        self._next_wid += 1
        env = dict(os.environ)
        pkg_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = pkg_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.core.worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                bufsize=0, env=env)
        except OSError as exc:
            obs_events.emit("worker.spawn_failed", worker=wid,
                            error=str(exc))
            return None
        w = _WorkerProc(wid, proc)
        try:
            w.send({"op": "init", "worker": wid, "scale": self.scale.name,
                    "seed": self.seed, "store_dir": self._spool,
                    "heartbeat": _heartbeat_interval(self.lease_ttl),
                    "lease_ttl": self.lease_ttl, "kernel": self.kernel})
        except OSError as exc:
            obs_events.emit("worker.spawn_failed", worker=wid,
                            error=str(exc))
            w.kill()
            return None
        self.workers[wid] = w
        os.set_blocking(proc.stdout.fileno(), False)
        self.sel.register(proc.stdout, selectors.EVENT_READ, w)
        registry().counter("sweep.worker.spawns").inc()
        obs_events.emit("worker.spawn", worker=wid, pid=proc.pid)
        return wid

    # -- event pump --------------------------------------------------------

    def _drain_frames(self, w):
        while w.id in self.workers:
            try:
                frame = w.buf.next_frame()
            except WorkerProtocolError as exc:
                registry().counter("sweep.backend.corrupt_frames").inc()
                obs_events.emit("frame.corrupt", worker=w.id,
                                error=str(exc))
                self._worker_died(w, f"protocol damage: {exc}", exc=exc)
                return
            if frame is None:
                return
            self._dispatch(w, frame)

    def _dispatch(self, w, frame):
        op = frame.get("op")
        w.last_seen = time.monotonic()
        if op == "ready":
            w.ready = True
            obs_events.emit("worker.ready", worker=w.id,
                            pid=frame.get("pid"))
        elif op in ("result", "error"):
            if w.task is None or frame.get("index") != w.task:
                self._worker_died(
                    w, "answer for a point it does not hold",
                    exc=WorkerProtocolError(
                        f"worker {w.id} answered for point "
                        f"{frame.get('index')!r} while holding {w.task!r}",
                        worker_id=w.id))
                return
            i, w.task = w.task, None
            self._events.append(
                ("result", i, frame.get("summary")) if op == "result"
                else ("error", i, decode_error(frame.get("error"))))
        # Heartbeats only refresh last_seen.  Unknown ops are tolerated:
        # newer workers may add informational frames, and the CRC already
        # vouches for the bytes.

    # -- failure handling --------------------------------------------------

    def _worker_died(self, w, why, exc=None):
        """Discard ``w``; the point it held (if any) is lost and charged
        with ``exc`` (default: a :class:`WorkerError` saying ``why``)."""
        if w.id not in self.workers:
            return
        del self.workers[w.id]
        try:
            self.sel.unregister(w.proc.stdout)
        except (KeyError, ValueError):
            pass
        w.kill()
        self._lost += 1
        registry().counter("sweep.worker.deaths").inc()
        obs_events.emit("worker.dead", worker=w.id, cause=why)
        if w.task is not None:
            i, w.task = w.task, None
            self._events.append(("lost", i, exc or WorkerError(
                f"worker {w.id} died mid-point ({why})", worker_id=w.id,
                point_key=self.todo[i].key, qid=self.todo[i].qid)))

    def _check_health(self):
        now = time.monotonic()
        for wid in sorted(self.workers):
            w = self.workers[wid]
            silent = now - w.last_seen
            if not w.ready:
                if silent > max(self.lease_ttl, self.INIT_GRACE):
                    self._worker_died(w, "never became ready")
            elif w.task is not None and silent > self.lease_ttl:
                registry().counter("sweep.worker.stale").inc()
                obs_events.emit("worker.stale", worker=w.id,
                                seconds=round(silent, 3))
                point = self.todo[w.task]
                self._worker_died(w, "stale heartbeat", exc=LeaseExpired(
                    f"worker {w.id} went silent for {silent:.1f}s "
                    f"(lease TTL {self.lease_ttl:.1f}s) holding point "
                    f"{point.key!r}", worker_id=w.id, point_key=point.key,
                    qid=point.qid))


# -- the supervisor --------------------------------------------------------

def select_transport(config, n_todo):
    """The transport class for one sweep's ``n_todo`` memo misses, or
    ``None`` when they run in ``run_sweep``'s own serial loop: one job, or
    one point.  ``config.backend`` is only validated (see
    :class:`~repro.core.run.RunConfig`)."""
    if config.backend not in ("auto", "inproc", "pool", "workers"):
        raise ValueError(
            f"unknown sweep backend {config.backend!r} "
            "(expected one of auto, inproc, pool, workers)")
    return WorkerTransport if min(n_todo, config.jobs) > 1 else None


def _point_failure(point, attempts, exc, timeout=False):
    cls = PointTimeout if timeout else PointFailure
    return cls(
        f"sweep point {point.key!r} (qid={point.qid}) failed after "
        f"{attempts} worker attempt(s) and an in-process retry: {exc}",
        point_key=point.key, qid=point.qid, attempts=attempts, cause=exc)


def supervise(transport, todo, scale, seed, config, ledger=None,
              clock=time.monotonic):
    """Run ``todo`` on ``transport``; return summaries in ``todo`` order.

    ``config`` is the run's :class:`~repro.core.run.RunConfig`, read for
    ``point_timeout``, ``retries`` and ``backoff``, and passed whole to the
    in-process fallback (:func:`~repro.core.sweep.run_point`); ``clock`` times
    dispatches, backoff embargoes and the per-point timeout.  At most
    ``transport.free_slots()`` points are in flight, dispatched in list
    order.  Every recovery decision is made here, once -- see the module docstring and
    EXPERIMENTS.md *Robustness* for the policy table.
    """
    n = len(todo)
    ckeys = [_point_cache_key(p, scale, seed) for p in todo]
    results = [None] * n
    attempts = [0] * n
    last_error = [None] * n
    not_before = [0.0] * n
    pending = list(range(n))
    fallback = []
    inflight = {}                 # point index -> dispatch time
    budget = max(4, 2 * n) + transport.capacity
    timeout = config.point_timeout
    tick = min(0.1, timeout / 5.0) if timeout else 0.1
    point_seconds = registry().histogram("sweep.point.seconds",
                                         _POINT_SECONDS_BUCKETS)

    def record(i, summary, **detail):
        results[i] = summary
        if ledger is not None:
            ledger.complete(ckeys[i], summary)
        obs_events.emit("point.done", index=i, key=repr(todo[i].key),
                        **detail)

    def charge(i, exc, retry=True):
        """One failed attempt: requeue with backoff, or -- the retry budget
        spent, or retrying pointless -- hand the point to the in-process
        fallback pass."""
        last_error[i] = exc
        attempts[i] += 1
        if retry and attempts[i] <= config.retries:
            _sup_count("retries")
            obs_events.emit("point.retry", index=i, key=repr(todo[i].key),
                            attempts=attempts[i], error=type(exc).__name__)
            not_before[i] = clock() \
                + config.backoff * (2 ** (attempts[i] - 1))
            pending.append(i)
        else:
            fallback.append(i)
            _sup_count("fallbacks")
            obs_events.emit("point.fallback", index=i,
                            key=repr(todo[i].key), attempts=attempts[i])

    obs_events.emit("backend.start", backend=transport.name,
                    workers=transport.capacity, points=n)
    try:
        while pending or inflight:
            now = clock()
            budget -= transport.start(len(pending) + len(inflight), budget)
            if not transport.alive and budget < 1:
                # Whole-transport degrade: nothing is running and nothing
                # more may be spawned, so whatever is left runs in-process.
                why = "no live workers and spawn budget exhausted"
                registry().counter("sweep.backend.degraded").inc()
                obs_events.emit("backend.degraded", backend=transport.name,
                                cause=why)
                warnings.warn(f"{transport.name} backend degraded to "
                              f"in-process execution: {why}", stacklevel=2)
                fallback.extend(pending + list(inflight))
                break
            ready = [i for i in pending if not_before[i] <= now]
            for i in ready[:transport.free_slots()]:
                pending.remove(i)
                transport.submit(i, attempts[i], todo[i])
                inflight[i] = now
                obs_events.emit("point.assigned", index=i,
                                attempts=attempts[i])
            for kind, i, payload in transport.poll(tick):
                t0 = inflight.pop(i, None)
                if t0 is None:
                    continue
                if kind == "lost" and payload is None:
                    pending.insert(0, i)
                elif kind == "lost":
                    charge(i, payload)
                elif kind == "error":
                    obs_events.emit("point.error", index=i,
                                    error=type(payload).__name__,
                                    retryable=is_retryable(payload))
                    charge(i, payload, retry=is_retryable(payload))
                elif _valid_summary(payload):
                    elapsed = clock() - t0
                    point_seconds.observe(elapsed)
                    record(i, payload, seconds=round(elapsed, 6),
                           attempts=attempts[i] + 1)
                else:
                    _sup_count("garbage")
                    obs_events.emit("point.garbage", index=i,
                                    key=repr(todo[i].key))
                    charge(i, InvalidPointResult(
                        f"worker returned a non-summary object "
                        f"{type(payload).__name__!r} for point "
                        f"{todo[i].key!r}", point_key=todo[i].key,
                        qid=todo[i].qid, attempts=attempts[i] + 1))
            now = clock()
            for i in [i for i, t0 in inflight.items()
                      if timeout and now - t0 > timeout]:
                del inflight[i]
                transport.kill(i)
                _sup_count("timeouts")
                obs_events.emit("point.timeout", index=i,
                                key=repr(todo[i].key),
                                attempts=attempts[i] + 1)
                charge(i, PointTimeout(
                    f"sweep point {todo[i].key!r} exceeded the "
                    f"{timeout:.1f}s point timeout", point_key=todo[i].key,
                    qid=todo[i].qid, attempts=attempts[i] + 1))
    finally:
        transport.close()

    # Graceful degradation: repeatedly failing points run in the parent,
    # where no worker can lose them (and injected worker faults cannot
    # fire).
    for i in sorted(fallback):
        try:
            summary = run_point(todo[i], scale, seed, config)
        except Exception as exc:
            raise _point_failure(
                todo[i], attempts[i], exc,
                timeout=isinstance(last_error[i], PointTimeout)) from exc
        record(i, summary, attempts=attempts[i], fallback=True)
    return results
