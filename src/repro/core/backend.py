"""Pluggable sweep executors: one :class:`SweepBackend` contract, three fabrics.

:func:`repro.core.sweep.run_sweep` computes *what* must run (the memo
misses) and this module decides *how*: every backend takes the same
``(todo, scale, seed, config, journal)`` and returns summaries in ``todo``
order, bit-identical to serial execution -- summaries are plain JSON-safe
dicts, so no fabric can change a result, only its latency.

``inproc``
    the points run serially in the parent (the ``jobs=1`` path).
``pool``
    the supervised ``spawn`` process pool
    (:func:`repro.core.sweep._run_supervised`): traces ship as encoded
    bytes through the pool initializer.
``workers``
    the lease-based multi-worker fabric this module adds:
    ``repro-sweep-worker`` subprocesses (:mod:`repro.core.worker`) speak a
    length-prefixed JSON protocol over their stdio pipes and fetch traces
    *by store key* from a spool directory -- nothing bigger than a key
    crosses the pipe, and no trace array is ever pickled onto it.  With a
    checkpoint directory configured, every point's lifecycle is journaled
    in the lease ledger (:mod:`repro.core.ledger`): claim on assignment,
    heartbeat while computing, complete/abandon on the way out -- so a
    parent crash mid-sweep leaves a ledger any later run can resume from,
    reclaiming exactly the points that were in flight.

Frame format (little-endian)::

    bytes 0..3   payload length P (u32)
    bytes 4..7   CRC-32 of the payload (u32)
    bytes 8..    payload: UTF-8 JSON, P bytes

Parent -> worker ops: ``init``, ``run``, ``shutdown``.
Worker -> parent ops: ``ready``, ``heartbeat``, ``result``, ``error``.

The fabric recovers from every worker failure mode the pool supervisor
covers, plus the protocol-level ones it cannot have: a dead worker (EOF),
a stalled or partitioned worker (heartbeat silence past the lease TTL,
detected with the parent's monotonic clock), a corrupt frame (CRC
mismatch; the stream past the damage is unsynchronized, so the worker is
killed and respawned), and a hung point (the per-point timeout).  Failed
points are charged and retried with the same backoff policy as the pool;
points that exhaust the budget -- or the whole fabric, if the spawn
budget runs dry -- degrade to in-process execution in the parent.  All of
it is deterministic to exercise: :mod:`repro.core.faults` worker-targeted
kinds (``wstall``/``wpartition``/``wcorrupt``) and seeded chaos fire
inside the workers by ``(point index, attempt)`` coordinate.
"""

import json
import os
import selectors
import struct
import subprocess
import sys
import time
import warnings
import zlib

from repro.core.errors import (
    InvalidPointResult, LeaseExpired, PointTimeout, WorkerError,
    WorkerProtocolError, decode_error, is_retryable,
)
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
    "requeued": "sweep.point.requeued",
}


def fabric_stats():
    """Worker-fabric health counters (views over the metrics registry):
    worker spawns/deaths, stale-lease kills, corrupt protocol frames,
    whole-fabric degradations, and resume-requeued points."""
    reg = registry()
    return {key: reg.value(name) for key, name in _FABRIC_METRICS.items()}


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
    from repro.core.checkpoint import _plain

    return {
        "key": _plain(point.key),
        "qid": point.qid,
        "machine": dict(point.machine),
        "n_procs": point.n_procs,
        "seed_base": point.seed_base,
        "arena_size": point.arena_size,
        "placement": point.placement,
        "lock_check_per_rescan": point.lock_check_per_rescan,
    }


def point_from_wire(data):
    """Rebuild a :class:`~repro.core.sweep.SweepPoint` from the wire dict."""
    from repro.core.sweep import SweepPoint

    key = data.get("key")
    if isinstance(key, list):
        key = tuple(key)
    return SweepPoint(
        key=key,
        qid=data["qid"],
        machine=dict(data.get("machine") or {}),
        n_procs=int(data.get("n_procs", 4)),
        seed_base=int(data.get("seed_base", 0)),
        arena_size=data.get("arena_size"),
        placement=data.get("placement", "shared"),
        lock_check_per_rescan=bool(data.get("lock_check_per_rescan", True)),
    )


# -- the backend contract --------------------------------------------------

class SweepBackend:
    """Strategy interface: run ``todo`` and return summaries in order.

    Implementations must be bit-identical to serial execution and must
    record completions in ``journal`` (when one is configured) the moment
    each summary exists.
    """

    name = "abstract"

    def run(self, todo, scale, seed, config, journal):
        raise NotImplementedError


class InProcessBackend(SweepBackend):
    """Serial execution in the parent: the reference the others must match."""

    name = "inproc"

    def run(self, todo, scale, seed, config, journal):
        from repro.core.sweep import _point_cache_key, _releasing, run_point

        results = []
        for point in _releasing(todo):
            summary = run_point(point, scale, seed=seed)
            if journal is not None:
                journal.append(_point_cache_key(point, scale, seed), summary)
            obs_events.emit("point.done", key=repr(point.key))
            results.append(summary)
        return results


class PoolBackend(SweepBackend):
    """The supervised ``spawn`` process pool behind the common contract."""

    name = "pool"

    def run(self, todo, scale, seed, config, journal):
        from repro.core.sweep import _run_supervised

        if config.jobs <= 1 or len(todo) <= 1:
            return InProcessBackend().run(todo, scale, seed, config, journal)
        return _run_supervised(todo, scale, seed, config, journal)


class WorkerBackend(SweepBackend):
    """The lease-based ``repro-sweep-worker`` fabric (module docstring)."""

    name = "workers"

    def run(self, todo, scale, seed, config, journal):
        return _WorkerFabric(todo, scale, seed, config, journal).run()


def resolve_backend(config, n_todo):
    """The executor for one sweep, or ``None`` for ``run_sweep``'s own
    serial tail loop (the ``auto``-with-one-job fast path, which needs no
    dispatch layer at all)."""
    name = getattr(config, "backend", "auto")
    if name == "workers":
        return WorkerBackend()
    if name == "pool":
        return PoolBackend()
    if name == "inproc":
        return InProcessBackend()
    if name == "auto":
        if config.jobs > 1 and n_todo > 1:
            return PoolBackend()
        return None
    raise ValueError(
        f"unknown sweep backend {name!r} "
        "(expected auto, inproc, pool, or workers)")


# -- the worker fabric -----------------------------------------------------

class _WorkerProc:
    """Parent-side handle on one ``repro-sweep-worker`` subprocess."""

    def __init__(self, wid, proc):
        self.id = wid
        self.proc = proc
        self.buf = FrameBuffer()
        self.ready = False
        self.task = None          # (point index, assigned monotonic time)
        self.last_seen = time.monotonic()

    @property
    def busy(self):
        return self.task is not None

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


class _WorkerFabric:
    """One sweep's worth of supervised worker subprocesses.

    All state is instance-local (nothing module-global is written), the
    parent's clocks are monotonic, and every transition emits an obs
    event -- ``--progress`` renders the fabric's health live.
    """

    #: Grace multiplier for a worker that has not said ``ready`` yet
    #: (interpreter start-up is slower than any heartbeat interval).
    INIT_GRACE = 15.0

    def __init__(self, todo, scale, seed, config, journal):
        from repro.core.sweep import _point_cache_key

        self.todo = todo
        self.scale = scale
        self.seed = seed
        self.config = config
        self.journal = journal
        self.ledger = journal if hasattr(journal, "claim") else None
        n = len(todo)
        self.results = [None] * n
        self.attempts = [0] * n
        self.last_error = [None] * n
        self.not_before = [0.0] * n
        self.pending = list(range(n))
        self.fallback = []
        self.workers = {}
        self.sel = selectors.DefaultSelector()
        self.n_workers = min(n, config.workers or max(2, config.jobs))
        self.spawn_budget = max(4, 2 * n) + self.n_workers
        self.lease_ttl = float(getattr(config, "lease_ttl", 30.0) or 30.0)
        self.hb_interval = max(0.05, min(1.0, self.lease_ttl / 4.0))
        self.ckeys = [_point_cache_key(p, scale, seed) for p in todo]
        self._next_wid = 0
        self._spool = None
        self._own_spool = False
        self.trace_keys = []

    # -- lifecycle ---------------------------------------------------------

    def run(self):
        self._spool_traces()
        obs_events.emit("backend.start", backend="workers",
                        workers=self.n_workers, points=len(self.todo))
        try:
            self._loop()
        finally:
            # Kill, never abandon: an interrupt must leave the claims in
            # the ledger so the next run's reclaim sees them as stale.
            self._shutdown()
        self._run_fallbacks()
        if self.ledger is not None:
            self.ledger.compact()
        return self.results

    def _spool_traces(self):
        """Make every needed trace loadable by store key.

        The spool is the configured trace store when there is one (the
        traces are already, or become, regular store entries); otherwise a
        directory under the checkpoint dir, or a private temp dir.  The
        workers receive only the keys -- ship-by-hash, never pickled
        arrays.
        """
        from repro.core.experiment import get_trace_dir
        from repro.core.sweep import _releasing, _trace_keys, _variant
        from repro.core.tracestore import save_trace, store_key, trace_filename

        store_dir = get_trace_dir()
        if store_dir is None:
            if self.config.checkpoint_dir is not None:
                store_dir = os.path.join(self.config.checkpoint_dir,
                                         "trace-spool")
            else:
                import tempfile

                store_dir = tempfile.mkdtemp(prefix="repro-spool-")
                self._own_spool = True
        self._spool = store_dir
        with span("spool", points=len(self.todo)):
            for point in _releasing(self.todo):
                skeys = []
                for tkey in _trace_keys(point, self.scale):
                    lock_check, qid, qseed, node, arena = tkey
                    skey = store_key(self.scale.name, self.seed, qid, qseed,
                                     node, arena, lock_check)
                    path = os.path.join(store_dir, trace_filename(skey))
                    if not os.path.exists(path):
                        cache = _variant(self.scale, self.seed, lock_check)
                        trace = cache.get(qid, qseed, node, arena_size=arena)
                        save_trace(store_dir, skey, trace)
                    skeys.append(list(skey))
                self.trace_keys.append(skeys)

    def _loop(self):
        timeout = self.config.point_timeout
        tick = min(0.1, self.hb_interval,
                   (timeout / 5.0) if timeout else 0.1)
        while self.pending or self._busy_count():
            self._spawn_missing()
            if not self.workers and self.pending:
                self._degrade("no live workers and spawn budget exhausted")
                return
            self._assign()
            self._poll(tick)
            self._check_health()

    def _shutdown(self):
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
            try:
                self.sel.unregister(w.proc.stdout)
            except (KeyError, ValueError):
                pass
            w.kill()
        self.workers.clear()
        self.sel.close()
        if self._own_spool and self._spool:
            import shutil

            shutil.rmtree(self._spool, ignore_errors=True)

    def _run_fallbacks(self):
        """Graceful degradation: repeatedly failed points run in the
        parent, exactly like the pool supervisor's fallback pass."""
        from repro.core.sweep import _point_failure, run_point

        for i in sorted(self.fallback):
            point = self.todo[i]
            try:
                summary = run_point(point, self.scale, seed=self.seed)
            except Exception as exc:
                worker_exc = self.last_error[i]
                raise _point_failure(
                    point, self.attempts[i], exc,
                    timeout=isinstance(worker_exc, PointTimeout)) from exc
            self._record(i, summary)
            obs_events.emit("point.done", index=i, key=repr(point.key),
                            attempts=self.attempts[i], fallback=True)

    # -- spawning ----------------------------------------------------------

    def _busy_count(self):
        return sum(1 for w in self.workers.values() if w.busy)

    def _spawn_missing(self):
        want = min(self.n_workers, len(self.pending) + self._busy_count())
        for _ in range(max(0, want - len(self.workers))):
            if self.spawn_budget <= 0:
                break
            self.spawn_budget -= 1
            self._spawn_one()

    def _spawn_one(self):
        import repro
        from repro.core.tracestore import get_strict
        from repro.memsim.batch import default_kernel

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
                    "heartbeat": self.hb_interval,
                    "lease_ttl": self.lease_ttl,
                    "strict": get_strict(), "kernel": default_kernel()})
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
        return w

    # -- assignment --------------------------------------------------------

    def _next_ready_point(self, now):
        for pos, i in enumerate(self.pending):
            if self.not_before[i] <= now:
                return self.pending.pop(pos)
        return None

    def _assign(self):
        now = time.monotonic()
        for wid in sorted(self.workers):
            w = self.workers[wid]
            if not w.ready or w.busy:
                continue
            i = self._next_ready_point(now)
            if i is None:
                return
            if not self._claim(i, w):
                continue
            try:
                w.send({"op": "run", "index": i,
                        "attempt": self.attempts[i],
                        "point": point_to_wire(self.todo[i]),
                        "trace_keys": self.trace_keys[i]})
            except OSError as exc:
                self.pending.insert(0, i)
                self._release_lease(i, w.id, "send-failed")
                self._worker_died(w, f"write failed: {exc}")
                continue
            w.task = (i, now)
            w.last_seen = now
            obs_events.emit("point.assigned", index=i, worker=w.id,
                            attempts=self.attempts[i])

    def _claim(self, i, w):
        """Take the ledger lease for point ``i``; ``False`` defers it."""
        if self.ledger is None:
            return True
        ck = self.ckeys[i]
        if self.ledger.claim(ck, w.id, pid=w.proc.pid, ttl=self.lease_ttl):
            obs_events.emit("lease.claim", index=i, worker=w.id)
            return True
        summary = self.ledger.get(ck)
        if summary is not None:
            # A concurrent driver sharing the ledger finished it for us.
            self.results[i] = summary
            obs_events.emit("point.done", index=i,
                            key=repr(self.todo[i].key),
                            attempts=self.attempts[i])
            return False
        # A foreign live lease: revisit after half a TTL.
        self.not_before[i] = time.monotonic() + self.lease_ttl / 2.0
        self.pending.append(i)
        return False

    # -- event pump --------------------------------------------------------

    def _poll(self, tick):
        for key, _mask in self.sel.select(timeout=tick):
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
        elif op == "heartbeat":
            if w.busy and self.ledger is not None:
                self.ledger.heartbeat(self.ckeys[w.task[0]], w.id)
        elif op == "result":
            self._on_result(w, frame)
        elif op == "error":
            self._on_error(w, frame)
        # Unknown ops are tolerated: newer workers may add informational
        # frames, and the CRC already vouches for the bytes.

    def _on_result(self, w, frame):
        from repro.core.sweep import (
            _POINT_SECONDS_BUCKETS, _sup_count, _valid_summary,
        )

        if not w.busy or frame.get("index") != w.task[0]:
            self._worker_died(
                w, "result for a point it does not hold",
                exc=WorkerProtocolError(
                    f"worker {w.id} answered for point "
                    f"{frame.get('index')!r} while holding {w.task!r}",
                    worker_id=w.id))
            return
        i, t0 = w.task
        w.task = None
        summary = frame.get("summary")
        if not _valid_summary(summary):
            _sup_count("garbage")
            obs_events.emit("point.garbage", index=i,
                            key=repr(self.todo[i].key), worker=w.id)
            self._release_lease(i, w.id, "garbage")
            self._fail(i, InvalidPointResult(
                f"worker {w.id} returned a non-summary object for point "
                f"{self.todo[i].key!r}", point_key=self.todo[i].key,
                qid=self.todo[i].qid, attempts=self.attempts[i] + 1))
            return
        elapsed = time.monotonic() - t0
        registry().histogram("sweep.point.seconds",
                             _POINT_SECONDS_BUCKETS).observe(elapsed)
        self._record(i, summary, worker=w.id)
        obs_events.emit("point.done", index=i, key=repr(self.todo[i].key),
                        seconds=round(elapsed, 6),
                        attempts=self.attempts[i] + 1, worker=w.id)

    def _on_error(self, w, frame):
        from repro.core.sweep import _sup_count

        if not w.busy or frame.get("index") != w.task[0]:
            self._worker_died(w, "error frame for a point it does not hold")
            return
        i, _t0 = w.task
        w.task = None
        exc = decode_error(frame.get("error"))
        self._release_lease(i, w.id, type(exc).__name__)
        obs_events.emit("point.error", index=i, worker=w.id,
                        error=type(exc).__name__,
                        retryable=is_retryable(exc))
        if is_retryable(exc):
            self._fail(i, exc)
        else:
            # Burning worker retries on a non-retryable error is pointless:
            # this point goes straight to the in-process pass.
            self.last_error[i] = exc
            self.attempts[i] += 1
            self.fallback.append(i)
            _sup_count("fallbacks")
            obs_events.emit("point.fallback", index=i,
                            key=repr(self.todo[i].key),
                            attempts=self.attempts[i])

    # -- failure handling --------------------------------------------------

    def _fail(self, i, exc, timed_out=False):
        """Charge a failed attempt; requeue with backoff or hand the point
        to the in-process fallback -- the pool supervisor's exact policy."""
        from repro.core.sweep import _sup_count

        self.last_error[i] = exc
        self.attempts[i] += 1
        if timed_out:
            _sup_count("timeouts")
            obs_events.emit("point.timeout", index=i,
                            key=repr(self.todo[i].key),
                            attempts=self.attempts[i])
        if self.attempts[i] > self.config.retries:
            self.fallback.append(i)
            _sup_count("fallbacks")
            obs_events.emit("point.fallback", index=i,
                            key=repr(self.todo[i].key),
                            attempts=self.attempts[i])
        else:
            _sup_count("retries")
            obs_events.emit("point.retry", index=i,
                            key=repr(self.todo[i].key),
                            attempts=self.attempts[i],
                            error=type(exc).__name__)
            self.not_before[i] = time.monotonic() + \
                self.config.backoff * (2 ** (self.attempts[i] - 1))
            self.pending.append(i)

    def _worker_died(self, w, why, exc=None, charge=True):
        if w.id not in self.workers:
            return
        del self.workers[w.id]
        try:
            self.sel.unregister(w.proc.stdout)
        except (KeyError, ValueError):
            pass
        w.kill()
        registry().counter("sweep.worker.deaths").inc()
        obs_events.emit("worker.dead", worker=w.id, cause=why)
        if w.busy:
            i, _t0 = w.task
            w.task = None
            self._release_lease(i, w.id, "worker-died")
            if charge:
                self._fail(i, exc if exc is not None else WorkerError(
                    f"worker {w.id} died mid-point ({why})",
                    worker_id=w.id, point_key=self.todo[i].key,
                    qid=self.todo[i].qid, attempts=self.attempts[i] + 1))
            else:
                self.pending.insert(0, i)

    def _check_health(self):
        now = time.monotonic()
        timeout = self.config.point_timeout
        for wid in sorted(self.workers):
            w = self.workers[wid]
            if not w.ready:
                if now - w.last_seen > max(self.lease_ttl, self.INIT_GRACE):
                    self._worker_died(w, "never became ready")
                continue
            if not w.busy:
                continue
            i, t0 = w.task
            if timeout and now - t0 > timeout:
                w.task = None
                self._release_lease(i, w.id, "timeout")
                self._fail(i, PointTimeout(
                    f"sweep point {self.todo[i].key!r} exceeded the "
                    f"{timeout:.1f}s point timeout on worker {w.id}",
                    point_key=self.todo[i].key, qid=self.todo[i].qid,
                    attempts=self.attempts[i] + 1), timed_out=True)
                self._worker_died(w, "point timeout", charge=False)
            elif now - w.last_seen > self.lease_ttl:
                registry().counter("sweep.worker.stale").inc()
                obs_events.emit("worker.stale", worker=w.id,
                                seconds=round(now - w.last_seen, 3))
                silent = now - w.last_seen
                w.task = None
                self._release_lease(i, w.id, "stale")
                self._fail(i, LeaseExpired(
                    f"worker {w.id} went silent for {silent:.1f}s "
                    f"(lease TTL {self.lease_ttl:.1f}s) holding point "
                    f"{self.todo[i].key!r}", worker_id=w.id,
                    point_key=self.todo[i].key, qid=self.todo[i].qid,
                    attempts=self.attempts[i] + 1))
                self._worker_died(w, "stale heartbeat", charge=False)

    # -- bookkeeping -------------------------------------------------------

    def _record(self, i, summary, worker="parent"):
        self.results[i] = summary
        if self.journal is None:
            return
        if self.ledger is not None:
            self.ledger.complete(self.ckeys[i], summary, worker=worker)
        else:
            self.journal.append(self.ckeys[i], summary)

    def _release_lease(self, i, worker, reason):
        if self.ledger is None:
            return
        from repro.core.checkpoint import canonical_key

        if canonical_key(self.ckeys[i]) in self.ledger.leases:
            self.ledger.abandon(self.ckeys[i], worker, reason=reason)
            obs_events.emit("lease.abandon", index=i, worker=worker,
                            reason=reason)

    def _degrade(self, why):
        registry().counter("sweep.backend.degraded").inc()
        obs_events.emit("backend.degraded", backend="workers", cause=why)
        warnings.warn(
            f"worker backend degraded to in-process execution: {why}",
            stacklevel=2)
        for i in self.pending:
            if i not in self.fallback:
                self.fallback.append(i)
        self.pending = []
