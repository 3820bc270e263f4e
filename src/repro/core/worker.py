"""``repro-sweep-worker``: one sweep-point executor on the end of a pipe.

The worker half of the sweep transport (:mod:`repro.core.backend`,
where the frame format and op set are documented).  The parent sends one
``init`` frame (scale, seed, spool directory, heartbeat interval, replay
kernel), then ``run`` frames one at a time; the worker answers ``ready``,
a steady stream of ``heartbeat`` frames from a daemon thread (the
lease-liveness signal), and one ``result`` or ``error`` frame per point.

Traces arrive *by store key only*: the worker loads them from the spool
directory with :func:`repro.core.tracestore.load_trace` (strict mode --
spool damage is an error frame, never a silent re-record) and replays
them through :func:`repro.core.sweep.simulate_point` on the init frame's
kernel.  No trace array is ever pickled across the pipe, and nothing in
this process writes shared state: results flow back as plain JSON
summaries, bit-identical through the protocol because summaries are
JSON-safe by construction.

stdout is the protocol channel and is written only via :class:`_Output`
(``os.write`` under a lock, shared with the heartbeat thread); anything
human-readable goes to stderr.  Fault hooks run before each point:
compute kinds through :func:`repro.core.faults.maybe_inject`, stdio kinds
through :func:`repro.core.faults.worker_action` (``wstall`` suppresses
heartbeats past the lease TTL, ``wpartition`` goes fully silent,
``wcorrupt`` flips a byte in the result frame after its checksum is
computed).
"""

import os
import sys
import threading
import time

from repro.core.backend import FrameBuffer, pack_frame, point_from_wire
from repro.core.errors import TraceStoreError, encode_error


class _Output:
    """Serialized frame writes to stdout (main loop + heartbeat thread)."""

    def __init__(self, fd=1):
        self.fd = fd
        self.lock = threading.Lock()

    def send(self, obj, corrupt=False):
        data = pack_frame(obj)
        if corrupt:
            # Flip one payload byte *after* the checksum was computed, so
            # the parent's CRC check must catch it (the wcorrupt fault).
            damaged = bytearray(data)
            damaged[-1] ^= 0x01
            data = bytes(damaged)
        with self.lock:
            os.write(self.fd, data)


class _Heartbeat(threading.Thread):
    """Periodic liveness frames; ``stalled`` suspends them (fault hook)."""

    def __init__(self, out, worker, interval):
        super().__init__(daemon=True, name="repro-heartbeat")
        self.out = out
        self.worker = worker
        self.interval = interval
        self.stalled = threading.Event()
        self.stopped = threading.Event()

    def run(self):
        while not self.stopped.wait(self.interval):
            if self.stalled.is_set():
                continue
            try:
                self.out.send({"op": "heartbeat", "worker": self.worker})
            except OSError:
                return  # the parent is gone; the main loop exits on EOF


def _read_frame(fd, buf):
    """Block until one whole frame arrives; ``None`` on EOF.

    Damage on the parent->worker stream raises
    :class:`~repro.core.errors.WorkerProtocolError`, which exits the
    worker -- the parent treats the resulting EOF as a dead worker.
    """
    while True:
        frame = buf.next_frame()
        if frame is not None:
            return frame
        data = os.read(fd, 1 << 16)
        if not data:
            return None
        buf.feed(data)


def _configure(init):
    """The per-process run context the init frame describes."""
    from repro.tpcd.scales import get_scale

    return {
        "scale": get_scale(init.get("scale", "small")),
        "seed": int(init.get("seed", 42)),
        "store_dir": init.get("store_dir"),
        "lease_ttl": float(init.get("lease_ttl", 30.0)),
        "kernel": init.get("kernel", "auto"),
    }


def _compute(frame, ctx):
    """Load the point's traces from the spool by store key and replay."""
    from repro.core.sweep import simulate_point
    from repro.core.tracestore import load_trace

    point = point_from_wire(frame.get("point") or {})
    traces = []
    for raw in frame.get("trace_keys") or []:
        key = tuple(raw)
        loaded = load_trace(ctx["store_dir"], key, strict=True)
        if loaded is None:
            raise TraceStoreError(
                f"trace {key!r} is not in the spool {ctx['store_dir']!r}",
                cause="other")
        traces.append(loaded[0])
    return simulate_point(point, ctx["scale"], traces, ctx["kernel"])


def _run(frame, ctx, wid, out, hb):
    """Handle one ``run`` frame: fault hooks, compute, answer."""
    from repro.core import faults

    index = int(frame.get("index", -1))
    attempt = int(frame.get("attempt", 0))
    wfault = faults.worker_action(index, attempt)
    if wfault == "wpartition":
        # Total silence: no heartbeats, no answer.  Only the parent's
        # lease TTL can recover the point.
        hb.stalled.set()
        time.sleep(faults.active_plan().hang_seconds)
        hb.stalled.clear()
        return
    if wfault == "wstall":
        # Suppress heartbeats past the lease TTL: the parent must detect
        # the silence and requeue the point before we answer.
        hb.stalled.set()
        time.sleep(2.0 * ctx["lease_ttl"])
    try:
        garbage = faults.maybe_inject(index, attempt)
        if garbage is not None:
            summary = garbage
        else:
            summary = _compute(frame, ctx)
        payload = {"op": "result", "index": index, "worker": wid,
                   "summary": summary}
    except Exception as exc:
        payload = {"op": "error", "index": index, "worker": wid,
                   "error": encode_error(exc)}
    try:
        out.send(payload, corrupt=(wfault == "wcorrupt"))
    except OSError:
        pass  # the parent killed us mid-answer; nothing left to tell it
    finally:
        hb.stalled.clear()


def main(argv=None):
    """Entry point: init handshake, then the run/answer loop until EOF."""
    out = _Output()
    buf = FrameBuffer()
    init = _read_frame(0, buf)
    if init is None or init.get("op") != "init":
        print("repro-sweep-worker: expected an init frame on stdin",
              file=sys.stderr)
        return 2
    wid = str(init.get("worker") or f"pid{os.getpid()}")
    ctx = _configure(init)
    hb = _Heartbeat(out, wid, float(init.get("heartbeat", 1.0)))
    hb.start()
    out.send({"op": "ready", "worker": wid, "pid": os.getpid()})
    while True:
        frame = _read_frame(0, buf)
        if frame is None or frame.get("op") == "shutdown":
            break
        if frame.get("op") == "run":
            _run(frame, ctx, wid, out, hb)
    hb.stopped.set()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
