"""Lease ledger: the one durable record of a sweep's progress.

``--checkpoint-dir D`` keeps one append-only file, ``D/sweep-ledger.rpll``,
under every backend.  It records the *whole lifecycle* of a point as typed,
framed, individually checksummed records::

    claim      {op, key, worker, pid, t, ttl}     a driver took the point
    heartbeat  {op, key, worker, t}               still in flight
    complete   {op, key, worker, t, summary}      durable result (fsynced)
    abandon    {op, key, worker, t, reason}       lease released unfinished

Replaying the records rebuilds the exact work-queue state: ``completed``
(summaries -- plain dicts of ints, floats, strings and lists, which survive
the JSON round trip bit-identically) and ``leases`` (who holds what, since
when, for how long).  A lease is *stale* when its holder's pid no longer
exists or its TTL has lapsed without a heartbeat -- either way the point is
reclaimable by anyone, so an interrupted or killed driver costs the points
it had in flight, never the ones it finished.

Record framing follows the trace store's discipline
(:mod:`repro.core.tracestore`), little-endian::

    bytes 0..3    magic b"RPLL"
    bytes 4..7    format version (u32)
    bytes 8..11   payload length P (u32)
    bytes 12..    payload: UTF-8 JSON, P bytes
    last 4        CRC-32 of the payload (u32)

``complete``, ``claim`` and ``abandon`` records are flushed and fsynced (a
completed point survives any crash, and the other two gate exactly-once
requeue accounting); ``heartbeat`` records are only flushed -- losing one
to a crash costs nothing but an earlier-looking lease.  The only loss mode
a crash can produce is therefore a truncated *tail*: loading stops at the
first damaged record, warns, and truncates the file back to the last good
one, so an interrupted writer never poisons later appends.
:meth:`LeaseLedger.compact` atomically rewrites the file keeping every
completed summary and live claim, so a long-running farm's ledger stays
bounded without ever losing resumability.
"""

import json
import os
import struct
import time
import warnings
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import LedgerError
from repro.obs.metrics import registry
from repro.obs.spans import span

MAGIC = b"RPLL"
FORMAT_VERSION = 1

_PREFIX = struct.Struct("<4sII")
_CRC = struct.Struct("<I")

LEDGER_NAME = "sweep-ledger.rpll"

#: The completed-points-only journal that checkpoint directories held
#: before the ledger became the one format.  No reader is kept for it.
_LEGACY_JOURNAL = "sweep-checkpoint.rpcj"

#: Default seconds a claim stays exclusive without a heartbeat.
DEFAULT_LEASE_TTL = 30.0

OPS = ("claim", "heartbeat", "complete", "abandon")


def canonical_key(key):
    """The canonical string identity of a point key (tuple/list agnostic:
    JSON has one array type)."""
    return json.dumps(key, separators=(",", ":"))


# -- record framing --------------------------------------------------------

def pack_record(payload_obj):
    """Frame one JSON-able payload as a self-checksummed record."""
    payload = json.dumps(payload_obj, separators=(",", ":")).encode()
    return (_PREFIX.pack(MAGIC, FORMAT_VERSION, len(payload))
            + payload + _CRC.pack(zlib.crc32(payload)))


def parse_record(data, offset):
    """``(end_offset, payload_dict)`` for the record at ``offset``, or
    ``None`` on any damage (truncation, bad magic/version/CRC/JSON)."""
    if offset + _PREFIX.size > len(data):
        return None
    magic, version, payload_len = _PREFIX.unpack_from(data, offset)
    if magic != MAGIC or version != FORMAT_VERSION:
        return None
    start = offset + _PREFIX.size
    end = start + payload_len + _CRC.size
    if end > len(data):
        return None
    payload = data[start:start + payload_len]
    (crc,) = _CRC.unpack_from(data, start + payload_len)
    if zlib.crc32(payload) != crc:
        return None
    try:
        obj = json.loads(payload.decode())
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(obj, dict):
        return None
    return end, obj


def iter_records(data):
    """Yield ``(end_offset, payload_dict)`` for every good record, in
    order, stopping at the first damaged one.  The caller truncates back
    to the last yielded ``end_offset`` to repair a damaged tail."""
    offset = 0
    while offset < len(data):
        record = parse_record(data, offset)
        if record is None:
            return
        yield record
        offset = record[0]


@dataclass
class Lease:
    """One live claim: who holds the point and how fresh the hold is."""

    worker: str
    pid: int
    t: float
    ttl: float


def _pid_alive(pid):
    """Best-effort liveness: ``False`` only when the pid surely exists not."""
    if not pid:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # pid exists but is not ours (EPERM) -- treat as alive
    return True


class LeaseLedger:
    """One append-only lease ledger over a sweep's points.

    ``completed`` maps :func:`canonical_key` strings to summaries
    (:meth:`get` looks one up by point key) and ``leases`` to live
    :class:`Lease` objects; the lease protocol is :meth:`claim` /
    :meth:`heartbeat` / :meth:`complete` / :meth:`abandon`, the recovery
    views :meth:`stale_leases` and :meth:`reclaim_stale`.  ``damaged``
    counts truncated/corrupt tails repaired at open.
    """

    def __init__(self, directory, name=LEDGER_NAME,
                 lease_ttl: float = DEFAULT_LEASE_TTL):
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise LedgerError(
                f"cannot create ledger directory {directory!r}: {exc}"
            ) from exc
        self.path = os.path.join(directory, name)
        legacy = os.path.join(directory, _LEGACY_JOURNAL)
        if os.path.exists(legacy) and not os.path.exists(self.path):
            raise LedgerError(
                f"{legacy!r} is a pre-ledger checkpoint journal, which this "
                "version cannot read: delete it to start the sweep over, or "
                "finish that run on the commit that wrote it")
        self.lease_ttl = lease_ttl
        self.completed = {}
        self.leases = {}
        self.damaged = 0
        self._load_and_repair()
        try:
            self._fh = open(self.path, "ab")
        except OSError as exc:
            raise LedgerError(
                f"cannot open lease ledger {self.path!r}: {exc}") from exc

    def get(self, key):
        """The completed summary for ``key``, or ``None``."""
        return self.completed.get(canonical_key(key))

    # -- loading -----------------------------------------------------------

    def _load_and_repair(self):
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise LedgerError(
                f"cannot read lease ledger {self.path!r}: {exc}") from exc
        good = 0
        total = len(data)
        for end, payload in iter_records(data):
            if not self._apply(payload):
                break
            good = end
        if good < total:
            self.damaged += 1
            warnings.warn(
                f"lease ledger {self.path}: damaged record at byte {good} "
                f"(of {total}); keeping {len(self.completed)} completed "
                f"points and {len(self.leases)} leases, truncating the tail",
                stacklevel=2)
            with open(self.path, "r+b") as fh:
                fh.truncate(good)

    def _apply(self, payload):
        """Replay one record into the state machine; ``False`` on a record
        that parses but makes no sense (treated as tail damage)."""
        op = payload.get("op")
        if op not in OPS or "key" not in payload:
            return False
        ck = canonical_key(payload["key"])
        worker = payload.get("worker", "?")
        if op == "claim":
            if ck not in self.completed:
                self.leases[ck] = Lease(
                    worker=worker, pid=int(payload.get("pid") or 0),
                    t=float(payload.get("t") or 0.0),
                    ttl=float(payload.get("ttl") or self.lease_ttl))
        elif op == "heartbeat":
            lease = self.leases.get(ck)
            if lease is not None and lease.worker == worker:
                lease.t = float(payload.get("t") or lease.t)
        elif op == "complete":
            if "summary" not in payload:
                return False
            self.completed[ck] = payload["summary"]
            self.leases.pop(ck, None)
        elif op == "abandon":
            self.leases.pop(ck, None)
        return True

    # -- writing -----------------------------------------------------------

    def _write(self, payload, sync):
        record = pack_record(payload)
        try:
            self._fh.write(record)
            self._fh.flush()
            if sync:
                os.fsync(self._fh.fileno())
        except (OSError, ValueError) as exc:
            raise LedgerError(
                f"cannot append to lease ledger {self.path!r}: {exc}"
            ) from exc
        reg = registry()
        reg.counter("ledger.appends").inc()
        # Record width varies with the holder's pid and the lease clock.
        # repro: allow[TNT001] observability only, never a result
        reg.counter("ledger.bytes_written").inc(len(record))

    @staticmethod
    def _now():
        # Wall clock on purpose: lease timestamps are compared across
        # processes and across runs (a resumed sweep judges the previous
        # run's leases), where no shared monotonic clock exists.
        return time.time()  # repro: allow[TNT001] cross-process lease clock

    # -- lease protocol ----------------------------------------------------

    def claim(self, key, worker, pid=None, ttl=None, now=None):
        """Take the lease on ``key`` for ``worker``; ``True`` on success.

        Fails (``False``, nothing written) when the point is already
        completed, or another holder's lease is still live.  A stale
        lease -- dead pid or lapsed TTL -- is silently superseded: the
        claim record itself is the reclaim.
        """
        ck = canonical_key(key)
        if ck in self.completed:
            return False
        now = self._now() if now is None else now
        lease = self.leases.get(ck)
        if lease is not None and lease.worker != worker \
                and not self._is_stale(lease, now):
            return False
        ttl = self.lease_ttl if ttl is None else ttl
        pid = os.getpid() if pid is None else pid
        self._write({"op": "claim", "key": key, "worker": worker,
                     "pid": pid, "t": now, "ttl": ttl}, sync=True)
        self.leases[ck] = Lease(worker=worker, pid=pid, t=now, ttl=ttl)
        registry().counter("ledger.claims").inc()
        return True

    def heartbeat(self, key, worker, now=None, sync=False):
        """Refresh ``worker``'s lease on ``key`` (no-op if not the holder)."""
        ck = canonical_key(key)
        lease = self.leases.get(ck)
        if lease is None or lease.worker != worker:
            return False
        now = self._now() if now is None else now
        self._write({"op": "heartbeat", "key": key,
                     "worker": worker, "t": now}, sync=sync)
        lease.t = now
        return True

    def complete(self, key, summary, worker="parent"):
        """Durably record ``key``'s summary; releases any lease on it."""
        ck = canonical_key(key)
        with span("ledger-complete", key=ck):
            self._write({"op": "complete", "key": key,
                         "worker": worker, "t": self._now(),
                         "summary": summary}, sync=True)
        self.completed[ck] = summary
        self.leases.pop(ck, None)
        registry().counter("ledger.completes").inc()

    def abandon(self, key, worker, reason=""):
        """Release ``worker``'s unfinished lease on ``key`` explicitly."""
        self.abandon_canonical(canonical_key(key), worker, reason=reason)

    # -- recovery ----------------------------------------------------------

    def _is_stale(self, lease, now):
        if not _pid_alive(lease.pid):
            return True
        return now - lease.t > lease.ttl

    def stale_leases(self, now: Optional[float] = None):
        """Canonical keys whose lease holder is dead or has lapsed."""
        now = self._now() if now is None else now
        return [ck for ck, lease in self.leases.items()
                if self._is_stale(lease, now)]

    def reclaim_stale(self, now: Optional[float] = None, reason="stale"):
        """Abandon every stale lease; returns the reclaimed canonical keys.

        This is the resume path's exactly-once requeue guarantee: the
        abandon records are durable before the caller requeues the points,
        so a second resume sees no stale leases and requeues nothing
        twice.
        """
        reclaimed = self.stale_leases(now)
        for ck in reclaimed:
            lease = self.leases[ck]
            self.abandon_canonical(ck, lease.worker, reason=reason)
        return reclaimed

    def abandon_canonical(self, ck, worker, reason=""):
        """:meth:`abandon` by canonical key (recovery paths hold those)."""
        self._write({"op": "abandon", "key": json.loads(ck),
                     "worker": worker, "t": self._now(),
                     "reason": reason}, sync=True)
        self.leases.pop(ck, None)
        registry().counter("ledger.abandons").inc()

    # -- compaction --------------------------------------------------------

    def compact(self):
        """Atomically rewrite the ledger to its live state; bytes saved.

        Keeps one ``complete`` record per finished point and one ``claim``
        per live lease, drops the heartbeat/abandon history.  The rewrite
        goes through a pid-suffixed temp file, is fsynced, and replaces
        the ledger in one rename -- a crash mid-compaction leaves the old
        file intact, so resumability is never at risk.
        """
        try:
            old_size = os.path.getsize(self.path)
        except OSError:
            old_size = 0
        tmp = self.path + f".tmp.{os.getpid()}"
        now = self._now()
        try:
            with open(tmp, "wb") as fh:
                for ck in sorted(self.completed):
                    fh.write(pack_record({
                        "op": "complete", "key": json.loads(ck),
                        "worker": "compact", "t": now,
                        "summary": self.completed[ck]}))
                for ck in sorted(self.leases):
                    lease = self.leases[ck]
                    fh.write(pack_record({
                        "op": "claim", "key": json.loads(ck),
                        "worker": lease.worker, "pid": lease.pid,
                        "t": lease.t, "ttl": lease.ttl}))
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            self._fh = open(self.path, "ab")
        except OSError as exc:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise LedgerError(
                f"cannot compact lease ledger {self.path!r}: {exc}") from exc
        new_size = os.path.getsize(self.path)
        registry().counter("ledger.compactions").inc()
        return max(0, old_size - new_size)

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
