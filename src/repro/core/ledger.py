"""Sweep ledger: the one durable record of a sweep's finished points.

``--checkpoint-dir D`` keeps one append-only file, ``D/sweep-ledger.rpll``,
serial or parallel.  It holds one record per finished point::

    complete   {op, key, summary}     durable result (fsynced)

Replaying the records rebuilds ``completed``: canonical point key ->
summary (a plain dict of ints, floats, strings and lists, which survives
the JSON round trip bit-identically).  Resume needs nothing else: every
point without a ``complete`` record is simply run again, so an interrupted
or killed driver costs the points it had in flight, never the ones it
finished.  A record carries no clock, pid or worker id, so the bytes a
sweep writes are a pure function of its results.

Record framing follows the trace store's discipline
(:mod:`repro.core.tracestore`), little-endian::

    bytes 0..3    magic b"RPLL"
    bytes 4..7    format version (u32)
    bytes 8..11   payload length P (u32)
    bytes 12..    payload: UTF-8 JSON, P bytes
    last 4        CRC-32 of the payload (u32)

Earlier writers of the same version also logged each point's lease
lifecycle (three more record types), and a ``worker`` and wall-clock ``t``
in each ``complete``; those records parse and are skipped, the extra
fields are ignored.  Every record is flushed and fsynced before
:meth:`Ledger.complete` returns, so the only loss mode a crash can produce
is a truncated *tail*: loading stops at the first damaged record, warns,
and truncates the file back to the last good one, so an interrupted
writer never poisons later appends.

One driver at a time: an open ledger holds an exclusive ``flock`` on the
file, taken before the load (whose repair truncates).  A second live
driver on the same directory gets a :class:`~repro.core.errors.LedgerError`
naming the file; the kernel drops the lock when its holder exits or is
killed, so a crashed run's directory resumes at once.
"""

import fcntl
import json
import os
import struct
import warnings
import zlib

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


class Ledger:
    """One sweep ledger, held exclusively while open.

    ``completed`` maps :func:`canonical_key` strings to summaries
    (:meth:`get` looks one up by point key; :meth:`complete` adds one
    durably).  ``damaged`` counts truncated/corrupt tails repaired at
    open.
    """

    def __init__(self, directory, name=LEDGER_NAME):
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
        self.completed = {}
        self.damaged = 0
        try:
            self._fh = open(self.path, "ab")
        except OSError as exc:
            raise LedgerError(
                f"cannot open sweep ledger {self.path!r}: {exc}") from exc
        try:
            self._lock()
            self._load_and_repair()
        except BaseException:
            self._fh.close()
            raise

    def get(self, key):
        """The completed summary for ``key``, or ``None``."""
        return self.completed.get(canonical_key(key))

    def _lock(self):
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise LedgerError(
                f"sweep ledger {self.path!r} is held by another live "
                "sweep: wait for it to finish, or use another "
                "--checkpoint-dir") from None
        except OSError as exc:
            raise LedgerError(
                f"cannot lock sweep ledger {self.path!r}: {exc}") from exc

    def _load_and_repair(self):
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise LedgerError(
                f"cannot read sweep ledger {self.path!r}: {exc}") from exc
        good = 0
        for end, payload in iter_records(data):
            if not self._apply(payload):
                break
            good = end
        if good < len(data):
            self.damaged += 1
            warnings.warn(
                f"sweep ledger {self.path}: damaged record at byte {good} "
                f"(of {len(data)}); keeping {len(self.completed)} completed "
                "points, truncating the tail", stacklevel=2)
            os.ftruncate(self._fh.fileno(), good)

    def _apply(self, payload):
        """Replay one record; ``False`` on a record that parses but makes
        no sense (treated as tail damage).  Only ``complete`` records
        count; any other op is an earlier writer's lease record."""
        op = payload.get("op")
        if not isinstance(op, str) or "key" not in payload:
            return False
        if op == "complete":
            if "summary" not in payload:
                return False
            self.completed[canonical_key(payload["key"])] = payload["summary"]
        return True

    # -- writing -----------------------------------------------------------

    def complete(self, key, summary):
        """Durably record ``key``'s summary (flushed and fsynced)."""
        ck = canonical_key(key)
        record = pack_record({"op": "complete", "key": key,
                              "summary": summary})
        with span("ledger-complete", key=ck):
            try:
                self._fh.write(record)
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except (OSError, ValueError) as exc:
                raise LedgerError(
                    f"cannot append to sweep ledger {self.path!r}: {exc}"
                ) from exc
        self.completed[ck] = summary
        reg = registry()
        reg.counter("ledger.completes").inc()
        reg.counter("ledger.bytes_written").inc(len(record))

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Release the file (and with it the lock)."""
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
