"""Persistent trace store: recorded query traces as on-disk artifacts.

A :class:`~repro.core.tracecache.QueryTrace` is expensive to produce (one
full engine execution) and cheap to replay; the paper's own methodology
treats the Mint trace as the reusable artifact of that asymmetry.  This
module gives the reproduction the same property across *processes and
sessions*: a trace encodes to one self-describing binary blob that can be
written to a trace directory, shipped to a sweep worker, or loaded by a
later run -- without re-touching the database engine.

File format (version |version|, little-endian)::

    bytes 0..3    magic  b"RPTR"
    bytes 4..7    format version (u32)
    bytes 8..11   header length H (u32)
    bytes 12..15  CRC-32 of everything after the prefix (u32)
    bytes 16..    header: UTF-8 JSON, H bytes
    rest          payload: the six columnar arrays back to back
                  (their raw buffers), then the pickled result rows

The JSON header carries the identifying key ``(scale name, database seed,
qid, query seed, node, arena size, lock_check_per_rescan)``, the typecode /
itemsize / element count of every array and the interned lock-id table.
The CRC covers header and payload alike: a flipped bit in a lock id would
otherwise rename a lock and silently change the replay.  Version-1 entries,
whose CRC covered only the payload, are refused like any other version
and re-recorded.  A platform whose ``array`` itemsizes differ is
detected instead of mis-decoded, and each column loads at the width it was
written with: 32-bit ``'I'`` from the encoder, ``'q'`` where it widened,
``'q'``/``'l'`` in entries written before the encoder narrowed its
columns.  Every anticipated failure -- missing file, truncation, bit flip,
format-version bump, key collision, foreign itemsize or typecode --
surfaces as :class:`TraceStoreError`, which callers
(:class:`~repro.core.tracecache.TraceCache`) treat as "not stored": they
fall back to re-recording, so a damaged store costs time, never
correctness.

The fallback is *visible*, not silent: every damaged load increments a
per-cause corruption counter (:func:`corruption_stats`, reported by
``repro-experiments --time``) and emits a :class:`TraceStoreWarning`.
Strict loads (``strict=True``, what ``RunConfig.strict_store`` /
``--strict-store`` asks every trace cache of a run for) turn the fallback
off entirely: damage raises :class:`TraceStoreError` instead of
re-recording, for runs where a corrupted artifact must stop the world.
"""

import hashlib
import json
import os
import pickle
import struct
import time
import warnings
import zlib
from array import array

from repro.core.errors import TraceStoreError, TraceStoreWarning
from repro.obs.metrics import registry

__all__ = [
    "TraceStoreError", "TraceStoreWarning", "store_key", "trace_filename",
    "encode_trace", "decode_trace", "save_trace", "load_trace",
    "clean_stale_temps", "corruption_stats",
]

MAGIC = b"RPTR"
FORMAT_VERSION = 2

_PREFIX = struct.Struct("<4sIII")

#: QueryTrace column attributes, in payload order.
_COLUMNS = ("kinds", "a", "b", "c", "d", "e")

SUFFIX = ".trace"

#: Marker :func:`save_trace` puts in its temp-file names: ``<name>.tmp.<pid>``.
TMP_MARKER = ".tmp."

#: Age (seconds) beyond which an unparsable temp file counts as stale.
STALE_TMP_AGE = 3600.0

#: Metric-name prefix of the per-cause damaged-entry counters
#: (``tracestore.corrupt.checksum``, ``tracestore.corrupt.truncated``, ...).
CORRUPT_PREFIX = "tracestore.corrupt"


def corruption_stats():
    """Observability for the fallback path, read from the metrics registry:
    total and per-cause damaged entries seen by this process, stale temp
    files removed, and *unique* store entries re-recorded after damage
    (a retried sweep point re-recording the same entry counts once)."""
    reg = registry()
    by_cause = {name[len(CORRUPT_PREFIX) + 1:]: metric.value
                for name, metric in reg.items(CORRUPT_PREFIX)}
    return {
        "corrupt": sum(by_cause.values()),
        "by_cause": by_cause,
        "stale_tmp_removed": reg.value("tracestore.stale_tmp_removed"),
        "rerecords": reg.value("tracestore.rerecords"),
        "read_races": reg.value("store.read_races"),
    }


def _count_damage(exc):
    registry().counter(f"{CORRUPT_PREFIX}.{exc.cause}").inc()


def store_key(scale_name, db_seed, qid, query_seed, node, arena_size,
              lock_check_per_rescan):
    """The identity under which a trace is stored.

    Everything that determines the recorded event stream, and nothing
    else: the database (scale preset + generation seed + the engine's
    per-rescan lock revalidation switch) and the query instance (qid +
    parameter seed + node + private-arena size).
    """
    return (scale_name, db_seed, qid, query_seed, node, arena_size,
            bool(lock_check_per_rescan))


def trace_filename(key):
    """Deterministic file name for ``key``: readable stem + key hash."""
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:12]
    scale_name, _, qid, query_seed, node = key[:5]
    return f"{scale_name}-{qid}-s{query_seed}-n{node}-{digest}{SUFFIX}"


def encode_trace(key, trace):
    """Serialize one trace (plus its identifying ``key``) to bytes."""
    from repro.core.tracecache import QueryTrace  # noqa: F401  (doc anchor)

    rows_blob = pickle.dumps(trace.rows, protocol=pickle.HIGHEST_PROTOCOL)
    # The columns go into the blob straight from their buffers, at their
    # own widths; the one join below is the only copy.
    chunks = [getattr(trace, name) for name in _COLUMNS]
    chunks.append(rows_blob)
    header = {
        "key": list(key),
        "arrays": [[name, arr.typecode, arr.itemsize, len(arr)]
                   for name, arr in zip(_COLUMNS, chunks)],
        "lock_ids": list(trace.lock_ids),
        "n_source_events": trace.n_source_events,
        "rows_len": len(rows_blob),
        "payload_len": sum(memoryview(c).nbytes for c in chunks),
    }
    header_blob = json.dumps(header, separators=(",", ":")).encode()
    crc = zlib.crc32(header_blob)
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return b"".join([_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_blob),
                                  crc), header_blob, *chunks])


def decode_trace(data, expect_key=None):
    """Rebuild a :class:`QueryTrace` from :func:`encode_trace` bytes.

    Raises :class:`TraceStoreError` on any damage or incompatibility;
    never returns a partially decoded trace.  ``expect_key`` additionally
    pins the stored identity (a hash-collision / misfiled-blob guard).
    """
    from repro.core.tracecache import QueryTrace

    if len(data) < _PREFIX.size:
        raise TraceStoreError("blob shorter than the fixed prefix",
                              cause="truncated")
    magic, version, header_len, crc = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise TraceStoreError(f"bad magic {magic!r}", cause="format")
    if version != FORMAT_VERSION:
        raise TraceStoreError(
            f"format version {version} (this writer is {FORMAT_VERSION})",
            cause="format")
    body = memoryview(data)[_PREFIX.size:]  # slices below copy nothing
    if len(body) < header_len:
        raise TraceStoreError("truncated header", cause="truncated")
    try:
        header = json.loads(bytes(body[:header_len]).decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise TraceStoreError(f"undecodable header: {exc}",
                              cause="header") from None
    try:
        key = tuple(header["key"])
        arrays = header["arrays"]
        lock_ids = header["lock_ids"]
        n_source_events = header["n_source_events"]
        rows_len = header["rows_len"]
        payload_len = header["payload_len"]
    except (KeyError, TypeError) as exc:
        raise TraceStoreError(f"malformed header: {exc}",
                              cause="header") from None
    payload = body[header_len:]
    if len(payload) != payload_len:
        raise TraceStoreError(
            f"payload is {len(payload)} bytes, header says {payload_len}",
            cause="truncated")
    if zlib.crc32(body) != crc:
        raise TraceStoreError("checksum mismatch", cause="checksum")
    if expect_key is not None and key != tuple(expect_key):
        raise TraceStoreError(
            f"stored key {key!r} does not match expected {tuple(expect_key)!r}",
            cause="key")

    trace = QueryTrace()
    offset = 0
    for name, typecode, itemsize, count in arrays:
        try:
            arr = array(typecode)  # each column at its stored width
        except (TypeError, ValueError):
            raise TraceStoreError(f"array {name!r}: bad typecode {typecode!r}",
                                  cause="format") from None
        if arr.itemsize != itemsize:
            raise TraceStoreError(
                f"array {name!r}: typecode {typecode!r} is {arr.itemsize} "
                f"bytes here but {itemsize} in the store", cause="format")
        nbytes = itemsize * count
        arr.frombytes(payload[offset:offset + nbytes])
        offset += nbytes
        setattr(trace, name, arr)
    lengths = {len(getattr(trace, name)) for name in _COLUMNS}
    if len(lengths) != 1:
        raise TraceStoreError("column arrays have unequal lengths",
                              cause="arrays")
    try:
        trace.rows = pickle.loads(payload[offset:offset + rows_len])
    except Exception as exc:  # pickle raises a zoo of types on damage
        raise TraceStoreError(f"unpicklable result rows: {exc}",
                              cause="rows") from None
    trace.lock_ids = list(lock_ids)
    trace.n_source_events = n_source_events
    trace._rows_nbytes = rows_len
    return trace, key


def save_trace(directory, key, trace):
    """Write one trace under ``directory``; returns the bytes written.

    The write is atomic (temp file + rename), so a concurrent or crashed
    writer can leave a stale temp file but never a half-written store
    entry.
    """
    os.makedirs(directory, exist_ok=True)
    blob = encode_trace(key, trace)
    path = os.path.join(directory, trace_filename(key))
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)
    return len(blob)


def _writer_racing(path):
    """Whether a live writer's ``*.tmp.<pid>`` sibling of ``path`` exists.

    :func:`save_trace` writes temp-then-rename, so a reader can observe a
    half-replaced entry only in the window where the writer's temp file
    is still on disk (or the rename just landed).  A sibling whose pid is
    alive is exactly that window.
    """
    directory, name = os.path.split(path)
    try:
        siblings = os.listdir(directory)
    except OSError:
        return False
    prefix = name + TMP_MARKER
    for sibling in sorted(siblings):
        if not sibling.startswith(prefix):
            continue
        pid_part = sibling[len(prefix):]
        if not pid_part.isdigit():
            continue
        pid = int(pid_part)
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
            return True  # writer is alive: an in-flight save_trace
        except ProcessLookupError:
            continue
        except OSError:
            return True  # pid exists but is not ours: assume alive
    return False


def load_trace(directory, key, strict=False):
    """Load the trace stored for ``key``; ``(trace, nbytes)`` or ``None``.

    A missing file is a normal cold-cache miss and returns ``None``
    quietly.  Damage -- truncation, checksum failure, version or key
    mismatch -- increments the matching corruption counter, emits a
    :class:`TraceStoreWarning`, and returns ``None`` so callers fall back
    to re-recording; with ``strict=True`` the :class:`TraceStoreError`
    propagates instead.

    One exception: a checksum/truncation failure while a concurrent
    writer's ``*.tmp.<pid>`` sibling exists is a read *race*, not
    corruption -- the entry is re-read once, and a successful retry is
    counted under ``store.read_races`` instead of the corruption
    counters (strict mode included: a race is not damage).
    """
    path = os.path.join(directory, trace_filename(key))
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    try:
        trace, _ = decode_trace(data, expect_key=key)
    except TraceStoreError as exc:
        if exc.cause in ("checksum", "truncated") and _writer_racing(path):
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
                trace, _ = decode_trace(data, expect_key=key)
            except (OSError, TraceStoreError):
                pass  # still unreadable: fall through as real damage
            else:
                registry().counter("store.read_races").inc()
                return trace, len(data)
        _count_damage(exc)
        if strict:
            raise
        # The caller now re-records this entry.  Count re-records per
        # *unique* stored artifact (the entry's path): a sweep point
        # retried after a worker crash re-reads and re-records the same
        # damaged entry once per attempt, but it is still one damaged
        # artifact in the summary.
        registry().unique("tracestore.rerecords").add(str(path))
        warnings.warn(f"damaged trace store entry {path}: {exc} "
                      "(falling back to re-recording)",
                      TraceStoreWarning, stacklevel=2)
        return None
    return trace, len(data)


def clean_stale_temps(directory, max_age=STALE_TMP_AGE):
    """Remove stale ``*.tmp.<pid>`` files a crashed writer left behind.

    A temp file is stale when its writer pid no longer exists (an alive
    pid means a concurrent writer mid-:func:`save_trace`; it is left
    alone), or -- for unparsable names -- when it is older than
    ``max_age`` seconds.  Called whenever a trace directory is opened
    (:class:`~repro.core.tracecache.TraceCache` with a ``trace_dir``).
    Returns the number of files removed.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    removed = 0
    # Wall clock on purpose: it is compared against on-disk mtimes.
    now = time.time()
    for name in names:
        if TMP_MARKER not in name:
            continue
        path = os.path.join(directory, name)
        pid_part = name.rsplit(".", 1)[-1]
        if pid_part.isdigit():
            pid = int(pid_part)
            if pid == os.getpid():
                continue
            try:
                os.kill(pid, 0)
                continue  # writer is alive: an in-flight save_trace
            except ProcessLookupError:
                pass  # writer is gone: stale
            except (PermissionError, OSError):
                continue  # pid exists but is not ours: leave it alone
        else:
            try:
                if now - os.path.getmtime(path) < max_age:
                    continue
            except OSError:
                continue
        try:
            os.remove(path)
            removed += 1
        except OSError:
            pass
    if removed:
        registry().counter("tracestore.stale_tmp_removed").inc(removed)
    return removed
