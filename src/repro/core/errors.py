"""Typed error taxonomy for the experiment infrastructure.

The reproduction treats traces and partial sweep results as durable
artifacts, so every infrastructure failure mode has a dedicated type that
carries enough context to act on: which point, how many attempts, what the
workers reported.  Callers that want "any sweep-layer problem" catch
:class:`SweepError`; callers that want "any repro infrastructure problem"
catch :class:`ReproError`.

``TraceStoreError`` lives here (re-exported by :mod:`repro.core.tracestore`
for compatibility) because the store's damage taxonomy -- the ``cause``
attribute -- feeds the per-cause corruption counters that
``repro-experiments --time`` reports.

Every type also declares whether the failure is *retryable* (``retryable``
class attribute, read through :func:`is_retryable`): the sweep supervisor
uses the classification to decide between "charge an attempt and requeue"
and "stop burning the retry budget, go straight to in-process
degradation".  The classification must survive the worker protocol, so
:func:`encode_error` / :func:`decode_error` round-trip any exception
through plain JSON-able dicts: known repro types come back
as themselves (message, point identity, cause taxonomy and all); foreign
types come back as :class:`RemoteWorkerError` carrying the original type
name -- never a pickled exception object.
"""


class ReproError(Exception):
    """Base class for every typed error the experiment stack raises.

    ``retryable`` classifies whether re-running the failed operation can
    plausibly succeed; subclasses override it, callers read it through
    :func:`is_retryable`.
    """

    retryable = True


class TraceStoreError(ReproError):
    """A stored trace is missing, damaged, or from an incompatible writer.

    ``cause`` classifies the damage for the corruption counters:
    ``"truncated"``, ``"checksum"``, ``"format"``, ``"header"``, ``"key"``,
    ``"arrays"``, ``"rows"``, or ``"other"``.  Not retryable: another
    worker would read the same damaged entry, so the sweep supervisor hands
    the point straight to the parent, which re-records it (or, in strict
    mode, fails).  :func:`~repro.core.tracestore.load_trace` already
    re-reads once on a write race.
    """

    retryable = False

    def __init__(self, message, cause="other"):
        super().__init__(message)
        self.cause = cause


class TraceStoreWarning(UserWarning):
    """A damaged store entry was detected and silently fallen back from.

    Emitted (once per damaged load) in default mode, where the cache
    re-records; ``--strict-store`` raises :class:`TraceStoreError` instead.
    """


class LedgerError(ReproError):
    """The sweep ledger could not be opened, locked or written -- another
    live sweep holds it -- or the checkpoint directory holds only a
    pre-ledger journal.

    Not retryable: the ledger lives in the parent, and a directory that
    cannot be created now will not create itself on the next attempt.
    """

    retryable = False


class SweepError(ReproError):
    """Base class for sweep-execution failures (see :mod:`repro.core.sweep`)."""


class PointFailure(SweepError):
    """One sweep point failed every recovery path.

    Raised only after bounded worker retries *and* the in-process
    degradation run have all failed; carries the point identity and the
    original error so the failure is actionable without a worker traceback.
    Not retryable by definition: it is the terminal verdict.
    """

    retryable = False

    def __init__(self, message, point_key=None, qid=None, attempts=0,
                 cause=None):
        super().__init__(message)
        self.point_key = point_key
        self.qid = qid
        self.attempts = attempts
        self.cause = cause


class PointTimeout(PointFailure):
    """A sweep point exceeded the per-point timeout (hung worker)."""


class InvalidPointResult(PointFailure):
    """A worker returned something that is not a summary dict (garbage)."""


class WorkerError(SweepError):
    """A sweep worker misbehaved: died, desynchronized, or went silent.

    Retryable: the point it was computing is deterministic and another
    worker (or the parent) can redo it.  ``worker_id`` names the culprit
    for the per-worker health events.
    """

    def __init__(self, message, worker_id=None, point_key=None, qid=None,
                 attempts=0, cause=None):
        super().__init__(message)
        self.worker_id = worker_id
        self.point_key = point_key
        self.qid = qid
        self.attempts = attempts
        self.cause = cause


class WorkerProtocolError(WorkerError):
    """A protocol frame from a worker was damaged (bad length prefix,
    CRC mismatch, undecodable payload).  The stream past the damage is
    unsynchronized, so the worker is killed and respawned; the point is
    retryable."""


class LeaseExpired(WorkerError):
    """A worker went silent past ``lease_ttl`` holding a point (stalled
    heartbeat, partition).

    The worker was killed and the point requeued; retryable by
    construction.
    """


class RemoteWorkerError(WorkerError):
    """An error type the parent does not know, reported over the protocol.

    ``remote_type`` preserves the original class name; ``retryable``
    is whatever the worker-side classification said (carried on the wire,
    set per instance by :func:`decode_error`).
    """

    def __init__(self, message, remote_type="Exception", **kwargs):
        super().__init__(message, **kwargs)
        self.remote_type = remote_type


def is_retryable(exc):
    """Whether re-attempting the operation that raised ``exc`` can succeed.

    Repro types carry their own classification; foreign exceptions default
    to retryable ``True`` (a transient environment problem is the common
    case, and retries are bounded anyway).
    """
    return bool(getattr(exc, "retryable", True))


# -- wire codec ------------------------------------------------------------

#: Attribute names :func:`encode_error` carries for typed errors (absent
#: attributes are simply skipped, so the codec never invents fields).
_WIRE_ATTRS = ("point_key", "qid", "attempts", "cause", "worker_id",
               "remote_type")

#: ``type name -> class`` for every error :func:`decode_error` can rebuild
#: exactly.  Anything else becomes :class:`RemoteWorkerError`.
_WIRE_TYPES = {
    cls.__name__: cls
    for cls in (TraceStoreError, LedgerError, SweepError,
                PointFailure, PointTimeout, InvalidPointResult, WorkerError,
                WorkerProtocolError, LeaseExpired, RemoteWorkerError)
}


def encode_error(exc):
    """Flatten any exception to a JSON-able dict for the worker protocol.

    The dict carries the type name, message, retryability, and whichever
    :data:`_WIRE_ATTRS` the instance has.  A chained ``cause`` that is
    itself an exception is stringified -- the wire carries diagnosis
    context, never live objects.
    """
    attrs = {}
    for name in _WIRE_ATTRS:
        value = getattr(exc, name, None)
        if value is None:
            continue
        if isinstance(value, BaseException):
            value = f"{type(value).__name__}: {value}"
        elif isinstance(value, tuple):
            value = list(value)
        attrs[name] = value
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "retryable": is_retryable(exc),
        "attrs": attrs,
    }


def decode_error(data):
    """Rebuild an exception from :func:`encode_error` output.

    Known repro types come back as themselves with their attributes and
    class-level retryability; unknown types come back as
    :class:`RemoteWorkerError` with the wire's retryability flag, so the
    classification survives even for errors defined worker-side only.
    A malformed ``data`` yields a :class:`WorkerProtocolError` instead of
    raising -- the decoder is itself on the failure path.
    """
    if not isinstance(data, dict) or "message" not in data:
        return WorkerProtocolError(
            f"malformed error frame payload: {data!r}")
    name = data.get("type", "Exception")
    attrs = data.get("attrs") or {}
    if not isinstance(attrs, dict):
        attrs = {}
    if "point_key" in attrs and isinstance(attrs["point_key"], list):
        attrs = dict(attrs, point_key=tuple(attrs["point_key"]))
    cls = _WIRE_TYPES.get(name)
    try:
        if cls is TraceStoreError:
            exc = TraceStoreError(data["message"],
                                  cause=attrs.get("cause", "other"))
        elif cls is not None:
            kwargs = {k: v for k, v in attrs.items()
                      if k in _ctor_kwargs(cls)}
            exc = cls(data["message"], **kwargs)
        else:
            exc = RemoteWorkerError(data["message"], remote_type=name)
            exc.retryable = bool(data.get("retryable", True))
    except TypeError:
        exc = RemoteWorkerError(data["message"], remote_type=name)
        exc.retryable = bool(data.get("retryable", True))
    return exc


def _ctor_kwargs(cls):
    """Keyword arguments ``cls``'s constructor accepts beyond the message."""
    if issubclass(cls, WorkerError):
        kwargs = {"worker_id", "point_key", "qid", "attempts", "cause"}
        if cls is RemoteWorkerError:
            kwargs.add("remote_type")
        return kwargs
    if issubclass(cls, PointFailure):
        return {"point_key", "qid", "attempts", "cause"}
    return set()
