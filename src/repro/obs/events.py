"""Run events: the supervisor's recovery actions as a observable stream.

The sweep supervisor already *does* the interesting things -- retries,
worker respawns, timeouts, in-process fallbacks, checkpoint resumes -- but
used to report them only as end-of-run counter totals.  This module gives
those moments a live channel: the supervisor calls :func:`emit`, and

- subscribed listeners (the ``--progress`` display) see each event as it
  happens, and
- when observability is on, events are recorded (kind, relative timestamp,
  detail dict) and land in the run report's ``"events"`` list, so a CI
  trajectory can ask "how many respawns did that run take, and when?"
  without parsing stdout.

With observability off and no listeners, :func:`emit` is two truth tests.
Events never influence execution; they are strictly write-only telemetry.
"""

import time

#: Recorded events (``record`` mode only): list of plain dicts.
_RECORDED = []
_RECORDING = False
_LISTENERS = []
_T0 = None


def set_recording(on):
    """Turn event recording on/off (the report path); clears the buffer."""
    global _RECORDING, _T0
    _RECORDING = bool(on)
    _RECORDED.clear()
    _T0 = time.monotonic() if on else None


def subscribe(listener):
    """Register ``listener(kind, detail_dict)`` for live events."""
    _LISTENERS.append(listener)


def unsubscribe(listener):
    try:
        _LISTENERS.remove(listener)
    except ValueError:
        pass


def emit(kind, **detail):
    """Publish one event to listeners and (when recording) the buffer."""
    if _LISTENERS:
        for listener in list(_LISTENERS):
            listener(kind, detail)
    if _RECORDING:
        _RECORDED.append({"kind": kind,
                          "t_s": round(time.monotonic() - _T0, 6),
                          "detail": detail})


def recorded():
    """The recorded event list (shared; callers must not mutate)."""
    return list(_RECORDED)
