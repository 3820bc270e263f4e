"""Live progress for long sweeps, driven by supervisor events.

``repro-experiments --progress`` attaches a :class:`ProgressReporter` to
the event stream (:mod:`repro.obs.events`): each completed, retried, or
recovered sweep point updates a single carriage-return status line on
stderr, so a paper-scale run shows where it is instead of going silent for
minutes.  Output is throttled (one redraw per ``min_interval`` seconds,
plus every terminal state change), overwrites in place, and ends with a
newline when the sweep finishes, so logs stay readable when stderr is a
file.

Progress is strictly a listener: it never touches sweep state, and with
the flag off no reporter is subscribed and the event emitter short-circuits.
"""

import sys
import time

from repro.obs import events


class ProgressReporter:
    """Renders sweep/experiment events as one updating status line."""

    def __init__(self, stream=None, min_interval=0.2):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last_draw = 0.0
        self._dirty_line = False
        self._experiment = None
        self._reset_sweep()

    def _reset_sweep(self):
        self._total = 0
        self._done = 0
        self._retries = 0
        self._respawns = 0
        self._fallbacks = 0
        self._resumed = 0
        self._workers_live = 0
        self._worker_deaths = 0
        self._worker_stale = 0
        self._t0 = time.perf_counter()

    # -- wiring ------------------------------------------------------------

    def attach(self):
        events.subscribe(self)
        return self

    def detach(self):
        events.unsubscribe(self)
        self.end_line()

    # -- event sink --------------------------------------------------------

    def __call__(self, kind, detail):
        if kind == "experiment.start":
            self._experiment = detail.get("name")
        elif kind == "experiment.end":
            self.end_line()
            self._experiment = None
        elif kind == "sweep.start":
            self._reset_sweep()
            self._total = detail.get("total", 0)
            self._draw(force=True)
        elif kind == "point.done":
            self._done += 1
            self._draw(force=self._done == self._total)
        elif kind == "point.retry":
            self._retries += 1
            self._draw()
        elif kind == "worker.respawn":
            self._respawns += 1
            self._draw()
        elif kind == "point.fallback":
            self._fallbacks += 1
            self._draw()
        elif kind == "points.resumed":
            self._resumed += detail.get("count", 0)
            self._draw()
        elif kind == "worker.spawn":
            self._workers_live += 1
            self._draw()
        elif kind == "worker.dead":
            self._workers_live = max(0, self._workers_live - 1)
            self._worker_deaths += 1
            self._draw()
        elif kind == "worker.stale":
            self._worker_stale += 1
            self._draw()
        elif kind == "sweep.end":
            self._draw(force=True)
            self.end_line()

    # -- rendering ---------------------------------------------------------

    def _draw(self, force=False):
        now = time.perf_counter()
        if not force and now - self._last_draw < self.min_interval:
            return
        self._last_draw = now
        name = self._experiment or "sweep"
        line = (f"{name}: {self._done}/{self._total} points"
                f" | {now - self._t0:.1f}s")
        if self._workers_live or self._worker_deaths:
            line += f" | {self._workers_live} workers"
        extras = [(self._retries, "retries"), (self._respawns, "respawns"),
                  (self._fallbacks, "fallbacks"), (self._resumed, "resumed"),
                  (self._worker_deaths, "worker deaths"),
                  (self._worker_stale, "stale")]
        for count, label in extras:
            if count:
                line += f" | {count} {label}"
        self.stream.write("\r" + line.ljust(78))
        self.stream.flush()
        self._dirty_line = True

    def end_line(self):
        if self._dirty_line:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty_line = False
