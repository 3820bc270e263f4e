"""Phase spans: start/stop tracing around the pipeline stages.

A span measures one phase of the run -- ``dbgen``, ``record``, ``encode``,
``replay``, ``sweep-point``, ``ledger-complete``, ``worker-respawn``,
``experiment`` -- with wall-clock *and* CPU time, nested parent-child the
way the phases actually contain each other (a ``sweep-point`` contains its
``replay``; an ``experiment`` contains its points).  The finished tree is
emitted into the structured run report and renders the same execution-time
decomposition for the harness that Figure 6 renders for the simulated
machine.

Tracing is *gated*: with observability off (the default), ``span()``
returns a shared no-op context manager and the instrumented code paths pay
one attribute load and a truth test -- measured in nanoseconds, so sweep
hot paths stay within the ≤2% overhead budget, and nothing here ever
touches simulation state (results are bit-identical either way).

Spans are process-local.  ``repro-sweep-worker`` processes trace into
their own tracer, which dies with them; the parent supervises per-point
wall time itself (the ``sweep.point.seconds`` histogram), so the report
still accounts for worker-side work.
"""

import time
from contextlib import contextmanager


class Span:
    """One timed phase: name, optional metadata, timings, children."""

    __slots__ = ("name", "meta", "wall_s", "cpu_s", "children",
                 "_t0_wall", "_t0_cpu")

    def __init__(self, name, meta=None):
        self.name = name
        self.meta = meta or {}
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.children = []
        self._t0_wall = time.perf_counter()
        self._t0_cpu = time.process_time()

    def finish(self):
        self.wall_s = time.perf_counter() - self._t0_wall
        self.cpu_s = time.process_time() - self._t0_cpu

    def as_dict(self):
        out = {"name": self.name, "wall_s": self.wall_s, "cpu_s": self.cpu_s}
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out


class _NullContext:
    """The disabled-tracing span: enter/exit do nothing, one shared
    instance, no allocation per call."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullContext()


class SpanTracer:
    """Collects a forest of :class:`Span` trees for one process.

    ``enabled`` gates everything: a disabled tracer's :meth:`span` is a
    no-op.  Nesting is by dynamic extent -- a span opened while another is
    active becomes its child -- which matches the pipeline's call
    structure.
    """

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.roots = []
        self._stack = []

    def span(self, name, /, **meta):
        """Context manager timing one phase (no-op when disabled).

        ``name`` is positional-only so metadata keys are unrestricted
        (``span("experiment", name="fig8")`` tags the phase with a
        ``name`` attribute).
        """
        if not self.enabled:
            return _NULL
        return self._span(name, meta)

    @contextmanager
    def _span(self, name, meta):
        span = Span(name, meta)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self.roots).append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.finish()
            self._stack.pop()

    def current(self):
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def tree(self):
        """The completed span forest as a list of nested plain dicts."""
        return [s.as_dict() for s in self.roots]

    def reset(self):
        self.roots = []
        self._stack = []


#: The process-wide tracer; :func:`repro.obs.enable` switches it on.
_TRACER = SpanTracer()


def tracer():
    """This process's :class:`SpanTracer`."""
    return _TRACER


def span(name, /, **meta):
    """Open a phase span on the process tracer (no-op unless enabled)."""
    return _TRACER.span(name, **meta)
