"""Metrics registry: the one place runtime counters live.

The paper's contribution is systematic *measurement*; the harness applies
the same discipline to itself.  Every counter the pipeline used to thread
through ad-hoc module dicts (``sweep._SUP_STATS``, ``tracestore._CORRUPTION``,
the trace-cache traffic fields) registers here instead, under hierarchical
dotted names (``tracestore.corrupt.checksum``, ``sweep.point.retries``), so
``repro-experiments --time``, the structured run report, and tests all read
one coherent namespace instead of scraping module globals.

Four instrument kinds:

``Counter``
    A monotonically increasing integer (``inc``).
``Gauge``
    A point-in-time value (``set``).
``Histogram``
    Fixed bucket boundaries chosen at creation; ``observe`` drops a sample
    into the first bucket whose upper bound holds it (the last bucket is
    the overflow).  Boundaries are part of the identity: re-registering a
    histogram with different buckets is an error.
``UniqueCounter``
    Counts *distinct* keys (``add``), for "per unique point, not per
    attempt" accounting -- e.g. a trace re-recorded on every retry of a
    crashing sweep point is one damaged artifact, not three.

Registries are cheap plain-dict machines with no locks: each process owns
one (the module-global :func:`registry`), and :meth:`MetricsRegistry.as_dict`
snapshots it for the run report.
"""

import re

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


class MetricError(ValueError):
    """A metric was registered or used inconsistently (bad name, kind
    collision, mismatched histogram buckets)."""


def _check_name(name):
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise MetricError(
            f"bad metric name {name!r}: expected dotted lowercase segments "
            "like 'tracestore.corrupt.checksum'")
    return name


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        if n < 0:
            raise MetricError(f"counter {self.name}: negative increment {n}")
        self.value += n
        return self.value


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value
        return value


class Histogram:
    """Sample distribution over fixed bucket boundaries.

    ``buckets`` are the inclusive upper bounds of the first ``len(buckets)``
    buckets; one implicit overflow bucket catches everything above the last
    boundary.  ``counts`` therefore has ``len(buckets) + 1`` entries.
    """

    __slots__ = ("name", "buckets", "counts", "total", "sum")
    kind = "histogram"

    def __init__(self, name, buckets):
        bounds = tuple(buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise MetricError(
                f"histogram {name}: bucket boundaries must be a non-empty "
                f"ascending sequence, got {bounds!r}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value):
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += 1
        self.sum += value


class UniqueCounter:
    """Counts distinct keys; re-adding a seen key is a no-op.

    Keys are canonicalized with ``repr`` so tuples, lists, and strings that
    denote the same identity collapse, and so the key set survives a JSON
    round trip (:meth:`MetricsRegistry.as_dict`).
    """

    __slots__ = ("name", "keys")
    kind = "unique"

    def __init__(self, name):
        self.name = name
        self.keys = set()

    def add(self, key):
        self.keys.add(repr(key))
        return len(self.keys)

    @property
    def value(self):
        return len(self.keys)


class MetricsRegistry:
    """A namespace of named instruments (see module docstring).

    Accessors are create-or-get: ``registry.counter("sweep.point.retries")``
    registers on first use and returns the same object afterwards.  Asking
    for an existing name as a different kind -- or as a histogram with
    different boundaries -- raises :class:`MetricError`: a name means one
    thing for the whole process.
    """

    def __init__(self):
        self._metrics = {}

    # -- registration ------------------------------------------------------

    def _get(self, name, kind, factory):
        _check_name(name)
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        elif metric.kind != kind:
            raise MetricError(
                f"metric {name!r} is a {metric.kind}, not a {kind}")
        return metric

    def counter(self, name):
        return self._get(name, "counter", lambda: Counter(name))

    def gauge(self, name):
        return self._get(name, "gauge", lambda: Gauge(name))

    def histogram(self, name, buckets):
        hist = self._get(name, "histogram", lambda: Histogram(name, buckets))
        if hist.buckets != tuple(buckets):
            raise MetricError(
                f"histogram {name!r} registered with buckets {hist.buckets}, "
                f"asked for {tuple(buckets)}")
        return hist

    def unique(self, name):
        return self._get(name, "unique", lambda: UniqueCounter(name))

    # -- reading -----------------------------------------------------------

    def value(self, name, default=0):
        """The scalar value of a counter/gauge/unique (histograms have no
        scalar; ask for the object)."""
        metric = self._metrics.get(name)
        return default if metric is None else metric.value

    def items(self, prefix=""):
        """``(name, metric)`` pairs, optionally under a dotted prefix."""
        want = prefix + "." if prefix and not prefix.endswith(".") else prefix
        return sorted((n, m) for n, m in self._metrics.items()
                      if not want or n.startswith(want) or n == prefix)

    # -- snapshot ----------------------------------------------------------

    def as_dict(self):
        """JSON-ready snapshot, grouped by kind; the run report embeds
        this under its ``"metrics"`` key."""
        out = {"counters": {}, "gauges": {}, "histograms": {}, "uniques": {}}
        for name, m in sorted(self._metrics.items()):
            if m.kind == "counter":
                out["counters"][name] = m.value
            elif m.kind == "gauge":
                out["gauges"][name] = m.value
            elif m.kind == "histogram":
                out["histograms"][name] = {
                    "buckets": list(m.buckets), "counts": list(m.counts),
                    "total": m.total, "sum": m.sum,
                }
            else:
                out["uniques"][name] = {"count": len(m.keys),
                                        "keys": sorted(m.keys)}
        return out


#: The process-wide registry every instrumented module writes to.
_REGISTRY = MetricsRegistry()


def registry():
    """This process's :class:`MetricsRegistry`."""
    return _REGISTRY
