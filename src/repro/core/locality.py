"""Trace analysis: spatial and temporal locality per data structure.

Section 3 of the paper reasons qualitatively about the locality of each
software data structure (tuples have spatial locality; indices have
temporal locality in their upper levels; sequential scans reuse nothing
within a query).  This module turns a reference stream -- the same event
stream that drives the simulator -- into quantitative locality metrics, so
those claims become measurable:

* **spatial locality**: line utilization (bytes touched per distinct cache
  line) and the fraction of accesses that hit an adjacent-line
  neighbourhood;
* **temporal locality**: exact LRU reuse-distance histograms, computed with
  a Fenwick tree over last-access timestamps (O(log n) per access).

Reuse distances are measured in *distinct lines touched in between*, so a
distance below a cache's line capacity means the access would hit in a
fully-associative cache of that size.
"""

from repro.memsim.events import (
    CLASS_NAMES, DataClass, EV_LOCK_ACQ, EV_LOCK_REL, EV_READ, EV_WRITE,
    N_CLASSES,
)

#: Reuse-distance histogram bucket upper bounds (in distinct lines).
REUSE_BUCKETS = (8, 64, 512, 4096)


class _Fenwick:
    """Binary indexed tree over access timestamps."""

    __slots__ = ("tree", "size")

    def __init__(self, size):
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, pos, delta):
        pos += 1
        tree = self.tree
        while pos <= self.size:
            tree[pos] += delta
            pos += pos & (-pos)

    def prefix(self, pos):
        pos += 1
        total = 0
        tree = self.tree
        while pos > 0:
            total += tree[pos]
            pos -= pos & (-pos)
        return total


class ClassLocality:
    """Locality metrics for one data-structure class."""

    __slots__ = ("refs", "bytes", "lines_touched", "bytes_per_line",
                 "reuse_hist", "cold", "sequential_refs", "line_size")

    def __init__(self, line_size):
        self.line_size = line_size
        self.refs = 0
        self.bytes = 0
        self.lines_touched = set()
        self.bytes_per_line = {}
        self.reuse_hist = [0] * (len(REUSE_BUCKETS) + 1)
        self.cold = 0
        self.sequential_refs = 0

    @property
    def footprint(self):
        """Distinct bytes touched, rounded up to lines."""
        return len(self.lines_touched) * self.line_size

    @property
    def line_utilization(self):
        """Average fraction of each touched line that was actually read."""
        if not self.bytes_per_line:
            return 0.0
        used = sum(min(b, self.line_size) for b in self.bytes_per_line.values())
        return used / (len(self.bytes_per_line) * self.line_size)

    @property
    def sequential_fraction(self):
        """Fraction of line transitions that moved to an adjacent line."""
        return self.sequential_refs / self.refs if self.refs else 0.0

    def temporal_score(self, capacity_lines=64):
        """Fraction of line accesses that re-use a line within ``capacity``.

        Approximates the hit rate of a fully-associative cache with
        ``capacity_lines`` lines.
        """
        total = sum(self.reuse_hist) + self.cold
        if not total:
            return 0.0
        close = 0
        for bound, count in zip(REUSE_BUCKETS, self.reuse_hist):
            if bound <= capacity_lines:
                close += count
        return close / total

    def reuse_histogram(self):
        """Return ``{bucket_label: count}`` including the cold bucket."""
        labels = [f"<{b}" for b in REUSE_BUCKETS] + [f">={REUSE_BUCKETS[-1]}"]
        out = dict(zip(labels, self.reuse_hist))
        out["cold"] = self.cold
        return out


class LocalityReport:
    """Per-class locality metrics extracted from a reference stream."""

    def __init__(self, line_size=32):
        self.line_size = line_size
        self.classes = [ClassLocality(line_size) for _ in range(N_CLASSES)]
        self._last_seen = {}
        self._fenwick = None
        self._timestamps = 0
        self._events = []

    def summary(self):
        """Return ``{class_name: metrics dict}`` for non-empty classes."""
        out = {}
        for c in range(N_CLASSES):
            cl = self.classes[c]
            if cl.refs == 0:
                continue
            out[CLASS_NAMES[DataClass(c)]] = {
                "refs": cl.refs,
                "bytes": cl.bytes,
                "footprint": cl.footprint,
                "line_utilization": round(cl.line_utilization, 3),
                "sequential_fraction": round(cl.sequential_fraction, 3),
                "temporal_score": round(cl.temporal_score(), 3),
                "reuse": cl.reuse_histogram(),
            }
        return out


def analyze(events, line_size=32, max_lines=1 << 22):
    """Analyze a reference stream; returns a :class:`LocalityReport`.

    ``events`` is any iterable of engine events; only reads and writes are
    considered.  Rows (lists) mixed into operator pipelines are ignored, so
    an operator's raw output can be passed directly.
    """
    report = LocalityReport(line_size)
    classes = report.classes
    shift = line_size.bit_length() - 1

    # Pass 1 happens on the fly: we time-stamp line accesses and compute
    # exact LRU stack distances with a Fenwick tree sized by access count.
    # Since the count is unknown up front, buffer (line, cls, prev_line).
    accesses = []
    last_line = {}
    for ev in events:
        if type(ev) is not tuple:
            continue
        kind = ev[0]
        if kind == EV_READ or kind == EV_WRITE:
            _, addr, size, cls = ev
        elif kind == EV_LOCK_ACQ or kind == EV_LOCK_REL:
            # Spinlock operations are read-modify-writes on the lock word.
            addr, size, cls = ev[2], 4, ev[3]
        else:
            continue
        cl = classes[cls]
        cl.refs += 1
        cl.bytes += size
        first = addr >> shift
        last = (addr + size - 1) >> shift
        prev = last_line.get(cls)
        # "Streaming" = staying on the previous line or moving a short
        # distance forward (within a tuple-stride neighbourhood).
        if prev is not None and prev <= first <= prev + 8:
            cl.sequential_refs += 1
        last_line[cls] = last
        for line in range(first, last + 1):
            cl.lines_touched.add(line)
            used = cl.bytes_per_line.get(line, 0)
            span = min(size, line_size)
            cl.bytes_per_line[line] = used + span
            accesses.append((line, cls))
            if len(accesses) > max_lines:
                raise MemoryError(
                    f"trace too long to analyze exactly (> {max_lines} line "
                    "accesses); analyze a shorter window"
                )

    n = len(accesses)
    fen = _Fenwick(n)
    last_pos = {}
    for t, (line, cls) in enumerate(accesses):
        cl = classes[cls]
        prev = last_pos.get(line)
        if prev is None:
            cl.cold += 1
        else:
            distance = fen.prefix(t - 1) - fen.prefix(prev)
            for i, bound in enumerate(REUSE_BUCKETS):
                if distance < bound:
                    cl.reuse_hist[i] += 1
                    break
            else:
                cl.reuse_hist[-1] += 1
            fen.add(prev, -1)
        fen.add(t, 1)
        last_pos[line] = t
    return report


def analyze_query(db, sql, backend=None, hints=None, line_size=32):
    """Run a query untraced-by-the-machine and analyze its reference stream."""
    backend = backend or db.backend(0)
    gen = db.execute(sql, backend, hints=hints)
    return analyze(_event_iter(gen), line_size=line_size)


def _event_iter(gen):
    try:
        while True:
            yield next(gen)
    except StopIteration:
        return
