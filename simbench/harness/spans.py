"""In-memory span recorder for the traced (staged) benchmark run.

A span is one call into a layer's public function, recorded from the
harness side: name (the layer's module name), start, end, the id of the
span that caused it, and the workload id every span of one run shares.
Spans stay in memory and are written out once, when the run ends.

Self time is a span's duration minus the part of its interval that its
direct children cover; overlapping children are counted once.
"""

import json
from contextlib import contextmanager
from time import perf_counter


class SpanRecorder:
    """Collects the spans of one traced run of one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []

    def _open(self, name, start, meta):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "start": start, "end": None}
        if meta:
            rec["meta"] = meta
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name, **meta):
        """Time the enclosed block as one span; nests by dynamic extent."""
        rec = self._open(name, perf_counter(), meta)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def add(self, name, start, end, **meta):
        """Record a span whose boundaries were observed, not enclosed
        (per-point spans cut from the program's ``point.done`` events).
        Its parent is the innermost open span."""
        rec = self._open(name, start, meta)
        rec["end"] = end
        return rec

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "spans": self.spans}, fh,
                      indent=1)
            fh.write("\n")


def seconds(span):
    """Duration of a finished span record."""
    return span["end"] - span["start"]


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """``{span id: self seconds}`` for a list of span records."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], ())]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - covered(clipped)
    return out


def self_time_by_name(spans, under=None):
    """Self seconds summed per span name.

    ``under`` restricts the sum to the subtree rooted at that span id (the
    root included), which is how the workload's own stages are told apart
    from the micro-measurements recorded beside them.
    """
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def inside(s):
        while s is not None:
            if s["id"] == under:
                return True
            s = by_id.get(s["parent"])
        return False

    out = {}
    for s in spans:
        if under is None or inside(s):
            out[s["name"]] = out.get(s["name"], 0.0) + selfs[s["id"]]
    return out
