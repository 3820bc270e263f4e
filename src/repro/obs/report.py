"""Structured run reports: one machine-readable artifact per run.

``repro-experiments ... --report-out FILE`` writes a schema-versioned JSON
document capturing everything a CI job or a benchmarking trajectory used to
scrape from stdout: the resolved run configuration, per-experiment wall
times and result hashes, the full metrics registry, the phase-span tree,
and the supervisor's recovery events.  Consumers read one file; the
rendered tables stay human-only.

Schema version policy
---------------------

``SCHEMA_VERSION`` is a single integer with additive-only evolution:

- *Adding* a field (top-level or nested) does **not** bump the version;
  validators must ignore fields they do not know.
- *Removing, renaming, or retyping* any documented field bumps the
  version.
- A validator accepts any report whose ``schema_version`` is at most its
  own and rejects newer ones (it cannot know what changed ahead of it).

Reports are pure observations: writing one never alters simulated results
(the acceptance bar is bit-identical counters with reporting on and off).

``python -m repro.obs.report validate FILE`` exits non-zero if ``FILE`` is
not a valid report -- the CI smoke job runs exactly that against its
uploaded artifact.
"""

import hashlib
import json
import time

SCHEMA_VERSION = 1

REPORT_KIND = "repro-run-report"


class ReportValidationError(ValueError):
    """A run report does not conform to the documented schema.

    ``problems`` lists every violation found, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid run report: " + "; ".join(self.problems))


def jsonable(obj):
    """Coerce ``obj`` into JSON-encodable plain data, deterministically.

    Dict keys become strings (non-string keys via ``repr``), tuples become
    lists, and objects exposing ``as_dict()`` (``CpuStats``,
    ``MachineStats``, ``RunConfig``) serialize through it.  A ``set`` or
    ``frozenset`` becomes a list sorted by each element's canonical JSON
    (``json.dumps(..., sort_keys=True)``), so its encoding does not follow
    the process's ``PYTHONHASHSEED``.  Anything else falls back to
    ``repr`` -- a report must never fail to encode.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {(k if isinstance(k, str) else repr(k)): jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((jsonable(v) for v in obj),
                      key=lambda v: json.dumps(v, sort_keys=True))
    as_dict = getattr(obj, "as_dict", None)
    if callable(as_dict):
        return jsonable(as_dict())
    return repr(obj)


def summary_hash(obj):
    """A stable content hash of one experiment's results.

    Canonical JSON (sorted keys, no whitespace) over :func:`jsonable`
    data, SHA-256, first 16 hex digits -- enough to compare two runs'
    simulated output without shipping the full result dicts.
    """
    blob = json.dumps(jsonable(obj), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def build_report(config=None, experiments=(), metrics=None, spans=None,
                 events=None, interrupted=False):
    """Assemble a schema-``SCHEMA_VERSION`` report dict.

    ``experiments`` is an iterable of ``(name, results, seconds)``;
    results are hashed, not embedded.  ``metrics`` is a
    :class:`~repro.obs.metrics.MetricsRegistry` or its ``as_dict()``;
    ``spans`` a span forest (:meth:`~repro.obs.spans.SpanTracer.tree`);
    ``events`` the recorded supervisor events.
    """
    if metrics is not None and not isinstance(metrics, dict):
        metrics = metrics.as_dict()
    exp_rows = [
        {"name": name, "seconds": round(seconds, 6),
         "result_hash": summary_hash(results)}
        for name, results, seconds in experiments
    ]
    return {
        "kind": REPORT_KIND,
        "schema_version": SCHEMA_VERSION,
        # Report metadata only -- generated_unix is never hashed
        # (result_hash covers just each experiment's results)
        "generated_unix": time.time(),
        "config": jsonable(config) if config is not None else {},
        "experiments": exp_rows,
        "interrupted": bool(interrupted),
        "metrics": metrics or {"counters": {}, "gauges": {},
                               "histograms": {}, "uniques": {}},
        "spans": jsonable(spans or []),
        "events": jsonable(events or []),
        "totals": {"seconds": round(sum(r["seconds"] for r in exp_rows), 6)},
    }


def write_report(path, report):
    """Validate ``report`` and write it to ``path`` (2-space indent)."""
    validate_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- validation --------------------------------------------------------------

_NUM = (int, float)


def _check_span(span, path, problems):
    if not isinstance(span, dict):
        problems.append(f"{path}: span is not an object")
        return
    for field, types in (("name", str), ("wall_s", _NUM), ("cpu_s", _NUM)):
        if not isinstance(span.get(field), types):
            problems.append(f"{path}.{field}: missing or wrong type")
    for i, child in enumerate(span.get("children", [])):
        _check_span(child, f"{path}.children[{i}]", problems)


def validate_report(report):
    """Check ``report`` against the documented schema; return it.

    Raises :class:`ReportValidationError` carrying *every* violation.
    Unknown extra fields are ignored (see the version policy above).
    """
    problems = []
    if not isinstance(report, dict):
        raise ReportValidationError(["report is not a JSON object"])
    if report.get("kind") != REPORT_KIND:
        problems.append(f"kind: expected {REPORT_KIND!r}")
    version = report.get("schema_version")
    if not isinstance(version, int):
        problems.append("schema_version: missing or not an integer")
    elif version > SCHEMA_VERSION:
        problems.append(f"schema_version: {version} is newer than this "
                        f"validator ({SCHEMA_VERSION})")
    if not isinstance(report.get("generated_unix"), _NUM):
        problems.append("generated_unix: missing or not a number")
    if not isinstance(report.get("config"), dict):
        problems.append("config: missing or not an object")
    if not isinstance(report.get("interrupted"), bool):
        problems.append("interrupted: missing or not a boolean")

    experiments = report.get("experiments")
    if not isinstance(experiments, list):
        problems.append("experiments: missing or not a list")
    else:
        for i, row in enumerate(experiments):
            if not isinstance(row, dict):
                problems.append(f"experiments[{i}]: not an object")
                continue
            if not isinstance(row.get("name"), str):
                problems.append(f"experiments[{i}].name: missing or not a "
                                "string")
            if not isinstance(row.get("seconds"), _NUM):
                problems.append(f"experiments[{i}].seconds: missing or not "
                                "a number")
            if not isinstance(row.get("result_hash"), str):
                problems.append(f"experiments[{i}].result_hash: missing or "
                                "not a string")

    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics: missing or not an object")
    else:
        for group in ("counters", "gauges"):
            section = metrics.get(group)
            if not isinstance(section, dict):
                problems.append(f"metrics.{group}: missing or not an object")
                continue
            for name, value in section.items():
                if not isinstance(value, _NUM):
                    problems.append(f"metrics.{group}.{name}: not a number")
        hists = metrics.get("histograms")
        if not isinstance(hists, dict):
            problems.append("metrics.histograms: missing or not an object")
        else:
            for name, h in hists.items():
                ok = (isinstance(h, dict)
                      and isinstance(h.get("buckets"), list)
                      and isinstance(h.get("counts"), list)
                      and len(h["counts"]) == len(h["buckets"]) + 1
                      and isinstance(h.get("total"), _NUM)
                      and isinstance(h.get("sum"), _NUM))
                if not ok:
                    problems.append(f"metrics.histograms.{name}: malformed")

    spans = report.get("spans")
    if not isinstance(spans, list):
        problems.append("spans: missing or not a list")
    else:
        for i, span in enumerate(spans):
            _check_span(span, f"spans[{i}]", problems)

    events = report.get("events")
    if not isinstance(events, list):
        problems.append("events: missing or not a list")
    else:
        for i, ev in enumerate(events):
            if not (isinstance(ev, dict) and isinstance(ev.get("kind"), str)
                    and isinstance(ev.get("t_s"), _NUM)):
                problems.append(f"events[{i}]: malformed")

    totals = report.get("totals")
    if not (isinstance(totals, dict) and isinstance(totals.get("seconds"),
                                                    _NUM)):
        problems.append("totals.seconds: missing or not a number")

    if problems:
        raise ReportValidationError(problems)
    return report


def main(argv=None):
    """``python -m repro.obs.report validate FILE`` -- the CI gate."""
    import sys

    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] != "validate":
        print("usage: python -m repro.obs.report validate FILE",
              file=sys.stderr)
        return 2
    try:
        with open(argv[1], encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"{argv[1]}: unreadable report: {exc}", file=sys.stderr)
        return 2
    try:
        validate_report(report)
    except ReportValidationError as exc:
        print(f"{argv[1]}: INVALID", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    n_exp = len(report["experiments"])
    print(f"{argv[1]}: valid run report (schema v{report['schema_version']}, "
          f"{n_exp} experiment(s), {report['totals']['seconds']:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
