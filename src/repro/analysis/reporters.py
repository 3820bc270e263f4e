"""Finding reporters: compiler-style text and an obs-convention JSON report.

The JSON shape follows ``repro.obs.report``: a ``kind`` tag, an explicit
``schema_version`` evolved additively, ``generated_at`` wall-clock stamp
(reports are observability, not results), and a ``summary_hash`` over the
canonicalized findings so two runs over the same tree can be compared by
one field.
"""

import json
import os
import time

#: Bump only when a field changes meaning or disappears; adding is free.
SCHEMA_VERSION = 2
REPORT_KIND = "repro-analysis-report"


def text_report(findings, *, root=None, suppressed=0):
    """Compiler-style lines: ``path:line:col: RULE message``."""
    lines = []
    for f in findings:
        path = f.path
        if root:
            try:
                path = os.path.relpath(path, root)
            except ValueError:
                pass
        lines.append(f"{path}:{f.line}:{f.col}: {f.rule} {f.message}")
    noun = "finding" if len(findings) == 1 else "findings"
    tail = f"{len(findings)} {noun}"
    if suppressed:
        tail += f", {suppressed} suppressed inline"
    lines.append(tail)
    return "\n".join(lines)


def _summary_hash(payload):
    # Same recipe as repro.obs.report.summary_hash: canonical JSON,
    # sha256, first 16 hex -- without importing repro.obs at lint time.
    import hashlib
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def json_report(findings, *, root=None, files_checked=0, suppressed=0,
                rules=()):
    """The findings as an obs-convention report dict."""
    items = []
    for f in findings:
        d = f.as_dict()
        if root:
            try:
                d["path"] = os.path.relpath(d["path"], root).replace(
                    os.sep, "/")
            except ValueError:
                pass
        items.append(d)
    body = {
        "findings": items,
        "counts": {
            "new": len(items),
            "suppressed": suppressed,
            "files_checked": files_checked,
        },
        "rules": sorted(rules),
    }
    return {
        "kind": REPORT_KIND,
        "schema_version": SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S",
                                      time.gmtime()) + "Z",
        "summary_hash": _summary_hash(body),
        **body,
    }
