"""The analysis engine: file collection, one serial per-file pass, project
pass, and inline suppression.

The one rule, TNT001, needs the whole program.  The per-file pass parses
one file and returns its taint *facts* (sources, calls and sinks per
function) plus the file's suppression map, and :func:`check` joins them
in one interprocedural solve.

Everything is deterministic: files are visited in sorted order, findings
sort before reporting, and the per-file pass is a pure function of file
content.
"""

import os
from dataclasses import dataclass, field

from repro.analysis import taint
from repro.analysis.model import FileModel, Finding

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".trace-store", "build", "dist"}


def rule_catalogue():
    """``(id, title)`` for every rule, sorted by id."""
    return [(taint.RULE_ID, taint.RULE_TITLE)]


def collect_files(paths):
    """All ``.py`` files under ``paths``, absolute and sorted.

    Raises :class:`FileNotFoundError` for a path that does not exist, so
    a mistyped path fails loudly instead of checking nothing.
    """
    out = set()
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        path = os.path.abspath(path)
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.add(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in _SKIP_DIRS and not d.startswith(".")
                and not d.endswith(".egg-info"))
            for name in filenames:
                if name.endswith(".py"):
                    out.add(os.path.join(dirpath, name))
    return sorted(out)


def analyze_file(path):
    """The per-file pass: ``(findings, facts, suppressions)``.

    ``facts`` is the file's taint fragment, or ``None`` for an
    unparseable file.  Pure function of the file's content.  Unparseable
    files yield a single ``PARSE`` finding so a syntax error fails the
    check instead of silently shrinking its coverage.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        model = FileModel(path, text)
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        line = getattr(exc, "lineno", None) or 0
        return ([Finding(rule="PARSE", path=os.path.abspath(path),
                         line=line, col=0,
                         message=f"file could not be analyzed: {exc}")],
                None, {})
    return [], taint.collect_facts(model), model.suppressions


@dataclass
class CheckResult:
    """Everything one check run produced (before rendering)."""

    findings: list = field(default_factory=list)  #: sorted
    suppressed: int = 0     #: findings silenced by inline allows
    files_checked: int = 0

    @property
    def ok(self):
        return not self.findings


def _is_suppressed(finding, suppressions_by_path):
    """Whether an allow comment on the finding's line (or the line above
    it) names the finding's rule (or ``*``)."""
    per_file = suppressions_by_path.get(finding.path, {})
    for lineno in (finding.line, finding.line - 1):
        rules = per_file.get(lineno)
        if rules and (finding.rule in rules or "*" in rules):
            return True
    return False


def check(paths):
    """Analyze ``paths`` and return a :class:`CheckResult`."""
    files = collect_files(paths)
    findings = []
    all_facts = []
    suppressions_by_path = {}
    for path in files:
        file_findings, facts, suppressions = analyze_file(path)
        findings.extend(file_findings)
        if facts is not None:
            all_facts.append(facts)
        suppressions_by_path[path] = suppressions

    n_suppressed = 0
    for finding in taint.solve(all_facts):
        if _is_suppressed(finding, suppressions_by_path):
            n_suppressed += 1
        else:
            findings.append(finding)

    findings.sort(key=lambda f: f.sort_key())
    return CheckResult(findings=findings, suppressed=n_suppressed,
                       files_checked=len(files))
