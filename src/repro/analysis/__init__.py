"""repro.analysis -- repo-aware static analysis for the simulator.

The paper's numbers rest on bit-exact, deterministic simulation.  This
package checks the determinism half statically, run as ``python -m
repro.analysis check src/`` (blocking in CI) or through the library API
below.  It has one rule, kept because it has caught a real bug:

* ``TNT001`` -- interprocedural determinism taint: nondeterministic
  sources flowing to result-affecting sinks (:mod:`repro.analysis.taint`)
  over the import-resolving call graph (:mod:`repro.analysis.callgraph`).

The other half, the fast replay kernels' bit-identity with the scalar
oracle, is checked at runtime by the tier-1 suite (``tests/test_batch.py``
runs every kernel on adversarial traces).

Findings are silenced inline only: ``# repro: allow[RULE] why`` on the
offending line or the line above it.
"""

from repro.analysis.engine import (CheckResult, analyze_file, check,
                                   collect_files, rule_catalogue)
from repro.analysis.model import FileModel, Finding
from repro.analysis.reporters import json_report, text_report

__all__ = [
    "CheckResult",
    "FileModel",
    "Finding",
    "analyze_file",
    "check",
    "collect_files",
    "json_report",
    "rule_catalogue",
    "text_report",
]
