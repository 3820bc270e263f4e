"""repro.analysis -- repo-aware static analysis for the simulator.

The paper's numbers rest on bit-exact, deterministic simulation and on
fast replay kernels that mutate exactly the state the scalar oracle
mutates.  This package checks both statically, run as ``python -m
repro.analysis check src/`` (blocking in CI) or through the library API
below.  Two rule families, each kept because it has caught a real bug:

* ``KRN`` -- kernel state-equivalence: the fast replay paths' transitive
  effect summaries vs the scalar oracle (:mod:`repro.analysis.effects`)
* ``TNT`` -- interprocedural determinism taint: nondeterministic sources
  flowing to result-affecting sinks (:mod:`repro.analysis.taint`)

The whole-program core under both -- the import-resolving call graph
(:mod:`repro.analysis.callgraph`) and per-function effect summaries -- is
also queryable directly via the ``effects`` and ``graph`` CLI commands.

Findings are silenced inline only: ``# repro: allow[RULE] why`` on the
offending line or the line above it.
"""

from repro.analysis.engine import (CheckResult, analyze_file, check,
                                   collect_files, gather_facts,
                                   rule_catalogue)
from repro.analysis.model import FileModel, Finding
from repro.analysis.reporters import json_report, text_report

__all__ = [
    "CheckResult",
    "FileModel",
    "Finding",
    "analyze_file",
    "check",
    "collect_files",
    "gather_facts",
    "json_report",
    "rule_catalogue",
    "text_report",
]
