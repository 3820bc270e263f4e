"""Tests for the kernel state-equivalence rule (KRN001/KRN002).

The rule diffs the *transitive effect summaries* of the fast replay
roots (batched, horizon) against the scalar oracle: a fast path gaining
an (atom, op) write the scalar path never performs is exactly the bug
class PR 7 shipped (a victim-only eviction probe that reordered L2
recency via ``pop``/``append``), so the regression test here re-injects
that probe into the real tree and asserts the rule catches it
statically.
"""

import os
import textwrap

from repro.analysis import effects
from repro.analysis.model import FileModel

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEMSIM = os.path.join(REPO_ROOT, "src", "repro", "memsim")
INTERLEAVE = os.path.join(MEMSIM, "interleave.py")


def memsim_facts(patched=None):
    """Effect facts for the real memsim tree, with optional text overrides."""
    patched = patched or {}
    out = []
    for name in sorted(os.listdir(MEMSIM)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(MEMSIM, name)
        text = patched.get(path)
        if text is None:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        out.append(effects.collect_facts(FileModel(path, text)))
    return out


def inject_probe(cover=False):
    """Re-introduce PR 7's victim-only eviction probe into the horizon
    kernel: pop+append on an L2 way list the scalar oracle only ever
    touches with insert/remove/pop-at-eviction."""
    with open(INTERLEAVE, encoding="utf-8") as f:
        lines = f.read().splitlines(keepends=True)
    start = next(i for i, ln in enumerate(lines)
                 if "def _run_traces_horizon" in ln)
    at = next(i for i in range(start, len(lines))
              if "for w in ways2:" in lines[i])
    indent = " " * (len(lines[at]) - len(lines[at].lstrip()))
    probe = []
    if cover:
        probe.append(f"{indent}probe = ways2.pop()"
                     f"  # repro: oracle-covered[l2.sets:pop]\n")
        probe.append(f"{indent}ways2.append(probe)"
                     f"  # repro: oracle-covered[l2.sets:append]\n")
    else:
        probe.append(f"{indent}probe = ways2.pop()\n")
        probe.append(f"{indent}ways2.append(probe)\n")
    return "".join(lines[:at] + probe + lines[at:])


def test_current_tree_is_equivalent():
    rule = effects.KernelEquivalenceRule()
    assert rule.check_project(memsim_facts()) == []


def test_pr7_probe_regression_is_flagged():
    fx = memsim_facts(patched={INTERLEAVE: inject_probe()})
    findings = effects.KernelEquivalenceRule().check_project(fx)
    assert findings, "the re-injected eviction probe must be caught"
    assert all(f.rule == "KRN002" for f in findings)
    assert any("l2.sets" in f.message and "append" in f.message
               for f in findings)


def test_oracle_covered_contract_silences_the_probe():
    fx = memsim_facts(patched={INTERLEAVE: inject_probe(cover=True)})
    assert effects.KernelEquivalenceRule().check_project(fx) == []


# -- planner purity (KRN001) -------------------------------------------------


def planner_facts(tmp_path, source):
    path = tmp_path / "repro" / "memsim" / "batch.py"
    path.parent.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (path.parent / "__init__.py").write_text("")
    path.write_text(textwrap.dedent(source))
    return [effects.collect_facts(FileModel(str(path), path.read_text()))]


def test_planner_writing_oracle_state_is_impure(tmp_path):
    fx = planner_facts(tmp_path, """
        def plan(machine, entry):
            machine.wb[0].entries.append(entry)
            return entry
    """)
    findings = effects.KernelEquivalenceRule().check_project(fx)
    assert [f.rule for f in findings] == ["KRN001"]
    assert "wb.entries" in findings[0].message


def test_planner_writing_machine_bookkeeping_is_impure(tmp_path):
    """No machine attribute is planner-private: even the per-node port
    bookkeeping, which no counter reports directly, is oracle state."""
    fx = planner_facts(tmp_path, """
        def plan(machine, node):
            machine._port_free[node] = 0
            return node
    """)
    findings = effects.KernelEquivalenceRule().check_project(fx)
    assert [f.rule for f in findings] == ["KRN001"]
    assert "machine.port" in findings[0].message
