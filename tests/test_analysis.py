"""Tests for the static-analysis pass (repro.analysis).

Two layers: machinery tests (suppressions, reporters, engine), and the
self-check -- the shipped rule must find zero issues in the shipped
``src/`` tree, which is exactly what the blocking CI job asserts.  The
rule itself (TNT001) is tested in ``test_taint.py``.
"""

import json
import os
import re
import textwrap
import tokenize

from repro.analysis.__main__ import main
from repro.analysis.engine import (analyze_file, check, collect_files,
                                   rule_catalogue)
from repro.analysis.model import Finding, module_name
from repro.analysis.reporters import json_report, text_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

_HASH_OF_CLOCK = """
    import time
    from repro.obs.report import summary_hash
    def f():
        return summary_hash(time.time())
"""


# -- suppressions ------------------------------------------------------------


def test_inline_suppression_silences_only_named_rule(tmp_path):
    mod = tmp_path / "repro" / "db" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(textwrap.dedent("""
        import time
        from repro.obs.report import summary_hash
        def a():
            return summary_hash(time.time())  # repro: allow[TNT001] justified
        def b():
            return summary_hash(time.time())  # repro: allow[KRN002] wrong rule
        def c():
            # repro: allow[*]
            return summary_hash(time.time())
    """))
    result = check([str(tmp_path)])
    assert [(f.rule, f.line) for f in result.findings] == [("TNT001", 7)]


def test_suppression_comments_name_live_rules():
    """Every ``# repro:`` comment in src/ and scripts/ is live: an
    ``allow[...]`` names catalogued rule ids (or ``*``), and no other
    directive exists -- a marker left behind by a deleted rule (such as
    a kernel-equivalence ``oracle-covered[...]`` contract) fails here
    instead of lingering as dead text."""
    assert [rule_id for rule_id, _ in rule_catalogue()] == ["TNT001"]
    live = {rule_id for rule_id, _ in rule_catalogue()} | {"*"}
    directive = re.compile(r"#\s*repro:\s*([\w-]+)(?:\[([^\]]*)\])?")
    stale = []
    for path in collect_files([SRC, os.path.join(REPO_ROOT, "scripts")]):
        with open(path, "rb") as f:
            comments = [tok for tok in tokenize.tokenize(f.readline)
                        if tok.type == tokenize.COMMENT]
        for tok in comments:
            m = directive.search(tok.string)
            if m is None:
                continue
            kind, body = m.groups()
            ids = {r.strip() for r in (body or "").split(",") if r.strip()}
            if not (kind == "allow" and ids and ids <= live):
                stale.append(f"{os.path.relpath(path, REPO_ROOT)}:"
                             f"{tok.start[0]}: {tok.string.strip()}")
    assert stale == []


# -- reporters ---------------------------------------------------------------


def test_json_report_schema_and_stable_hash(tmp_path):
    f = Finding(rule="TNT001", path=str(tmp_path / "x.py"), line=1, col=2,
                message="m", content="c")
    r1 = json_report([f], root=str(tmp_path), files_checked=1,
                     rules=["TNT001"])
    r2 = json_report([f], root=str(tmp_path), files_checked=1,
                     rules=["TNT001"])
    assert r1["kind"] == "repro-analysis-report"
    assert r1["schema_version"] == 2
    assert set(r1) >= {"kind", "schema_version", "generated_at",
                       "summary_hash", "findings", "counts", "rules"}
    assert r1["findings"][0]["path"] == "x.py"
    assert r1["counts"] == {"new": 1, "suppressed": 0, "files_checked": 1}
    # The hash covers findings, not the timestamp: identical runs match.
    assert r1["summary_hash"] == r2["summary_hash"]


def test_text_report_is_compiler_style(tmp_path):
    f = Finding(rule="TNT001", path=str(tmp_path / "x.py"), line=4, col=8,
                message="tainted", content="c")
    out = text_report([f], root=str(tmp_path))
    assert out.splitlines()[0] == "x.py:4:8: TNT001 tainted"
    assert "1 finding" in out.splitlines()[-1]


def test_cli_json_report_names_the_one_rule(tmp_path, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text(textwrap.dedent(_HASH_OF_CLOCK))
    assert main(["check", "--format", "json", str(mod)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["rules"] == ["TNT001"]
    assert [f["rule"] for f in report["findings"]] == ["TNT001"]


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    """A mistyped path must not pass vacuously with ``0 findings``."""
    (tmp_path / "ok.py").write_text("x = 1\n")
    missing = str(tmp_path / "no_such_dir")
    assert main(["check", str(tmp_path), missing]) == 2
    captured = capsys.readouterr()
    assert missing in captured.err
    assert "findings" not in captured.out


# -- engine ------------------------------------------------------------------


def test_engine_parse_error_becomes_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    findings, facts, _sup = analyze_file(str(bad))
    assert [f.rule for f in findings] == ["PARSE"]
    assert facts is None


def test_collect_files_skips_hidden_and_pycache(tmp_path):
    (tmp_path / "keep.py").write_text("x = 1\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "skip.py").write_text("x = 1\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "skip.py").write_text("x = 1\n")
    files = collect_files([str(tmp_path)])
    assert [os.path.basename(p) for p in files] == ["keep.py"]


def test_module_name_walks_init_chain():
    path = os.path.join(SRC, "repro", "memsim", "numa.py")
    assert module_name(path) == "repro.memsim.numa"


# -- self-check --------------------------------------------------------------


def test_shipped_tree_is_clean_under_shipped_rules():
    """The blocking CI invariant: zero findings in src/."""
    result = check([SRC])
    assert result.ok, "\n" + text_report(result.findings, root=REPO_ROOT)


def test_injected_violation_fails_the_check(tmp_path):
    src = os.path.join(SRC, "repro", "memsim", "interleave.py")
    shadow = tmp_path / "repro" / "memsim"
    shadow.mkdir(parents=True)
    text = open(src, encoding="utf-8").read()
    (shadow / "interleave.py").write_text(text)
    assert check([str(shadow / "interleave.py")]).ok

    counter = 'reg.counter(f"interleave.{mode}.events").inc(events)'
    assert counter in text
    text = text.replace("from time import perf_counter",
                        "from time import perf_counter, time as _wall", 1)
    text = text.replace(counter, counter.replace(
        "inc(events)", "inc(events + int(_wall()))"), 1)
    (shadow / "interleave.py").write_text(text)
    line = text[:text.index("int(_wall())")].count("\n") + 1
    result = check([str(shadow / "interleave.py")])
    assert [(f.rule, f.line) for f in result.findings] == [("TNT001", line)]
    assert "wall-clock" in result.findings[0].message
