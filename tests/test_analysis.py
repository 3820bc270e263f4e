"""Tests for the static-analysis pass (repro.analysis).

Three layers: rule unit tests against known-bad snippets, machinery tests
(suppressions, baseline round-trip, reporters, engine), and the self-check
-- the shipped rules must find zero unbaselined issues in the shipped
``src/`` tree, which is exactly what the blocking CI job asserts.
"""

import json
import os
import textwrap

import pytest

from repro.analysis import baseline as baseline_mod
from repro.analysis import rules_api
from repro.analysis.engine import analyze_file, check, collect_files
from repro.analysis.model import FileModel, Finding, module_name
from repro.analysis.reporters import json_report, text_report
from repro.analysis.rules_det import RULES as DET_RULES
from repro.analysis.rules_hot import RULES as HOT_RULES
from repro.analysis.rules_mp import (FILE_RULES as MP_FILE_RULES,
                                     WorkerGlobalWriteRule, collect_facts)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def model_for(tmp_path, source, relpath="repro/memsim/mod.py"):
    """Write ``source`` under a scope-matching fake path and parse it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return FileModel(str(path), path.read_text())


def findings_of(rules, model):
    out = []
    for rule in rules:
        out.extend(f for f in rule.check(model) if not model.is_suppressed(f))
    return sorted(out, key=lambda f: f.sort_key())


# -- DET rules ---------------------------------------------------------------


def test_det_unseeded_global_rng(tmp_path):
    m = model_for(tmp_path, """
        import random
        def pick(xs):
            return xs[random.randrange(len(xs))]
    """)
    rules = findings_of(DET_RULES, m)
    assert [f.rule for f in rules] == ["DET001"]


def test_det_seeded_local_rng_is_fine(tmp_path):
    m = model_for(tmp_path, """
        import random
        def pick(xs, seed):
            rng = random.Random(seed)
            return xs[rng.randrange(len(xs))]
    """)
    assert findings_of(DET_RULES, m) == []


def test_det_unseeded_random_instance(tmp_path):
    m = model_for(tmp_path, """
        import random
        R = random.Random()
    """)
    assert [f.rule for f in findings_of(DET_RULES, m)] == ["DET001"]


def test_det_wall_clock_flagged_monotonic_not(tmp_path):
    m = model_for(tmp_path, """
        import time
        from time import perf_counter, time as now
        def sample():
            return time.time(), now(), perf_counter(), time.monotonic()
    """)
    rules = [f.rule for f in findings_of(DET_RULES, m)]
    assert rules == ["DET002", "DET002"]  # time.time and its alias only


def test_det_entropy_and_identity(tmp_path):
    m = model_for(tmp_path, """
        import os, uuid
        def key(obj):
            return id(obj), hash("x"), os.urandom(4), uuid.uuid4()
    """)
    rules = sorted(f.rule for f in findings_of(DET_RULES, m))
    assert rules == ["DET003", "DET003", "DET004", "DET004"]


def test_det_set_iteration_flagged_sorted_not(tmp_path):
    m = model_for(tmp_path, """
        def collect(items):
            pending = set(items)
            bad = [x for x in pending]
            good = [x for x in sorted(pending)]
            return bad, good
    """)
    assert [f.rule for f in findings_of(DET_RULES, m)] == ["DET005"]


def test_det_out_of_scope_path_is_silent(tmp_path):
    m = model_for(tmp_path, """
        import time
        T = time.time()
    """, relpath="repro/obs/clockuser.py")
    assert findings_of(DET_RULES, m) == []


# -- HOT rules ---------------------------------------------------------------


def test_hot_rules_only_fire_in_marked_regions(tmp_path):
    m = model_for(tmp_path, """
        def cold(xs):
            out = []
            for x in xs:
                out.append([x])
            return out
    """)
    assert findings_of(HOT_RULES, m) == []


def test_hot_allocation_closure_try_and_relookup(tmp_path):
    m = model_for(tmp_path, """
        def hot_loop(self, xs):
            # repro: hot
            for x in xs:
                buf = [x]
                f = lambda: x
                try:
                    self.obj.attr.use(x)
                except KeyError:
                    pass
                a = self.obj.attr
                b = self.obj.attr
                c = self.obj.attr
    """)
    rules = sorted(f.rule for f in findings_of(HOT_RULES, m))
    assert rules == ["HOT001", "HOT002", "HOT003", "HOT004"]


def test_hot_exemptions_tuple_raise_and_sanitizer_gate(tmp_path):
    m = model_for(tmp_path, """
        _sanitize = False
        def hot_loop(machine, xs):
            # repro: hot
            for x in xs:
                key = (x, x + 1)
                if _sanitize:
                    machine.check([x])
                if x < 0:
                    raise ValueError(f"bad {x}")
    """)
    assert findings_of(HOT_RULES, m) == []


def test_hot_marker_on_def_line_covers_whole_function(tmp_path):
    m = model_for(tmp_path, """
        # repro: hot
        def hot_fn(xs):
            return {x: 1 for x in xs}
    """)
    assert [f.rule for f in findings_of(HOT_RULES, m)] == ["HOT001"]


def test_hot_rebound_chain_root_is_exempt(tmp_path):
    m = model_for(tmp_path, """
        def hot_loop(sets, xs):
            # repro: hot
            for x in xs:
                ways = sets[x]
                ways.remove(x)
                ways.insert(0, x)
                ways.insert(1, x)
                ways.insert(2, x)
    """)
    assert findings_of(HOT_RULES, m) == []


# -- MP rules ----------------------------------------------------------------


def test_mp002_lambda_and_local_def_to_pool(tmp_path):
    m = model_for(tmp_path, """
        from concurrent.futures import ProcessPoolExecutor
        def go():
            def local_task(x):
                return x
            with ProcessPoolExecutor(initializer=lambda: None) as pool:
                pool.submit(local_task, 1)
    """, relpath="repro/core/pooluser.py")
    rules = sorted(f.rule for f in findings_of(MP_FILE_RULES, m))
    assert rules == ["MP002", "MP002"]


def test_mp003_unguarded_tmp_path_flagged_guarded_not(tmp_path):
    m = model_for(tmp_path, """
        import os
        def save(path):
            bad = path + ".tmp"
            good = path + f".tmp.{os.getpid()}"
            return bad, good
    """, relpath="repro/core/saver.py")
    assert [f.rule for f in findings_of(MP_FILE_RULES, m)] == ["MP003"]


def test_mp003_docstrings_and_bare_constants_are_silent(tmp_path):
    m = model_for(tmp_path, '''
        """Mentions *.tmp.<pid> files at length."""
        TMP_MARKER = ".tmp."
    ''', relpath="repro/core/markers.py")
    assert findings_of(MP_FILE_RULES, m) == []


def test_mp001_reachable_global_write_detected(tmp_path):
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "app.py").write_text(textwrap.dedent("""
        from concurrent.futures import ProcessPoolExecutor
        import helper
        _CACHE = {}
        def work(x):
            _CACHE[x] = 1
            helper.remember(x)
        def untouched():
            _CACHE.clear()
        def main():
            with ProcessPoolExecutor(initializer=helper.init) as pool:
                pool.submit(work, 1)
    """))
    (proj / "helper.py").write_text(textwrap.dedent("""
        _SEEN = []
        _MODE = None
        def init():
            global _MODE
            _MODE = "worker"
        def remember(x):
            _SEEN.append(x)
    """))
    result = check([str(proj)], use_baseline=False, jobs=1)
    hits = {(os.path.basename(f.path), f.message.split("'")[1], f.rule)
            for f in result.findings}
    assert ("app.py", "app.work", "MP001") in hits
    assert ("helper.py", "helper.init", "MP001") in hits
    assert ("helper.py", "helper.remember", "MP001") in hits
    # Not reachable from any pool entry point: never flagged.
    assert not any("untouched" in f.message for f in result.findings)


def test_mp001_merge_path_module_is_exempt():
    facts = [{
        "module": "repro.obs.metrics",
        "path": "/x/repro/obs/metrics.py",
        "functions": {"repro.obs.metrics.merge": {
            "line": 1,
            "writes": [("_REGISTRY", 2, "_REGISTRY[k] = v")],
            "calls": [],
        }},
        "entries": ["repro.obs.metrics.merge"],
        "classes": [],
    }]
    assert WorkerGlobalWriteRule().check_project(facts) == []


def test_mp001_class_instantiation_reaches_methods(tmp_path):
    proj = tmp_path / "proj2"
    proj.mkdir()
    (proj / "app2.py").write_text(textwrap.dedent("""
        from concurrent.futures import ProcessPoolExecutor
        _STATE = {}
        class Runner:
            def __init__(self):
                pass
            def go(self):
                _STATE["k"] = 1
        def work(x):
            Runner().go()
        def main(pool):
            pool.submit(work, 1)
    """))
    result = check([str(proj)], use_baseline=False, jobs=1)
    assert any(f.rule == "MP001" and "Runner.go" in f.message
               for f in result.findings)


def test_tracestore_pid_guard_regression():
    """save_trace's ``.tmp.<pid>`` guard keeps MP003 quiet; removing the
    getpid() call must make the rule fire (pins satellite-6's guard)."""
    path = os.path.join(SRC, "repro", "core", "tracestore.py")
    text = open(path, encoding="utf-8").read()
    model = FileModel(path, text)
    assert findings_of(MP_FILE_RULES, model) == []
    degraded = text.replace('f".tmp.{os.getpid()}"', '".tmp"')
    assert degraded != text
    bad = FileModel(path, degraded)
    assert "MP003" in {f.rule for f in findings_of(MP_FILE_RULES, bad)}


# -- API rules ---------------------------------------------------------------


def test_api_drift_detected(tmp_path, monkeypatch):
    tree = tmp_path / "apisrc"
    core = tree / "repro" / "core"
    obs = tree / "repro" / "obs"
    core.mkdir(parents=True)
    obs.mkdir(parents=True)
    (core / "__init__.py").write_text(
        '__all__ = ["alpha", "beta"]\n')
    (core / "run.py").write_text(textwrap.dedent("""
        from dataclasses import dataclass
        @dataclass
        class RunConfig:
            scale: str = "small"
            jobs: int = 1
    """))
    (obs / "report.py").write_text("SCHEMA_VERSION = 2\n")
    files = collect_files([str(tree)])
    bl = tmp_path / "api.json"
    monkeypatch.setattr(rules_api, "baseline_path", lambda: str(bl))
    rules_api.write_baseline(files)
    rule = rules_api.PROJECT_RULES[0]
    assert rule.check_project_paths(files) == []

    (core / "__init__.py").write_text('__all__ = ["alpha"]\n')
    (core / "run.py").write_text(textwrap.dedent("""
        from dataclasses import dataclass
        @dataclass
        class RunConfig:
            scale: int = 0
    """))
    (obs / "report.py").write_text("SCHEMA_VERSION = 1\n")
    found = rule.check_project_paths(files)
    rules = sorted(f.rule for f in found)
    assert rules == ["API001", "API002", "API002", "API003"]
    assert any("beta" in f.message for f in found)
    assert any("moved backwards" in f.message for f in found)


# -- suppressions and baseline ----------------------------------------------


def test_inline_suppression_silences_only_named_rule(tmp_path):
    m = model_for(tmp_path, """
        import time
        def a():
            return time.time()  # repro: allow[DET002] justified
        def b():
            return time.time()  # repro: allow[DET001] wrong rule
        def c():
            # repro: allow[*]
            return time.time()
    """)
    assert len(findings_of(DET_RULES, m)) == 1  # only b() survives


def test_baseline_round_trip_and_one_to_one_consumption(tmp_path):
    f1 = Finding(rule="DET002", path=str(tmp_path / "a.py"), line=3,
                 col=0, message="m", content="t = time.time()")
    f2 = Finding(rule="DET002", path=str(tmp_path / "a.py"), line=9,
                 col=0, message="m", content="t = time.time()")
    bl = tmp_path / baseline_mod.BASELINE_NAME
    baseline_mod.write([f1], str(bl))
    entries, root = baseline_mod.load(str(bl))
    assert entries[0]["reason"] == "TODO: justify"
    # One entry absorbs exactly one of the two identical findings.
    new, matched = baseline_mod.apply([f1, f2], entries, root)
    assert len(matched) == 1 and len(new) == 1
    # Line numbers may drift without invalidating the match.
    f1_moved = Finding(rule="DET002", path=f1.path, line=77, col=0,
                       message="m", content=f1.content)
    new, matched = baseline_mod.apply([f1_moved], entries, root)
    assert new == [] and len(matched) == 1


def test_shipped_baseline_entries_all_carry_reasons():
    entries, _root = baseline_mod.load(
        os.path.join(REPO_ROOT, baseline_mod.BASELINE_NAME))
    assert entries, "expected a committed baseline"
    for entry in entries:
        assert entry["reason"] and "TODO" not in entry["reason"], entry


# -- reporters ---------------------------------------------------------------


def test_json_report_schema_and_stable_hash(tmp_path):
    f = Finding(rule="DET002", path=str(tmp_path / "x.py"), line=1, col=2,
                message="m", content="c")
    r1 = json_report([f], root=str(tmp_path), files_checked=1,
                     rules=["DET002"])
    r2 = json_report([f], root=str(tmp_path), files_checked=1,
                     rules=["DET002"])
    assert r1["kind"] == "repro-analysis-report"
    assert r1["schema_version"] == 1
    assert set(r1) >= {"kind", "schema_version", "generated_at",
                       "summary_hash", "findings", "counts", "rules"}
    assert r1["findings"][0]["path"] == "x.py"
    assert r1["counts"]["new"] == 1
    # The hash covers findings, not the timestamp: identical runs match.
    assert r1["summary_hash"] == r2["summary_hash"]


def test_text_report_is_compiler_style(tmp_path):
    f = Finding(rule="HOT001", path=str(tmp_path / "x.py"), line=4, col=8,
                message="no allocs", content="c")
    out = text_report([f], root=str(tmp_path))
    assert out.splitlines()[0] == "x.py:4:8: HOT001 no allocs"
    assert "1 finding" in out.splitlines()[-1]


# -- engine ------------------------------------------------------------------


def test_engine_parse_error_becomes_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    findings, facts, _sup, _n = analyze_file(str(bad))
    assert [f.rule for f in findings] == ["PARSE"]
    assert facts is None


def test_engine_serial_and_parallel_agree(tmp_path):
    proj = tmp_path / "par"
    proj.mkdir()
    for i in range(10):
        (proj / f"m{i}.py").write_text(
            "import time\ndef f():\n    return time.time()\n")
    # Out of DET scope (no repro/core in the path): no findings, but both
    # modes must agree on everything they report.
    serial = check([str(proj)], use_baseline=False, jobs=1)
    parallel = check([str(proj)], use_baseline=False, jobs=4)
    assert [f.as_dict() for f in serial.findings] == \
        [f.as_dict() for f in parallel.findings]
    assert serial.files_checked == parallel.files_checked == 10


def test_collect_files_skips_hidden_and_pycache(tmp_path):
    (tmp_path / "keep.py").write_text("x = 1\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "skip.py").write_text("x = 1\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "skip.py").write_text("x = 1\n")
    files = collect_files([str(tmp_path)])
    assert [os.path.basename(p) for p in files] == ["keep.py"]


# -- self-check --------------------------------------------------------------


def test_shipped_tree_is_clean_under_shipped_rules():
    """The blocking CI invariant: zero unbaselined findings in src/."""
    result = check([SRC], jobs=1)
    assert result.ok, "\n" + text_report(result.findings, root=REPO_ROOT)


def test_injected_violation_fails_the_check(tmp_path):
    src = os.path.join(SRC, "repro", "memsim", "interleave.py")
    shadow = tmp_path / "repro" / "memsim"
    shadow.mkdir(parents=True)
    text = open(src, encoding="utf-8").read()
    text = text.replace("from time import perf_counter",
                        "from time import perf_counter, time as _wall\n"
                        "_T0 = _wall()", 1)
    (shadow / "interleave.py").write_text(text)
    result = check([str(shadow / "interleave.py")], use_baseline=False)
    assert any(f.rule == "DET002" for f in result.findings)


def test_facts_collection_sees_repo_entry_points():
    path = os.path.join(SRC, "repro", "core", "backend.py")
    model = FileModel(path, open(path, encoding="utf-8").read())
    facts = collect_facts(model)
    assert "repro.core.backend._worker_init" in facts["entries"]
    assert "repro.core.backend._worker_task" in facts["entries"]


def test_module_name_walks_init_chain():
    path = os.path.join(SRC, "repro", "memsim", "numa.py")
    assert module_name(path) == "repro.memsim.numa"


def test_mp004_pickle_in_backend_code_flagged(tmp_path):
    m = model_for(tmp_path, """
        import pickle
        from dill import dumps
        def ship(trace):
            return pickle.dumps(trace)
    """, relpath="repro/core/backend.py")
    rules = [f.rule for f in findings_of(MP_FILE_RULES, m)]
    assert rules == ["MP004", "MP004", "MP004"]


def test_mp004_scoped_to_backend_and_worker_only(tmp_path):
    source = """
        import pickle
        def anywhere(x):
            return pickle.loads(x)
    """
    worker = model_for(tmp_path, source, relpath="repro/core/worker.py")
    assert {f.rule for f in findings_of(MP_FILE_RULES, worker)} == {"MP004"}
    elsewhere = model_for(tmp_path, source, relpath="repro/core/sweep.py")
    assert "MP004" not in {f.rule for f in findings_of(MP_FILE_RULES,
                                                       elsewhere)}


def test_mp004_json_framing_is_silent(tmp_path):
    m = model_for(tmp_path, """
        import json
        import struct
        def frame(obj):
            payload = json.dumps(obj).encode()
            return struct.pack("<I", len(payload)) + payload
    """, relpath="repro/core/backend.py")
    assert findings_of(MP_FILE_RULES, m) == []


def test_mp004_aliased_import_is_caught(tmp_path):
    m = model_for(tmp_path, """
        import pickle as pk
        def ship(trace):
            return pk.loads(trace)
    """, relpath="repro/core/backend.py")
    assert {f.rule for f in findings_of(MP_FILE_RULES, m)} == {"MP004"}


def test_mp004_from_import_is_caught(tmp_path):
    m = model_for(tmp_path, """
        from pickle import loads
        def ship(blob):
            return loads(blob)
    """, relpath="repro/core/worker.py")
    assert {f.rule for f in findings_of(MP_FILE_RULES, m)} == {"MP004"}


def test_mp004_prefix_lookalike_module_is_silent(tmp_path):
    m = model_for(tmp_path, """
        import pickletools
        def describe(blob):
            return pickletools.dis(blob)
    """, relpath="repro/core/backend.py")
    assert findings_of(MP_FILE_RULES, m) == []


# -- incremental cache -------------------------------------------------------


def _cache_proj(tmp_path):
    proj = tmp_path / "proj" / "repro" / "core"
    proj.mkdir(parents=True)
    (proj / "a.py").write_text("import time\ndef f():\n    return time.time()\n")
    (proj / "b.py").write_text("def g():\n    return 1\n")
    return tmp_path / "proj", str(tmp_path / "proj" / ".analysis-cache.json")


def test_cache_warm_run_is_identical(tmp_path):
    proj, cache_file = _cache_proj(tmp_path)
    cold = check([str(proj)], use_baseline=False, cache_file=cache_file)
    warm = check([str(proj)], use_baseline=False, cache_file=cache_file)
    assert cold.cache_hits == 0 and cold.cache_misses == 2
    assert warm.cache_hits == 2 and warm.cache_misses == 0
    assert ([f.as_dict() for f in warm.findings]
            == [f.as_dict() for f in cold.findings])
    assert warm.suppressed == cold.suppressed


def test_cache_invalidates_on_content_change(tmp_path):
    proj, cache_file = _cache_proj(tmp_path)
    check([str(proj)], use_baseline=False, cache_file=cache_file)
    (proj / "repro" / "core" / "b.py").write_text(
        "import time\ndef g():\n    return time.time()\n")
    result = check([str(proj)], use_baseline=False, cache_file=cache_file)
    assert result.cache_hits == 1 and result.cache_misses == 1
    assert sum(1 for f in result.findings if f.rule == "DET002") == 2


def test_cache_discarded_when_analyzer_changes(tmp_path):
    from repro.analysis.cache import AnalysisCache
    proj, cache_file = _cache_proj(tmp_path)
    check([str(proj)], use_baseline=False, cache_file=cache_file)
    stale = AnalysisCache(cache_file, salt="different-analyzer")
    assert stale.entries == {}


# -- SARIF export ------------------------------------------------------------


def test_sarif_report_shape(tmp_path):
    from repro.analysis.sarif import sarif_report
    f = Finding(rule="DET002", path=str(tmp_path / "m.py"), line=3, col=11,
                message="wall clock", content="t = time.time()")
    doc = sarif_report([f], root=str(tmp_path),
                       rules=[("DET002", "wall-clock read")])
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "DET002" in ids
    (res,) = run["results"]
    assert res["ruleId"] == "DET002"
    loc = res["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "m.py"
    assert loc["region"] == {"startLine": 3, "startColumn": 12}


def test_sarif_is_deterministic(tmp_path):
    from repro.analysis.sarif import sarif_report
    f = Finding(rule="MP001", path="x.py", line=1, col=0, message="m")
    assert json.dumps(sarif_report([f])) == json.dumps(sarif_report([f]))


# -- baseline TODO gate ------------------------------------------------------


def test_baseline_todos_counted_and_strict_gate(tmp_path, capsys):
    proj = tmp_path / "repro" / "core"
    proj.mkdir(parents=True)
    (proj / "m.py").write_text(
        "import time\ndef f():\n    return time.time()\n")
    baseline_file = str(tmp_path / ".analysis-baseline.json")
    result = check([str(tmp_path)], use_baseline=False)
    baseline_mod.write(result.findings, baseline_file)

    gated = check([str(tmp_path)], baseline_file=baseline_file)
    assert gated.findings == []
    assert gated.baseline_todos == 1

    from repro.analysis.__main__ import main
    rc = main(["check", str(tmp_path), "--baseline", baseline_file,
               "--strict-todo"])
    assert rc == 1
    assert "TODO: justify" in capsys.readouterr().err
    rc = main(["check", str(tmp_path), "--baseline", baseline_file])
    assert rc == 0
