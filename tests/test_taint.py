"""Tests for the interprocedural determinism taint engine (TNT001).

Flows are asserted through the public solve path -- per-file facts
joined by the project solver -- so every test exercises the same
machinery CI runs: sources through assignments and containers, across
function boundaries (returns-tainted and parameter-to-sink), around
call-graph cycles, and through the unresolved-call passthrough
over-approximation.  Suppression is tested at the source line (the
``allow[TNT001]`` comment defuses the source itself) and at the sink
via the engine's standard line-level suppression.
"""

import textwrap

import pytest

from repro.analysis import taint
from repro.analysis.engine import check
from repro.analysis.model import FileModel


def solve_source(tmp_path, source, relpath="repro/db/mod.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    model = FileModel(str(path), path.read_text())
    return taint.solve([taint.collect_facts(model)])


# -- direct and interprocedural flows ----------------------------------------


def test_direct_wall_clock_to_hash(tmp_path):
    findings = solve_source(tmp_path, """
        import time
        from repro.obs.report import summary_hash

        def report(results):
            return summary_hash({"r": results, "t": time.time()})
    """)
    assert [f.rule for f in findings] == ["TNT001"]
    assert "wall-clock" in findings[0].message
    assert "summary_hash" in findings[0].message


#: One expression per source kind the catalogs define, with the kind
#: the finding must name.
SOURCES = [
    ("datetime.datetime.now()", "wall-clock"),
    ("random.random()", "rng"),
    ("random.Random()", "rng"),
    ("random.Random().random()", "rng"),
    ("os.urandom(8)", "entropy"),
    ("uuid.uuid4()", "entropy"),
    ("secrets.token_hex(8)", "entropy"),
    ("os.getpid()", "pid"),
    ("os.environ['HOME']", "env"),
    ("os.getenv('HOME')", "env"),
]


@pytest.mark.parametrize("expr, kind", SOURCES)
def test_every_catalog_source_reaches_hash(tmp_path, expr, kind):
    findings = solve_source(tmp_path, f"""
        import datetime, os, random, secrets, uuid
        from repro.obs.report import summary_hash

        def report(results):
            return summary_hash({{"r": results, "t": {expr}}})
    """)
    assert [f.rule for f in findings] == ["TNT001"]
    assert f"{kind} source" in findings[0].message
    assert "summary_hash" in findings[0].message


def test_draw_from_unseeded_instance_keeps_its_taint(tmp_path):
    findings = solve_source(tmp_path, """
        import random
        from repro.obs.report import summary_hash

        def report(results):
            rng = random.Random()
            return summary_hash({"r": results, "draw": rng.random()})
    """)
    assert [f.rule for f in findings] == ["TNT001"]
    assert "rng source" in findings[0].message


def test_return_flow_through_helper(tmp_path):
    findings = solve_source(tmp_path, """
        import time
        from repro.obs.report import summary_hash

        def stamp():
            return time.time()

        def report(results):
            return summary_hash({"r": results, "t": stamp()})
    """)
    assert len(findings) == 1
    assert "stamp()" in findings[0].message


def test_param_to_sink_wrapper_flags_the_caller(tmp_path):
    findings = solve_source(tmp_path, """
        import os
        from repro.obs.report import summary_hash

        def publish(payload):
            return summary_hash(payload)

        def report():
            return publish({"pid": os.getpid()})
    """)
    assert len(findings) == 1
    assert "via" in findings[0].message and "publish" in findings[0].message
    assert "pid source" in findings[0].message


def test_cycles_converge(tmp_path):
    findings = solve_source(tmp_path, """
        import time
        from repro.obs.report import summary_hash

        def ping(n):
            if n:
                return pong(n - 1)
            return time.time()

        def pong(n):
            return ping(n)

        def report():
            return summary_hash(ping(3))
    """)
    assert len(findings) == 1


def test_passthrough_over_approximation(tmp_path):
    # ``transform`` is not analyzed code: its result must be assumed to
    # carry its arguments' taint.
    findings = solve_source(tmp_path, """
        import time
        from somewhere import transform
        from repro.obs.report import summary_hash

        def report():
            return summary_hash(transform(time.time()))
    """)
    assert len(findings) == 1


def test_clean_flows_stay_clean(tmp_path):
    findings = solve_source(tmp_path, """
        import random
        import time
        from repro.obs.report import summary_hash

        def report(results, seed):
            rng = random.Random(seed)
            t0 = time.monotonic()
            return summary_hash({"r": results, "draw": rng.random()})
    """)
    assert findings == []


# -- set-order taint ---------------------------------------------------------


def test_set_iteration_order_reaches_sink(tmp_path):
    findings = solve_source(tmp_path, """
        from repro.obs.report import summary_hash

        def report(keys):
            rows = [k for k in set(keys)]
            return summary_hash(rows)
    """)
    assert len(findings) == 1
    assert "set-order" in findings[0].message


def test_sorted_strips_set_order_taint(tmp_path):
    findings = solve_source(tmp_path, """
        from repro.obs.report import summary_hash

        def report(keys):
            rows = sorted(set(keys))
            return summary_hash(rows)
    """)
    assert findings == []


# -- suppression -------------------------------------------------------------


def test_allow_at_source_defuses_the_flow(tmp_path):
    findings = solve_source(tmp_path, """
        import time
        from repro.obs.report import summary_hash

        def report(results):
            t = time.time()  # repro: allow[TNT001] report metadata only
            return summary_hash({"r": results, "t": t})
    """)
    assert findings == []


def test_retired_rule_allow_defuses_nothing(tmp_path):
    findings = solve_source(tmp_path, """
        import time
        from repro.obs.report import summary_hash

        def report(results):
            t = time.time()  # repro: allow[DET002] retired rule id
            return summary_hash({"r": results, "t": t})
    """)
    assert [f.rule for f in findings] == ["TNT001"]


def test_allow_at_sink_stops_parameter_flows(tmp_path):
    findings = solve_source(tmp_path, """
        import os
        from repro.obs.report import summary_hash

        def publish(payload):
            # repro: allow[TNT001] callers hash pids on purpose here
            return summary_hash(payload)

        def report():
            return publish({"pid": os.getpid()})
    """)
    assert findings == []


def test_allow_at_sink_is_the_engine_edge(tmp_path):
    # The sink-side edge goes through the engine's standard line
    # suppression, so run the full check.
    proj = tmp_path / "repro" / "db"
    proj.mkdir(parents=True)
    (proj / "mod.py").write_text(textwrap.dedent("""
        import time
        from repro.obs.report import summary_hash

        def report(results):
            t = time.time()
            # repro: allow[TNT001] timestamp hashed on purpose here
            return summary_hash({"r": results, "t": t})
    """))
    result = check([str(tmp_path)])
    assert result.findings == []
    assert result.suppressed >= 1

    (proj / "mod.py").write_text(
        (proj / "mod.py").read_text().replace(
            "# repro: allow[TNT001] timestamp hashed on purpose here", ""))
    result = check([str(tmp_path)])
    assert [f.rule for f in result.findings] == ["TNT001"]
