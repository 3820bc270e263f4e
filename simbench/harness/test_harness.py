"""Tests of the benchmark harness itself.

    python -m pytest simbench/harness -q

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  Everything
that runs the program uses ``fanout-tiny``, the one workload at ``tiny``.
"""

import json
import os
import re
import sys

import pytest

from simbench.harness import compare, micro, runner, spec
from simbench.harness.spans import SpanRecorder, covered, self_times

sys.path.insert(0, runner.SRC)  # the micro-trace tests import ``repro``

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- spans -------------------------------------------------------------------

def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "name": name, "parent": parent, "start": start,
            "end": end, "workload": "w"}


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 10), (2, 3)]) == 10
    assert covered([]) == 0


def test_self_time_nested_and_overlapping_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),      # child
        _span(2, 1, 2.0, 3.0),      # grandchild: not subtracted from 0
        _span(3, 0, 3.0, 6.0),      # overlaps span 1 between 3 and 4
        _span(4, 0, 9.0, 12.0),     # runs past the parent: clipped at 10
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - (5 + 1))
    assert selfs[1] == pytest.approx(2)
    assert selfs[2] == pytest.approx(1)
    assert selfs[3] == pytest.approx(3)


def test_recorder_nests_by_dynamic_extent():
    rec = SpanRecorder("w")
    with rec.span("outer"):
        with rec.span("inner", what="a"):
            pass
        rec.add("observed", 1.0, 2.0)
    parents = {s["name"]: s["parent"] for s in rec.spans}
    assert parents == {"outer": None, "inner": 0, "observed": 0}
    assert all(s["workload"] == "w" and s["end"] >= s["start"]
               for s in rec.spans)


# -- names -------------------------------------------------------------------

def test_names_and_units_are_well_formed():
    names = ([n for n in spec.WORKLOADS]
             + [m[0] for m in spec.END_TO_END]
             + [m[0] for m in spec.PER_LAYER])
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    units = [m[1] for m in spec.END_TO_END] + [m[1] for m in spec.PER_LAYER]
    assert all(UNIT.match(u) for u in units), units
    assert len(spec.PER_LAYER) <= 128
    assert all(set(on) <= set(spec.WORKLOADS) and on
               for _n, _u, _b, on in spec.PER_LAYER)


def test_benchmark_json_declares_exactly_what_the_harness_emits():
    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert declared == spec.benchmark_json(declared["run_seconds"])
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in declared["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in declared["end_to_end"])


# -- micro-traces ------------------------------------------------------------

@pytest.mark.parametrize("path", spec.NUMA_PATHS)
def test_micro_trace_meets_its_closed_form(path):
    ns, ok = micro.run_path(path, rows=6000)
    assert ok
    assert ns > 0


def test_micro_paths_match_the_declared_metrics():
    assert tuple(micro.PATHS) == spec.NUMA_PATHS


# -- compare -----------------------------------------------------------------

def test_compare_classifies_regression_in_bound_and_noise():
    base = [10.0, 10.1, 9.9]
    assert compare.classify(base, [11.5, 11.6, 11.4], "lower", 0.10) \
        == "regressed"
    assert compare.classify(base, [10.4, 10.5, 10.3], "lower", 0.10) == "ok"
    # One side's own repetitions are 30% apart and the sides overlap.
    assert compare.classify(base, [9.0, 12.0, 10.5], "lower", 0.10) \
        == "unresolved"
    # Just as noisy, but every new repetition beats every base one.
    assert compare.classify(base, [6.0, 8.0, 7.0], "lower", 0.10) == "ok"
    # Direction: for a higher-is-better metric a drop regresses.
    assert compare.classify(base, [8.0, 8.1, 7.9], "higher", 0.10) \
        == "regressed"
    assert compare.classify(base, [12.0, 12.1, 11.9], "higher", 0.10) == "ok"


def test_compare_fails_on_exact_metric_difference(capsys):
    def doc(mismatches):
        samples = {m[0]: [1.0, 1.0] for m in spec.END_TO_END}
        exact = dict.fromkeys([m[0] for m in spec.EXACT], 0)
        exact["stat_mismatches"] = mismatches
        return {"workloads": {"live-char": {"samples": samples,
                                            "exact": exact, "modelled": {}}}}
    assert compare.compare(doc(0), doc(0)) == 0
    assert compare.compare(doc(0), doc(2)) == 1
    assert "DIFFERENT" in capsys.readouterr().out


# -- the program, at tiny ----------------------------------------------------

@pytest.fixture(scope="module")
def tiny_store():
    with runner.Scratch() as scratch:
        _secs, _entries, store = runner.set_up("fanout-tiny", 0, scratch)
        yield scratch, store


def _rep(tiny_store, env=None):
    scratch, store = tiny_store
    saved = {k: os.environ.get(k) for k in (env or {})}
    os.environ.update(env or {})
    try:
        return runner.child("rep", "fanout-tiny", 0, scratch, store=store)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k)
            else:
                os.environ[k] = v


@pytest.fixture(scope="module")
def first_rep(tiny_store):
    return _rep(tiny_store)


def test_two_child_runs_give_equal_hashes(tiny_store, first_rep):
    again = _rep(tiny_store)
    assert first_rep["failed"] == again["failed"] == 0
    assert first_rep["attempted"] == 128
    assert first_rep["hashes"] == again["hashes"]
    assert first_rep["work_refs"] == again["work_refs"] > 0


def test_ambient_kernel_variable_does_not_change_what_is_measured(
        tiny_store, first_rep):
    forced = _rep(tiny_store, env={"REPRO_KERNEL": "scalar"})
    assert forced["kernel"] == first_rep["kernel"]
    assert forced["hashes"] == first_rep["hashes"]


def test_staged_run_emits_exactly_its_declared_metrics(tiny_store, tmp_path):
    scratch, store = tiny_store
    spans = tmp_path / "spans.json"
    report = runner.child("staged", "fanout-tiny", 0, scratch, store=store,
                          spans=str(spans))
    computed = {"bench.trace_overhead_frac", "bench.unattributed_frac"}
    from_rep = ({m[0] for m in spec.EXACT}
                | {n for n, _u, _b, _on in spec.PER_LAYER
                   if n.startswith("numa.") and "ns_per_row" not in n
                   and n != "numa.micro_mismatches"})
    declared = {n for n, _u, _b, on in spec.PER_LAYER if "fanout-tiny" in on}
    assert set(report["metrics"]) == declared - computed - from_rep
    assert not report["detail"]
    tree = json.loads(spans.read_text())
    assert {s["workload"] for s in tree["spans"]} == {"fanout-tiny"}
    assert [s["name"] for s in tree["spans"] if s["parent"] is None] \
        == ["run", "micro"]
    assert 0 < report["attributed_s"] <= report["stage_wall_s"]
