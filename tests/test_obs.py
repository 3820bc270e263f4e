"""The observability layer: metrics registry, spans, reports, RunConfig.

Three contracts matter most and each gets direct coverage here:

- the registry replaces the old ad-hoc counters without changing any
  ``--time`` view's shape or any existing test's delta arithmetic;
- observability never changes results -- a sweep with reporting on is
  bit-identical to the same sweep with reporting off;
- the run report is schema-versioned and validated, and the old
  ``run_sweep`` keyword arguments keep working through the deprecation
  shim.
"""

import io
import json
import os
import subprocess
import sys

import pytest

import repro
import repro.obs as obs
from repro.core.run import RunConfig, current_run_config, run_experiments
from repro.core.sweep import SweepPoint, clear_variant_cache, run_sweep
from repro.memsim.stats import CpuStats, MachineStats, merge_cpu_stats
from repro.obs import events as obs_events
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.report import (
    SCHEMA_VERSION,
    ReportValidationError,
    build_report,
    summary_hash,
    validate_report,
    write_report,
)
from repro.obs.report import main as report_main
from repro.obs.spans import SpanTracer

SCALE = "tiny"


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled and no
    leftover event listeners (the process default)."""
    yield
    obs.disable()
    obs_events._LISTENERS.clear()


def _points(n):
    return [SweepPoint(key=("Q6", line), qid="Q6",
                       machine={"l1_line": line // 2, "l2_line": line})
            for line in (16, 32, 64, 128)[:n]]


# -- metrics registry ---------------------------------------------------------


def test_counter_gauge_histogram_unique_basics():
    reg = MetricsRegistry()
    reg.counter("a.b.hits").inc()
    reg.counter("a.b.hits").inc(4)
    assert reg.value("a.b.hits") == 5
    reg.gauge("a.rate").set(2.5)
    assert reg.value("a.rate") == 2.5
    h = reg.histogram("a.seconds", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    assert h.counts == [1, 1, 1]  # <=0.1, <=1.0, overflow
    assert h.total == 3
    u = reg.unique("a.keys")
    u.add(("q", 1))
    u.add(("q", 1))
    u.add(("q", 2))
    assert reg.value("a.keys") == 2
    assert reg.value("missing", default=7) == 7


def test_metric_names_are_validated():
    reg = MetricsRegistry()
    for bad in ("", "UpperCase", "a..b", ".a", "a.", "a b", "a-b"):
        with pytest.raises(MetricError):
            reg.counter(bad)


def test_kind_and_bucket_collisions_raise():
    reg = MetricsRegistry()
    reg.counter("x.n")
    with pytest.raises(MetricError):
        reg.gauge("x.n")
    reg.histogram("x.h", buckets=(1, 2))
    with pytest.raises(MetricError):
        reg.histogram("x.h", buckets=(1, 2, 3))
    # Same buckets is a cache hit, not a collision.
    assert reg.histogram("x.h", buckets=(1, 2)) is reg.histogram(
        "x.h", buckets=(1, 2))


def test_items_prefix_filter():
    reg = MetricsRegistry()
    reg.counter("sweep.point.retries").inc()
    reg.counter("tracestore.corrupt.crc").inc(2)
    under = {n: m.value for n, m in reg.items(prefix="tracestore.")}
    assert under == {"tracestore.corrupt.crc": 2}


# -- spans --------------------------------------------------------------------


def test_spans_nest_by_dynamic_extent():
    tr = SpanTracer(enabled=True)
    with tr.span("experiment", name="fig8"):
        with tr.span("sweep-point", key="(16,)"):
            with tr.span("replay"):
                pass
        with tr.span("sweep-point", key="(32,)"):
            pass
    tree = tr.tree()
    assert [s["name"] for s in tree] == ["experiment"]
    exp = tree[0]
    assert exp["meta"] == {"name": "fig8"}
    assert [c["name"] for c in exp["children"]] == ["sweep-point",
                                                    "sweep-point"]
    assert exp["children"][0]["children"][0]["name"] == "replay"
    assert exp["wall_s"] >= 0.0 and exp["cpu_s"] >= 0.0


def test_disabled_tracer_records_nothing():
    tr = SpanTracer(enabled=False)
    with tr.span("experiment"):
        pass
    assert tr.tree() == []


# -- events and progress ------------------------------------------------------


def test_event_recording_and_listeners():
    obs_events.set_recording(True)
    seen = []
    obs_events.subscribe(lambda kind, detail: seen.append(kind))
    obs_events.emit("point.done", index=3)
    obs_events.emit("sweep.end", points=4)
    rec = obs_events.recorded()
    assert [e["kind"] for e in rec] == ["point.done", "sweep.end"]
    assert rec[0]["detail"] == {"index": 3}
    assert seen == ["point.done", "sweep.end"]
    obs_events.set_recording(False)
    obs_events.emit("point.done")
    assert obs_events.recorded() == []


def test_progress_reporter_renders_and_terminates_line():
    out = io.StringIO()
    rep = ProgressReporter(stream=out, min_interval=0.0)
    rep("experiment.start", {"name": "fig8"})
    rep("sweep.start", {"total": 4})
    rep("point.done", {})
    rep("point.retry", {})
    rep("sweep.end", {})
    text = out.getvalue()
    assert "fig8: 1/4 points" in text
    assert "1 retries" in text
    assert text.endswith("\n")


# -- run report ---------------------------------------------------------------


def _sample_report():
    reg = MetricsRegistry()
    reg.counter("sweep.point.retries").inc()
    tr = SpanTracer(enabled=True)
    with tr.span("experiment", name="fig8"):
        pass
    return build_report(
        config=RunConfig(scale=SCALE, jobs=2),
        experiments=[("fig8", {"some": "results"}, 1.25)],
        metrics=reg,
        spans=tr.tree(),
        events=[{"kind": "sweep.end", "t_s": 1.0, "detail": {}}],
        interrupted=False,
    )


def test_report_round_trips_and_validates(tmp_path):
    report = _sample_report()
    validate_report(report)
    path = tmp_path / "run.json"
    write_report(path, report)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(report))
    assert loaded["schema_version"] == SCHEMA_VERSION
    assert loaded["experiments"][0]["result_hash"] == summary_hash(
        {"some": "results"})
    assert report_main(["validate", str(path)]) == 0


def test_validator_collects_problems(tmp_path):
    report = _sample_report()
    report["schema_version"] = SCHEMA_VERSION + 1
    report["experiments"][0].pop("seconds")
    with pytest.raises(ReportValidationError) as err:
        validate_report(report)
    text = str(err.value)
    assert "schema_version" in text and "seconds" in text

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    assert report_main(["validate", str(bad)]) == 1
    assert report_main(["validate", str(tmp_path / "absent.json")]) == 2


def test_write_report_refuses_invalid(tmp_path):
    report = _sample_report()
    del report["config"]
    with pytest.raises(ReportValidationError):
        write_report(tmp_path / "x.json", report)
    assert not (tmp_path / "x.json").exists()


# -- bit identity -------------------------------------------------------------


def test_sweep_results_identical_with_observability_on():
    clear_variant_cache()
    baseline = run_sweep(_points(2), scale=SCALE)
    obs.enable()
    clear_variant_cache()
    observed = run_sweep(_points(2), scale=SCALE)
    report = build_report(
        config=current_run_config(),
        experiments=[("sweep", observed, 0.1)],
        metrics=obs.registry(),
        spans=obs.tracer().tree(),
        events=obs_events.recorded(),
        interrupted=False,
    )
    validate_report(report)
    obs.disable()
    assert observed == baseline
    assert summary_hash(observed) == summary_hash(baseline)


_SET_HASH = (
    "from repro.obs.report import summary_hash\n"
    "ops = ['SeqScan', 'IndexScan', 'HashJoin', 'NestLoop', 'Sort', 'Agg',"
    " 'Filter', 'Project', 'Limit', 'Group']\n"
    "print(summary_hash({'Q3': {'ops': set(ops), 'frozen': frozenset(ops),"
    " 'nested': {frozenset(ops[:3]), frozenset(ops[3:])}}}))\n"
)


def test_set_valued_results_hash_the_same_under_any_hash_seed():
    # Set iteration order follows PYTHONHASHSEED, which differs between
    # processes; the result hash of a set-valued result must not.
    pkg_root = os.path.dirname(os.path.dirname(repro.__file__))
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _SET_HASH], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests


# -- RunConfig -----------------------------------------------------------------


def test_run_config_round_trip_ignores_unknown_keys():
    cfg = RunConfig(scale="tiny", jobs=3, point_timeout=1.5)
    assert RunConfig(**cfg.as_dict()) == cfg
    assert cfg.with_options(jobs=5).jobs == 5
    with pytest.raises(Exception):  # frozen dataclass
        cfg.jobs = 9


def test_current_run_config_reflects_legacy_stores():
    # The trace directory and strict-store mode have setters of their own;
    # the effective config reads them back instead of trusting what
    # configure_run last stored.
    from repro.core import tracestore
    from repro.core.experiment import get_trace_dir, set_trace_dir
    from repro.core.run import configure_run

    saved = current_run_config()
    try:
        configure_run(RunConfig(point_timeout=4.5, retries=7))
        set_trace_dir("elsewhere")
        tracestore.set_strict(True)
        cfg = current_run_config()
        assert (cfg.point_timeout, cfg.retries) == (4.5, 7)
        assert (cfg.trace_dir, cfg.strict_store) == ("elsewhere", True)
        assert current_run_config(retries=1).retries == 1
    finally:
        configure_run(saved)
    assert get_trace_dir() == saved.trace_dir


def test_unknown_run_sweep_kwarg_raises():
    with pytest.raises(TypeError, match="bogus"):
        run_sweep(_points(1), scale=SCALE, bogus=1)


def test_run_experiments_rejects_unknown_names():
    with pytest.raises(ValueError, match="nope"):
        run_experiments(["nope"])


# -- machine/cpu stats serialization ------------------------------------------


def test_machine_stats_round_trip():
    """``as_dict`` is how a run report embeds machine counters: it survives
    a JSON round trip unchanged."""
    m = MachineStats()
    m.l1_reads = 10
    m.l1_read_misses[2][1] = 7
    m.l2_write_misses = 3
    data = m.as_dict()
    assert json.loads(json.dumps(data)) == data
    assert data["l1_read_misses"][2][1] == 7 and data["l2_write_misses"] == 3


def test_cpu_stats_round_trip_and_merge():
    s = CpuStats()
    s.busy = 5
    s.mem_by_class[1] = 3
    s.finish_time = 11

    empty = merge_cpu_stats([])
    assert empty.total == 0 and empty.finish_time == 0

    merged = merge_cpu_stats([s, s])
    assert merged.busy == 10
    assert merged.mem_by_class[1] == 6
    assert merged.finish_time == 11
