"""Scenario traces end-to-end: updates through the coherence model,
record/replay bit-identity, store round-trips, and backend invariance.

These are the acceptance tests of the workload generator: a seeded
scenario (update traffic included) must produce the identical summary
whether it runs in-process, on the sweep workers, or replayed from the
persistent trace store in a process that never saw the spec.
"""

import gc
import os
import weakref

import pytest

from repro import obs
from repro.core import experiment, sweep
from repro.core.experiment import (
    clear_caches, set_trace_dir, trace_cache_stats, workload_trace_cache,
)
from repro.core.run import RunConfig
from repro.core.sweep import SweepPoint, run_sweep
from repro.core.tracestore import decode_trace, encode_trace, store_key
from repro.memsim.batch import resolve_kernel
from repro.obs.metrics import registry
from repro.obs.report import summary_hash
from repro.workload import (
    ScenarioSpec, TenantSpec, build_schedule, register_scenario,
    run_scenario, scenario_qid, scenario_report,
)
from repro.workload import session
from repro.workload.session import record_scenario

SCALE = "tiny"


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Scenario tests mutate the process-wide caches; isolate each test."""
    clear_caches()
    yield
    set_trace_dir(None)
    clear_caches()


def update_spec(cpus=2, name="upd"):
    """A small update-bearing scenario: UF1/UF2 writers plus Q6 readers."""
    return ScenarioSpec(
        name=name, cpus=cpus, seed=5,
        tenants=(
            TenantSpec(name="writers", clients=2 * cpus,
                       mix={"UF1": 1, "UF2": 1}, think_time=50,
                       ops_per_client=2, update_batch=2),
            TenantSpec(name="readers", clients=2, mix={"Q6": 1},
                       think_time=100),
        ),
    ).validate()


def _point(spec):
    return SweepPoint(key=spec.name, qid=scenario_qid(spec),
                      machine=dict(spec.machine), n_procs=spec.cpus)


def test_updates_flow_through_the_coherence_model():
    spec = update_spec()
    assert any(op.is_update for op in build_schedule(spec))
    register_scenario(spec)
    summary = run_sweep([_point(spec)], scale=SCALE)[spec.name]
    # The update functions execute for real: lock-protected metadata
    # traffic shows up in the simulated caches, including coherence
    # misses on the lock spinlock line (the paper's Q3 observation,
    # generalized to write traffic).
    assert summary["l2_by_class"]["LockSLock"] > 0
    cohe = sum(v[2] for v in summary["l2_grouped"].values())
    assert cohe > 0
    assert summary["l2_cohe_by_class"]["LockSLock"] > 0


def test_scenario_recording_is_memoized_and_bit_stable():
    spec = update_spec()
    qid = register_scenario(spec)
    from repro.tpcd.scales import get_scale

    sc = get_scale(SCALE)
    first = record_scenario(qid, sc, 42, sc.arena_size)
    assert record_scenario(qid, sc, 42, sc.arena_size) is first
    clear_caches()
    register_scenario(spec)
    again = record_scenario(qid, sc, 42, sc.arena_size)
    assert set(again) == set(first) == set(range(spec.cpus))
    for cpu in first:
        assert again[cpu].kinds == first[cpu].kinds
        assert again[cpu].rows == first[cpu].rows


def test_update_trace_codec_round_trip():
    spec = update_spec()
    qid = register_scenario(spec)
    from repro.tpcd.scales import get_scale

    sc = get_scale(SCALE)
    traces = record_scenario(qid, sc, 42, sc.arena_size)
    for cpu, trace in traces.items():
        key = store_key(sc.name, 42, qid, cpu, cpu, sc.arena_size, True)
        decoded, decoded_key = decode_trace(encode_trace(key, trace),
                                            expect_key=key)
        assert decoded_key == key
        assert decoded.kinds == trace.kinds
        assert decoded.rows == trace.rows


def test_scenario_bit_identical_across_jobs_and_backends(tmp_path):
    # Two points per sweep, so jobs=2 really spawns workers (a single point
    # short-circuits to in-process) and the parent spools, then releases.
    spec = update_spec()
    points = [_point(spec),
              SweepPoint(key="wide", qid=scenario_qid(spec),
                         machine={"l1_line": 64, "l2_line": 128},
                         n_procs=spec.cpus)]

    def hashes(config=None):
        clear_caches()
        register_scenario(spec)
        before = _counter("workload.scenario.released")
        out = run_sweep(points, scale=SCALE, config=config)
        assert _counter("workload.scenario.released") == before + 1
        _assert_no_scenario_traces()
        return {key: summary_hash(s) for key, s in out.items()}

    serial = hashes()
    parallel = hashes(RunConfig(scale=SCALE, jobs=2,
                                checkpoint_dir=str(tmp_path / "ckpt"),
                                lease_ttl=20.0))
    assert serial == parallel
    assert serial[spec.name] != serial["wide"]


def _counter(name):
    return registry().value(name)


def _assert_no_scenario_traces():
    """No ``scn:`` trace is reachable from any process-wide cache."""
    assert not session._RECORDINGS
    for cache in experiment._all_trace_caches():
        assert not [k for k in cache._traces if session.is_scenario_qid(k[0])]


@pytest.fixture
def trace_refs(monkeypatch):
    """Weak references to every trace the sweep hands to the simulator."""
    refs = []
    simulate = sweep.simulate_point

    def spy(point, scale, traces):
        refs.extend(weakref.ref(t) for t in traces)
        return simulate(point, scale, traces)

    monkeypatch.setattr(sweep, "simulate_point", spy)
    return refs


def test_run_scenario_releases_its_traces(trace_refs):
    spec = update_spec()
    recordings = _counter("workload.scenario.recordings")
    released = _counter("workload.scenario.released")
    run_scenario(spec, scale=SCALE)
    assert _counter("workload.scenario.recordings") == recordings + 1
    assert _counter("workload.scenario.released") == released + 1
    _assert_no_scenario_traces()
    gc.collect()
    # A forgotten pin (the horizon schedule memo holds its traces by
    # strong reference) would keep these alive.
    assert len(trace_refs) == spec.cpus
    assert all(ref() is None for ref in trace_refs)
    # The stats still account for what was recorded and dropped.
    stats = trace_cache_stats()
    assert (stats["traces"], stats["released"]) == (0, spec.cpus)
    assert stats["records"] == spec.cpus
    assert stats["bytes"] > 0 and 0 < stats["events"] <= stats["source_events"]


def test_record_scenario_span_reports_rows():
    from repro.tpcd.scales import get_scale

    qid, sc = register_scenario(update_spec()), get_scale(SCALE)
    obs.tracer().reset()  # earlier tests leave their span trees behind
    obs.enable(record_events=False)
    try:
        traces = record_scenario(qid, sc, 42, sc.arena_size)
        (root,) = obs.tracer().tree()
    finally:
        obs.disable()
        obs.tracer().reset()
    assert root["name"] == "record-scenario"
    assert root["meta"]["rows"] == sum(len(t) for t in traces.values()) > 0


def test_one_scenario_many_machines_records_once_then_releases(trace_refs):
    spec = update_spec()
    qid = register_scenario(spec)
    points = [SweepPoint(key=line, qid=qid, n_procs=spec.cpus,
                         machine={"l1_line": line // 2, "l2_line": line})
              for line in (64, 128)]
    recordings = _counter("workload.scenario.recordings")
    out = run_sweep(points, scale=SCALE)
    assert _counter("workload.scenario.recordings") == recordings + 1
    assert summary_hash(out[64]) != summary_hash(out[128])
    # Both points replayed the same trace objects: the second is a cache
    # hit, not a second recording, and release waited for it.
    assert len(trace_refs) == 2 * spec.cpus
    assert trace_refs[:spec.cpus] == trace_refs[spec.cpus:]
    assert trace_cache_stats()["hits"] == spec.cpus
    _assert_no_scenario_traces()
    gc.collect()
    assert all(ref() is None for ref in trace_refs)


def test_query_traces_keep_process_lifetime_caching(trace_refs):
    point = SweepPoint(key="base", qid="Q6")
    run_sweep([point], scale=SCALE)
    gc.collect()
    cache = workload_trace_cache(SCALE)
    assert cache.stats()["traces"] == point.n_procs
    assert cache.stats()["released"] == 0
    traces = [ref() for ref in trace_refs]
    assert all(t is not None for t in traces)
    if resolve_kernel() != "scalar":
        # The replay plans stay with the trace, and ``stats`` counts them.
        assert all(t._batch_plans for t in traces)
        assert cache.stats()["plan_bytes"] > 0
    # ... and a second sweep over the same traces records nothing new.
    run_sweep([SweepPoint(key="wide", qid="Q6",
                          machine={"l1_line": 64, "l2_line": 128})],
              scale=SCALE)
    assert cache.stats()["records"] == point.n_procs


def test_stored_scenario_replays_without_registration(tmp_path):
    spec = update_spec()
    store = str(tmp_path / "traces")
    set_trace_dir(store)
    register_scenario(spec)
    recorded = run_sweep([_point(spec)], scale=SCALE)[spec.name]
    stored = [f for f in os.listdir(store) if "scn" in f]
    assert len(stored) == spec.cpus

    # A fresh process replaying from the store never needs the spec: the
    # qid is just a trace identity.  Simulate one by dropping every cache
    # and the scenario registry, then resolving the same point cold.
    clear_caches()
    set_trace_dir(store)
    replayed = run_sweep([_point(spec)], scale=SCALE)[spec.name]
    assert summary_hash(replayed) == summary_hash(recorded)


def test_run_scenario_reports_lock_line_behaviour():
    spec = update_spec()
    results = run_scenario(spec, scale=SCALE)
    assert results["qid"] == scenario_qid(spec)
    assert results["spec"] == spec.as_dict()
    text = scenario_report(results)
    assert spec.name in text
    assert "lock-line" in text
    assert "coherence" in text


def test_unregistered_scenario_record_fails_helpfully():
    spec = update_spec(name="ghost")
    qid = scenario_qid(spec)
    from repro.tpcd.scales import get_scale

    with pytest.raises(KeyError, match="not registered"):
        record_scenario(qid, get_scale(SCALE), 42,
                        get_scale(SCALE).arena_size)
