"""Replay equivalence: recorded traces must reproduce live runs bit for bit.

The trace cache's contract (see :mod:`repro.core.tracecache`) is that a
replayed workload is indistinguishable from a live one: same execution
time, same miss counters, same per-processor accounting, same query rows.
The only permitted difference is ``CpuStats.events``, because record-time
coalescing merges runs of busy/hit events without changing what they do.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import experiment
from repro.core.experiment import (
    WorkloadResult,
    clear_caches,
    run_mixed_workload,
    run_query_workload,
    run_warm_workload,
    workload_trace_cache,
)
from repro.core.run import RunConfig
from repro.core.sweep import SweepPoint, clear_variant_cache, run_sweep
from repro.core.tracecache import QueryTrace, record
from repro.db.shmem import shared_home_fn
from repro.memsim.events import (
    EV_BUSY, EV_HIT, EV_LOCK_ACQ, EV_LOCK_REL, EV_READ, EV_WRITE,
)
from repro.memsim.batch import resolve_kernel
from repro.memsim.interleave import Interleaver
from repro.memsim.numa import NumaMachine
from repro.memsim.stats import MachineStats
from repro.tpcd.queries import QUERY_IDS
from repro.tpcd.scales import get_scale

SCALE = "tiny"


def machine_snapshot(stats):
    """Every MachineStats counter, as plain data."""
    out = {}
    for name in MachineStats.__slots__:
        value = getattr(stats, name)
        if isinstance(value, list):
            value = [list(row) if isinstance(row, list) else row
                     for row in value]
        out[name] = value
    return out


def cpu_snapshot(s):
    # ``events`` is deliberately excluded: coalescing changes how many
    # dispatches a busy run takes, but not its cycles or machine effects.
    return {
        "busy": s.busy,
        "msync": s.msync,
        "mem_by_class": list(s.mem_by_class),
        "finish_time": s.finish_time,
    }


def assert_equivalent(live, replayed):
    assert replayed.exec_time == live.exec_time
    assert machine_snapshot(replayed.stats) == machine_snapshot(live.stats)
    assert replayed.rows_per_cpu == live.rows_per_cpu
    assert ([cpu_snapshot(s) for s in replayed.run.cpu_stats]
            == [cpu_snapshot(s) for s in live.run.cpu_stats])


def _traces(qid, seed_base=0, n_procs=4):
    """``run_query_workload``'s streams, from the shared trace cache."""
    cache = workload_trace_cache(SCALE)
    return [cache.get(qid, seed_base + i, i) for i in range(n_procs)]


def _replayed(label, traces, machine=None, reset_stats=False):
    """``traces`` through ``run_traces`` under the process-default kernel,
    as sweeps replay them."""
    scale = get_scale(SCALE)
    if machine is None:
        machine = NumaMachine(scale.machine_config(),
                              home_fn=shared_home_fn())
    sink = {}
    run = Interleaver(machine).run_traces(traces, sink=sink,
                                          reset_stats=reset_stats)
    return WorkloadResult(label, scale, machine, run, sink)


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_replay_bit_identical(qid):
    """All 17 TPC-D queries: replay == live on every counter."""
    live = run_query_workload(qid, scale=SCALE)
    assert_equivalent(live, _replayed(qid, _traces(qid)))


def test_replay_is_deterministic():
    """Replaying twice gives the same simulation both times."""
    first = _replayed("Q6", _traces("Q6"))
    second = _replayed("Q6", _traces("Q6"))
    assert_equivalent(first, second)


def test_mixed_workload_replay():
    """Heterogeneous slots and per-slot query streams replay exactly.

    A slot's stream is one trace per query, concatenated: a trace
    recorded on a fresh backend equals the live stream on a reused one
    because ``reset_heap`` restores the private address state a fresh
    backend starts with."""
    qids = ["Q3", ["Q6", "Q12"], "Q12", "Q6"]
    live = run_mixed_workload(qids, scale=SCALE)
    cache = workload_trace_cache(SCALE)
    traces = []
    for i, spec in enumerate(qids):
        queries = spec if isinstance(spec, list) else [spec]
        parts = [cache.get(qid, i + 10 * j, i)
                 for j, qid in enumerate(queries)]
        slot = QueryTrace()
        for part in parts:
            slot.extend(part.replay())
        slot.rows = ([part.rows for part in parts]
                     if isinstance(spec, list) else parts[0].rows)
        traces.append(slot)
    assert_equivalent(live, _replayed(tuple(qids), traces))


def test_warm_workload_replay():
    """Warm-start (Figure 12) runs replay exactly, including cache state
    carried from the warm-up phase."""
    live = run_warm_workload("Q6", warm_qid="Q3", scale=SCALE)
    warm = _replayed("Q3", _traces("Q3", seed_base=100))
    replayed = _replayed("Q6", _traces("Q6"), machine=warm.machine,
                         reset_stats=True)
    assert_equivalent(live, replayed)


def _run_both_replays(qid, config):
    """The same traces through ``Interleaver.run`` (as re-emitted event
    streams) and through ``run_traces`` under the default kernel."""
    traces = _traces(qid)

    gen_machine = NumaMachine(config, home_fn=shared_home_fn())
    gen_run = Interleaver(gen_machine).run([t.replay() for t in traces])
    gen_sink = {i: t.rows for i, t in enumerate(traces)}

    arr_machine = NumaMachine(config, home_fn=shared_home_fn())
    arr_sink = {}
    arr_run = Interleaver(arr_machine).run_traces(traces, sink=arr_sink)
    return (gen_machine, gen_run, gen_sink), (arr_machine, arr_run, arr_sink)


def assert_runs_identical(gen, arr):
    (gen_machine, gen_run, gen_sink) = gen
    (arr_machine, arr_run, arr_sink) = arr
    assert arr_run.exec_time == gen_run.exec_time
    assert (machine_snapshot(arr_machine.stats)
            == machine_snapshot(gen_machine.stats))
    assert arr_sink == gen_sink
    # ``run`` re-records the replayed streams into the same rows, so even
    # ``events`` matches.
    assert ([dict(cpu_snapshot(s), events=s.events)
             for s in arr_run.cpu_stats]
            == [dict(cpu_snapshot(s), events=s.events)
                for s in gen_run.cpu_stats])


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_array_direct_replay_matches_generator(qid):
    """All 17 queries: ``run_traces`` is bit-identical to ``run`` over
    the traces' event streams -- every machine counter, per-CPU stat,
    and result row."""
    gen, arr = _run_both_replays(qid, get_scale(SCALE).machine_config())
    assert_runs_identical(gen, arr)


@pytest.mark.parametrize("config_kwargs", [
    {"l1_line": 8, "l2_line": 16},      # line-crossing accesses everywhere
    {"prefetch_data": True},            # hit fusion disabled in run_traces
])
def test_array_direct_replay_matches_generator_variants(config_kwargs):
    gen, arr = _run_both_replays(
        "Q6", get_scale(SCALE).machine_config(**config_kwargs))
    assert_runs_identical(gen, arr)


def test_trace_encoding_is_columnar_and_coalesced():
    cache = workload_trace_cache(SCALE)
    trace = cache.get("Q6", seed=0, node=0)
    assert len(trace.kinds) == len(trace.a) == len(trace.b) == len(trace.c)
    # Coalescing can only shrink the stream, never grow it.
    assert len(trace) <= trace.n_source_events
    assert trace.nbytes() > 0
    assert trace.rows is not None
    stats = cache.stats()
    assert stats["traces"] >= 1
    assert stats["events"] <= stats["source_events"]


def _fresh_copy(trace):
    """``trace``'s columns in a new trace object, with no replay memos."""
    copy = QueryTrace()
    for name in ("kinds", "a", "b", "c", "d", "e"):
        setattr(copy, name, getattr(trace, name)[:])
    copy.lock_ids = list(trace.lock_ids)
    copy.rows = trace.rows
    return copy


def test_replay_retains_less_than_the_encoded_trace():
    """Replay keeps no per-row Python objects: what the first replay
    leaves on a trace is its batch plan at rest, 12 B/row under the
    batched kernel (``mem_lines`` ``'i'`` plus ``mcost``/``mreads``
    ``'I'``) and nothing under scalar.  A list-typed plan column, or
    64-bit ``mcost``/``mreads`` (20 B/row), fails here.  Runs under the
    process-default kernel (the CI kernel passes cover each) on one
    trace: tracing every allocation makes replay ~50x slower."""
    kernel = resolve_kernel()
    if kernel == "horizon":
        pytest.skip("horizon schedules keep per-row stop lists by design")
    scale = get_scale(SCALE)
    cache = workload_trace_cache(SCALE)
    trace = _fresh_copy(cache.get("Q6", 0, 0, arena_size=scale.arena_size))
    rows = len(trace)
    assert trace.nbytes() / rows < 19  # 18 B/row of 32-bit columns
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        machine = NumaMachine(scale.machine_config(), home_fn=shared_home_fn())
        Interleaver(machine).run_traces([trace])
        del machine
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    if kernel == "batched":
        assert 12 <= retained / rows < 13
    else:
        assert retained / rows < 1


def test_sweep_point_summaries_match_workload():
    point = SweepPoint(key="base", qid="Q6")
    summary = run_sweep([point], scale=SCALE)["base"]
    w = run_query_workload("Q6", scale=SCALE)
    assert summary["exec_time"] == w.exec_time
    assert summary["components"] == w.time_components()
    assert summary["l1_grouped"] == w.stats.grouped("l1")


def test_sweep_process_pool_matches_serial():
    points = [
        SweepPoint(key=("Q6", line), qid="Q6",
                   machine={"l1_line": line // 2, "l2_line": line})
        for line in (32, 64)
    ]
    serial = run_sweep(points, scale=SCALE,
                       config=RunConfig(scale=SCALE, jobs=1))
    # Drop the parent's point memo so jobs=2 actually spawns workers
    # (run_sweep answers memoized points without them).
    clear_variant_cache()
    parallel = run_sweep(points, scale=SCALE,
                         config=RunConfig(scale=SCALE, jobs=2))
    assert parallel == serial


def test_sweep_memoized_points_skip_the_pool():
    """A sweep whose points are already memoized answers without workers
    even when ``jobs>1`` (how fig9 is free right after fig8)."""
    points = [SweepPoint(key="base", qid="Q6")]
    first = run_sweep(points, scale=SCALE,
                      config=RunConfig(scale=SCALE, jobs=1))
    again = run_sweep(points, scale=SCALE,
                      config=RunConfig(scale=SCALE, jobs=4))
    assert again == first


def test_clear_caches_drops_everything():
    _traces("Q6")
    assert experiment._DB_CACHE and experiment._TRACE_CACHE
    cache = workload_trace_cache(SCALE)
    assert cache.stats()["traces"] > 0
    clear_caches()
    assert not experiment._DB_CACHE
    assert not experiment._TRACE_CACHE
    assert cache.stats()["traces"] == 0


# -- the incremental encoder ---------------------------------------------------

def _stream(events, rows=None):
    """A traced generator: yields ``events``, returns ``rows``."""
    yield from events
    return rows


def _widths(trace):
    return "".join(getattr(trace, col).typecode for col in "abde")


def _encoded(trace):
    return (trace.kinds, trace.a, trace.b, trace.c, trace.d, trace.e,
            _widths(trace), trace.lock_ids, trace.rows, trace.n_source_events)


def _record_in_pieces(pieces, rows=None):
    """One trace fed piece by piece; also returns each piece's value."""
    trace = QueryTrace()
    values = [trace.extend(_stream(piece, i))
              for i, piece in enumerate(pieces)]
    trace.rows = rows
    return trace, values


_LOCK_NAMES = st.sampled_from(["lk:a", "lk:b", ("rel", 7)])
_EVENTS = st.one_of(
    st.tuples(st.sampled_from([EV_READ, EV_WRITE]),
              st.integers(0, 1 << 40), st.integers(1, 64),
              st.integers(0, 8)),
    st.tuples(st.sampled_from([EV_BUSY, EV_HIT]), st.integers(1, 500)),
    st.tuples(st.sampled_from([EV_LOCK_ACQ, EV_LOCK_REL]), _LOCK_NAMES,
              st.integers(0, 1 << 40), st.integers(0, 8)),
)


@settings(max_examples=200, deadline=None)
@given(events=st.lists(_EVENTS, max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=6))
def test_extend_in_pieces_equals_one_pass(events, cuts):
    bounds = [0] + sorted(min(c, len(events)) for c in cuts) + [len(events)]
    pieces = [events[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    whole = record(_stream(events, rows=["r"]))
    split, values = _record_in_pieces(pieces, rows=["r"])
    assert _encoded(split) == _encoded(whole)
    assert values == list(range(len(pieces)))
    assert whole.n_source_events == len(events)


@settings(max_examples=200, deadline=None)
@given(events=st.lists(_EVENTS, max_size=40))
def test_rerecorded_replay_encodes_like_the_trace(events):
    """``replay()`` yields only event shapes, fused rows included, so
    recording it again loses no cycle or hit."""
    trace = record(_stream(events))
    again = record(trace.replay())
    # ``rows`` and ``n_source_events`` describe the source stream.
    assert _encoded(again)[:8] == _encoded(trace)[:8]


@pytest.mark.parametrize("kind", [EV_READ, EV_WRITE])
def test_gap_busy_fuses_into_previous_ops_trailing_reference(kind):
    ref = (kind, 4096, 8, 1)
    trace, _ = _record_in_pieces([[ref], [(EV_BUSY, 30)], [(EV_HIT, 5)]])
    assert list(trace.kinds) == [kind]
    assert (trace.d[0], trace.e[0]) == (35, 5)
    assert trace.n_source_events == 3


def test_standalone_busy_merges_across_a_cut():
    trace, _ = _record_in_pieces(
        [[(EV_BUSY, 10)], [(EV_BUSY, 5)], [(EV_HIT, 2)], [(EV_HIT, 3)]])
    assert list(trace.kinds) == [EV_BUSY, EV_HIT]
    assert list(trace.a) == [15, 5]


def test_lock_event_at_a_cut_clears_fusable():
    trace, _ = _record_in_pieces(
        [[(EV_READ, 64, 4, 1)], [(EV_LOCK_REL, "lk", 128, 7)],
         [(EV_BUSY, 9)], [(EV_LOCK_ACQ, "lk", 128, 7)]])
    assert list(trace.kinds) == [EV_READ, EV_LOCK_REL, EV_BUSY, EV_LOCK_ACQ]
    assert list(trace.d) == [0, 0, 0, 0]
    assert trace.lock_ids == ["lk"] and list(trace.a)[1::2] == [0, 0]


def test_a_value_past_32_bits_widens_only_its_column():
    trace = QueryTrace()
    trace.extend(_stream([(EV_READ, 64, 4, 1), (EV_BUSY, 7)]))
    assert _widths(trace) == "IIII"
    trace.extend(_stream([(EV_READ, 1 << 40, 4, 1)]))
    assert _widths(trace) == "qIII"
    trace.extend(_stream([(EV_HIT, 1 << 32), (EV_LOCK_ACQ, "lk", 1 << 35, 0),
                          (EV_BUSY, 1 << 32), (EV_BUSY, 1 << 32)]))
    assert _widths(trace) == "qqqq"
    assert list(trace.kinds) == [EV_READ, EV_READ, EV_LOCK_ACQ, EV_BUSY]
    assert list(trace.a) == [64, 1 << 40, 0, 1 << 33]
    assert list(trace.b) == [4, 4, 1 << 35, 0]
    assert (list(trace.d), list(trace.e)) == ([7, 1 << 32, 0, 0],
                                              [0, 1 << 32, 0, 0])
    assert trace.n_source_events == 7


def test_overflow_raised_by_the_stream_propagates():
    def stream():
        yield (EV_READ, 64, 4, 1)
        raise OverflowError("from the engine")

    trace = QueryTrace()
    with pytest.raises(OverflowError, match="from the engine"):
        trace.extend(stream())
    assert list(trace.a) == [64] and trace.a.typecode == "I"


def test_unknown_event_kind_raises():
    with pytest.raises(ValueError, match="unknown event kind"):
        record(_stream([(EV_READ, 0, 4, 0), (9, 1)]))
    trace = QueryTrace()
    trace.extend(_stream([(EV_BUSY, 1)]))
    with pytest.raises(ValueError, match="unknown event kind"):
        trace.extend(_stream([(6, 1)]))
