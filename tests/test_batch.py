"""Replay kernels: bit-identity, partitioning, classification, selection.

The batched and horizon engines (:mod:`repro.memsim.batch`,
:mod:`repro.memsim.horizon`, plus ``Interleaver._run_traces_batched`` /
``_run_traces_horizon``) must be indistinguishable from the scalar
reference loop on every counter the simulator exposes.  These tests
drive all engines over synthetic traces -- built through the same
``record()`` coalescing path real queries use -- including adversarial
mixes hypothesis generates: shared lines, lock handoffs, line-crossing
accesses, L1-set aliasing that forces the horizon kernel's eviction
guard, and write-buffer pressure.  The planner's tag column, the
sharing classifier, and the kernel-selection precedence are pinned
separately.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.run import RunConfig, configure_run, current_run_config
from repro.core.tracecache import record
from repro.memsim import batch
from repro.memsim.batch import (
    HAVE_NUMPY,
    machine_batch_reason,
    resolve_kernel,
    set_default_kernel,
    trace_plan,
)
from repro.memsim.events import (
    EV_BUSY, EV_HIT, EV_LOCK_ACQ, EV_LOCK_REL, EV_READ, EV_WRITE,
)
from repro.memsim.horizon import horizon_schedule
from repro.memsim.interleave import Interleaver
from repro.memsim.numa import MachineConfig, NumaMachine
from repro.memsim.stats import MachineStats

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

CONFIG = MachineConfig(n_nodes=4, l1_size=512, l1_line=16,
                       l2_size=2048, l2_line=32)


def home(addr):
    """Round-robin 8-KB pages over the four nodes."""
    return (addr >> 13) & 3


def make_trace(events):
    """A QueryTrace from plain event tuples, via the record() coalescer."""
    trace = record(iter(events))
    trace.rows = []
    return trace


def machine_snapshot(stats):
    out = {}
    for name in MachineStats.__slots__:
        value = getattr(stats, name)
        if isinstance(value, list):
            value = [list(row) if isinstance(row, list) else row
                     for row in value]
        out[name] = value
    return out


def run_kernel(traces, kernel, config=CONFIG, sanitize=False):
    machine = NumaMachine(config, home_fn=home)
    sink = {}
    run = Interleaver(machine).run_traces(traces, sink=sink, kernel=kernel)
    if sanitize:
        machine.check_invariants()
    return {
        "machine": machine_snapshot(machine.stats),
        "cpu": [(s.busy, s.msync, list(s.mem_by_class), s.finish_time,
                 s.events) for s in run.cpu_stats],
        "sink": sink,
        "wb": [(wb.stall_cycles, wb._last_completion, list(wb.entries))
               for wb in machine.wb],
        "clock": max(s.finish_time for s in run.cpu_stats),
    }


def assert_kernels_agree(per_cpu_events, config=CONFIG):
    traces = [make_trace(evs) for evs in per_cpu_events]
    scalar = run_kernel(traces, "scalar", config)
    batched = run_kernel(traces, "batched", config, sanitize=True)
    assert batched == scalar
    horizon = run_kernel(traces, "horizon", config, sanitize=True)
    assert horizon == scalar


# -- bit-identity on hand-built boundary traces ----------------------------------


def test_single_line_reads_and_writes_identical():
    line = CONFIG.l1_line
    events = [(EV_READ, i * line, 4, 1) for i in range(64)]
    events += [(EV_WRITE, i * line, 4, 1) for i in range(64)]
    events += [(EV_READ, 0, 4, 0), (EV_BUSY, 17), (EV_HIT, 3)]
    assert_kernels_agree([events] * 4)


def test_line_crossing_accesses_identical():
    """Multi-line tuple copies take the engine's inlined per-line loops."""
    line = CONFIG.l1_line
    events = []
    for i in range(48):
        events.append((EV_READ, i * 24, 64, 1))       # crosses 4-5 lines
        events.append((EV_WRITE, i * 40 + 8, 100, 2))  # crosses ~7 lines
        events.append((EV_READ, i * line + line - 2, 4, 1))  # straddles 2
    assert_kernels_agree([events] * 4)


def test_write_buffer_pressure_identical():
    """Back-to-back stores overflow the write buffer; stalls must match."""
    events = [(EV_WRITE, i * CONFIG.l2_line, 4, 1) for i in range(256)]
    assert_kernels_agree([events] * 4)


def test_shared_lines_and_locks_identical():
    """Cross-CPU sharing, invalidations, and lock handoffs line up."""
    line = CONFIG.l1_line
    per_cpu = []
    for cpu in range(4):
        events = [(EV_BUSY, 3 + cpu)]
        for i in range(32):
            events.append((EV_READ, i * line, 4, 1))       # shared reads
            events.append((EV_WRITE, i * line, 4, 1))      # ping-pong writes
        events.append((EV_LOCK_ACQ, "latch", 4096, 5))
        events.append((EV_READ, 4096 + line, 8, 5))
        events.append((EV_LOCK_REL, "latch", 4096, 5))
        events.append((EV_HIT, 9))
        per_cpu.append(events)
    assert_kernels_agree(per_cpu)


def test_size_zero_and_tiny_accesses_identical():
    """Size-0/1 accesses at line boundaries hit the do-once line loops."""
    line = CONFIG.l1_line
    events = []
    for i in range(16):
        events.append((EV_READ, i * line, 0, 1))
        events.append((EV_WRITE, i * line, 1, 1))
        events.append((EV_READ, i * line + line - 1, 2, 1))
    assert_kernels_agree([events] * 4)


def test_long_resident_read_run_identical():
    """A long run of reads over two resident lines (busy rows mixed in,
    one store in the middle) retires row by row through the inline tier."""
    line = CONFIG.l1_line
    events = [(EV_READ, 0, 4, 1), (EV_READ, line, 4, 1)]
    for i in range(96):
        events.append((EV_READ, (i % 2) * line, 4, 1))
        if i % 7 == 0:
            events.append((EV_BUSY, 2))
    events.append((EV_WRITE, 0, 4, 1))
    events += [(EV_READ, (i % 2) * line, 4, 1) for i in range(48)]
    assert_kernels_agree([events] * 4)


# -- property-based bit-identity -------------------------------------------------


def _event_strategy():
    line = CONFIG.l1_line
    addr = st.integers(0, 64) .map(lambda i: i * 8)
    size = st.sampled_from([1, 2, 4, 8, 16, 24, 64, 100])
    cls = st.integers(0, 8)
    return st.one_of(
        st.tuples(st.just(EV_READ), addr, size, cls),
        st.tuples(st.just(EV_WRITE), addr, size, cls),
        st.tuples(st.just(EV_BUSY), st.integers(1, 30)),
        st.tuples(st.just(EV_HIT), st.integers(1, 10)),
        # Matched acquire/release around a shared word: emitted as a
        # bracket below so lock protocol invariants hold by construction.
        st.tuples(st.just("LOCKED"), st.sampled_from(["a", "b"]),
                  st.integers(0, 3).map(lambda i: 2048 + i * line)),
    )


@st.composite
def _workload(draw, events_strategy=None):
    if events_strategy is None:
        events_strategy = _event_strategy()
    per_cpu = []
    for _ in range(draw(st.integers(1, 4))):
        events = []
        for ev in draw(st.lists(events_strategy, min_size=1, max_size=80)):
            if ev[0] == "LOCKED":
                _, name, addr = ev
                events.append((EV_LOCK_ACQ, name, addr, 5))
                events.append((EV_READ, addr, 4, 5))
                events.append((EV_LOCK_REL, name, addr, 5))
            else:
                events.append(ev)
        per_cpu.append(events)
    return per_cpu


@settings(max_examples=60, deadline=None)
@given(_workload())
def test_random_workloads_identical(per_cpu):
    assert_kernels_agree(per_cpu)


def _aliasing_event_strategy():
    """Events biased toward the horizon kernel's hard cases.

    Addresses either recur across CPUs on a handful of low lines (so the
    classifier marks them write-shared as soon as anyone stores) or walk
    multiples of the L1 size above them (private lines aliasing the same
    L1 sets, so retire-ahead fills threaten resident shared lines and
    must take the conservative guard path).  Sizes include line-crossing
    spans so the per-line boundary expansion is exercised too.
    """
    l1 = CONFIG.l1_size
    line = CONFIG.l1_line
    addr = st.one_of(
        st.integers(0, 15).map(lambda i: i * 8),
        st.integers(1, 6).map(lambda i: 64 + i * l1),
    )
    size = st.sampled_from([4, 8, 24, 40, 100])
    cls = st.integers(0, 8)
    return st.one_of(
        st.tuples(st.just(EV_READ), addr, size, cls),
        st.tuples(st.just(EV_WRITE), addr, size, cls),
        st.tuples(st.just(EV_BUSY), st.integers(1, 30)),
        st.tuples(st.just(EV_HIT), st.integers(1, 10)),
        st.tuples(st.just("LOCKED"), st.sampled_from(["a", "b"]),
                  st.integers(0, 3).map(lambda i: 2048 + i * line)),
    )


@settings(max_examples=60, deadline=None)
@given(_workload(_aliasing_event_strategy()))
def test_aliasing_workloads_identical(per_cpu):
    assert_kernels_agree(per_cpu)


def _wide_event_strategy():
    """Events whose values overflow the encoder's 32-bit columns.

    Addresses reach 2**40, either drawn at random or from a few high
    lines every CPU shares, placed 2**39 above the low lines so that a
    line tag wrapped to 32 bits aliases a low line's tag; lock words sit
    above 2**32.  A numpy view or plan column that wraps silently
    changes the replay.
    """
    line = CONFIG.l1_line
    addr = st.one_of(
        st.integers(0, 15).map(lambda i: i * 8),
        st.integers(0, 15).map(lambda i: (1 << 39) + i * 8),
        st.integers(0, 1 << 40),
    )
    size = st.sampled_from([1, 4, 8, 24, 100])
    cls = st.integers(0, 8)
    return st.one_of(
        st.tuples(st.just(EV_READ), addr, size, cls),
        st.tuples(st.just(EV_WRITE), addr, size, cls),
        st.tuples(st.just(EV_BUSY), st.integers(1, 30)),
        st.tuples(st.just(EV_HIT), st.integers(1, 10)),
        st.tuples(st.just("LOCKED"), st.sampled_from(["a", "b"]),
                  st.integers(0, 3).map(lambda i: (1 << 33) + i * line)),
    )


@settings(max_examples=60, deadline=None)
@given(_workload(_wide_event_strategy()), st.integers(0, 79))
def test_wide_value_workloads_identical(per_cpu, at):
    """Addresses up to 2**40 and one fused busy run of 2**32 cycles
    (behind a single-line read, so it retires through the plan's
    ``mcost``): the encoder widens those columns, and every kernel still
    agrees."""
    events = per_cpu[0]
    at = min(at, len(events))
    events[at:at] = [(EV_READ, 1 << 40, 8, 1), (EV_READ, 64, 4, 1),
                     (EV_BUSY, 1 << 32)]
    trace = make_trace(events)
    assert trace.a.typecode == trace.d.typecode == trace.e.typecode == "q"
    assert_kernels_agree(per_cpu)


# -- the planner -----------------------------------------------------------------


@needs_numpy
def test_plan_tags_single_line_rows():
    line = CONFIG.l1_line
    shift = line.bit_length() - 1
    trace = make_trace([
        (EV_BUSY, 5),                        # standalone busy -> -1
        (EV_READ, 0, 4, 1),                  # single line -> tagged
        (EV_WRITE, line, 4, 1),              # single line -> tagged
        (EV_READ, line - 2, 4, 1),           # crosses two lines -> -1
        (EV_LOCK_ACQ, "l", 64, 5),           # lock -> -1
        (EV_READ, 64, 4, 5),                 # single line -> tagged
        (EV_LOCK_REL, "l", 64, 5),
    ])
    plan = trace_plan(trace, shift)
    assert plan.mem_lines[0] == -1           # busy
    assert plan.mem_lines[1] == 0
    assert plan.mem_lines[2] == 1
    assert plan.mem_lines[3] == -1           # line-crossing
    assert plan.mem_lines[4] == -1           # lock acquire
    assert plan.mem_lines[5] == 64 >> shift
    assert plan.mem_lines[6] == -1           # lock release
    assert plan.n_rows == len(trace)


@needs_numpy
def test_plan_columns_are_as_narrow_as_their_values():
    """Plan columns take the narrowest width their values fit: 32 bits
    for ordinary traces, 64 where a tag or a cost does not fit, never
    a silently wrapped value."""
    shift = CONFIG.l1_line.bit_length() - 1
    narrow = trace_plan(make_trace([(EV_READ, 64, 4, 1), (EV_BUSY, 3)]),
                        shift)
    assert (narrow.mem_lines.typecode, narrow.mcost.typecode,
            narrow.mreads.typecode) == ("i", "I", "I")
    assert (list(narrow.mem_lines), list(narrow.mcost)) == ([64 >> shift],
                                                            [4])
    addr = 1 << 40
    wide = trace_plan(make_trace([(EV_READ, addr, 4, 1),
                                  (EV_HIT, 1 << 32), (EV_WRITE, 8, 4, 1)]),
                      shift)
    assert (wide.mem_lines.typecode, wide.mcost.typecode,
            wide.mreads.typecode) == ("q", "q", "q")
    assert list(wide.mem_lines) == [addr >> shift, 8 >> shift]
    assert list(wide.mcost) == [1 + (1 << 32), 1]
    assert list(wide.mreads) == [1 + (1 << 32), 0]


@needs_numpy
def test_plan_memoized_per_geometry():
    trace = make_trace([(EV_READ, 0, 4, 1)] * 4)
    p1 = trace_plan(trace, 4)
    assert trace_plan(trace, 4) is p1
    p2 = trace_plan(trace, 5)
    assert p2 is not p1
    assert trace_plan(trace, 5) is p2
    # The set count is not part of the geometry a plan depends on.
    assert trace.batch_plan(5, 16) is trace.batch_plan(5, 64) is p2


@needs_numpy
def test_prefetch_machine_falls_back():
    machine = NumaMachine(CONFIG.replace(prefetch_data=True), home_fn=home)
    assert machine_batch_reason(machine) == "prefetch"
    events = [(EV_READ, i * 8, 4, 1) for i in range(64)]
    traces = [make_trace(events) for _ in range(2)]
    from repro.obs.metrics import registry
    before = registry().value("interleave.kernel.fallback.prefetch")
    Interleaver(machine).run_traces(traces, kernel="batched")
    assert registry().value("interleave.kernel.fallback.prefetch") \
        == before + 1


@needs_numpy
def test_plain_machine_is_batchable():
    assert machine_batch_reason(NumaMachine(CONFIG, home_fn=home)) is None


@needs_numpy
def test_set_associative_l1_still_batches():
    """assoc > 1 is no fallback reason: the inline tier moves LRU state
    exactly as the scalar paths do."""
    config = MachineConfig(n_nodes=2, l1_size=512, l1_line=16, l1_assoc=2,
                           l2_size=2048, l2_line=32)
    assert machine_batch_reason(NumaMachine(config, home_fn=home)) is None
    events = [(EV_READ, (i % 24) * 16, 4, 1) for i in range(256)]
    events += [(EV_WRITE, (i % 8) * 16, 4, 1) for i in range(64)]
    traces = [make_trace(events)] * 2
    assert (run_kernel(traces, "batched", config, sanitize=True)
            == run_kernel(traces, "scalar", config))


# -- the sharing classifier ------------------------------------------------------


L2_SHIFT = CONFIG.l2_line.bit_length() - 1


@needs_numpy
def test_classifier_write_shared_lines():
    """A line is write-shared iff someone writes it and someone else
    touches it; read-only sharing and private writes stay retirable."""
    l2 = CONFIG.l2_line
    t0 = make_trace([(EV_READ, 0, 4, 1), (EV_WRITE, l2, 4, 1),
                     (EV_READ, 4 * l2, 4, 1)])
    t1 = make_trace([(EV_READ, l2, 4, 1), (EV_WRITE, 2 * l2, 4, 1),
                     (EV_READ, 0, 4, 1)])
    sched = horizon_schedule([t0, t1], L2_SHIFT)
    # line 1: written by cpu0, read by cpu1 -> write-shared.
    # line 0: read by both but written by nobody; line 2: written by
    # cpu1 only; line 4: private -> none are boundaries.
    assert sched.ws == {1}


@needs_numpy
def test_classifier_single_trace_has_no_sharing():
    t = make_trace([(EV_WRITE, i * 8, 4, 1) for i in range(32)])
    sched = horizon_schedule([t], L2_SHIFT)
    assert sched.ws == set()
    assert sched.plans[0].n_boundary == 0


@needs_numpy
def test_classifier_lock_words_count_as_written():
    """Lock acquire/release rows write their 4-byte lock word, so the
    word's line becomes write-shared for every other toucher -- and the
    lock rows themselves are always boundaries."""
    word = 8 * CONFIG.l2_line
    t0 = make_trace([(EV_LOCK_ACQ, "l", word, 5),
                     (EV_LOCK_REL, "l", word, 5)])
    t1 = make_trace([(EV_READ, word, 4, 1)])
    sched = horizon_schedule([t0, t1], L2_SHIFT)
    assert sched.ws == {word >> L2_SHIFT}
    assert sched.plans[0].stops[0] == 0
    assert sched.plans[0].stops[1] == 1
    assert sched.plans[1].stops[0] == 0


@needs_numpy
def test_schedule_stops_point_at_next_boundary():
    shared = 8 * CONFIG.l2_line
    t0 = make_trace([(EV_READ, i * 8, 4, 1) for i in range(6)]
                    + [(EV_WRITE, shared, 4, 1)]
                    + [(EV_READ, i * 8, 4, 1) for i in range(6)])
    t1 = make_trace([(EV_READ, shared, 4, 1)])
    sched = horizon_schedule([t0, t1], L2_SHIFT)
    stops = sched.plans[0].stops
    n = sched.plans[0].n_rows
    widx = t0.kinds.index(EV_WRITE)
    assert stops[widx] == widx
    assert all(stops[i] == widx for i in range(widx))
    assert all(stops[i] == n for i in range(widx + 1, n))
    assert sched.plans[0].n_boundary == 1


@needs_numpy
def test_line_crossing_into_shared_line_is_boundary():
    """A crossing access is expanded line by line: touching the shared
    line at its edge -- or only through a middle line of a wide span --
    must make the row a boundary (the conservative path)."""
    l2 = CONFIG.l2_line
    shared = 8 * l2
    tail = [(EV_READ, 4096 + i * 8, 4, 1) for i in range(6)]
    # Span ends inside the shared line.
    t0 = make_trace([(EV_READ, shared - 8, 16, 1)] + tail)
    sched = horizon_schedule(
        [t0, make_trace([(EV_WRITE, shared, 4, 1)])], L2_SHIFT)
    assert (shared >> L2_SHIFT) in sched.ws
    assert sched.plans[0].stops[0] == 0
    # Span covers the shared line only as a middle line.
    t2 = make_trace([(EV_READ, shared - l2, 3 * l2, 1)] + tail)
    sched2 = horizon_schedule(
        [t2, make_trace([(EV_WRITE, shared + 4, 4, 1)])], L2_SHIFT)
    assert sched2.plans[0].stops[0] == 0


@needs_numpy
def test_set_aliasing_forces_conservative_path():
    """A retire-ahead fill aliasing the L1 set of a resident write-shared
    line must stop at the eviction guard -- and stay bit-identical."""
    shared = 4096
    reads = [(EV_READ, shared + (k + 1) * CONFIG.l1_size, 4, 1)
             for k in range(12)]
    per_cpu = [
        # cpu0 loads the shared line, spins past cpu1's window limit on a
        # non-aliasing private read (the busy fuses into it), then fills
        # private aliases of its L1 set while the copy is still resident:
        # the fills START beyond the window cut, where the eviction guard
        # must trip.  (A fill starting before the cut dispatches inside
        # the window and needs no trip.)
        [(EV_READ, shared, 4, 1), (EV_READ, shared + 4096 + 16, 4, 1),
         (EV_BUSY, 60000)] + reads + reads,
        # cpu1 writes the line late (long busy first), so classification
        # marks it write-shared but no invalidation clears cpu0's copy
        # before the retire pass reaches the aliasing fills.
        [(EV_BUSY, 50000), (EV_WRITE, shared, 4, 1)],
    ]
    assert_kernels_agree(per_cpu)
    from repro.obs.metrics import registry
    before = registry().value("interleave.horizon.guard_stops")
    run_kernel([make_trace(evs) for evs in per_cpu], "horizon")
    assert registry().value("interleave.horizon.guard_stops") > before


@needs_numpy
def test_horizon_requires_pristine_machine():
    """A machine carrying another run's residue falls back to batched:
    the classifier cannot see lines this trace set never touches."""
    events = [(EV_READ, i * CONFIG.l1_line, 4, 1) for i in range(64)]
    machine = NumaMachine(CONFIG, home_fn=home)
    assert machine.is_pristine()
    il = Interleaver(machine)
    il.run_traces([make_trace(events) for _ in range(2)], kernel="horizon")
    assert not machine.is_pristine()
    from repro.obs.metrics import registry
    before = registry().value("interleave.kernel.fallback.warm_machine")
    il.run_traces([make_trace(events) for _ in range(2)], kernel="horizon")
    assert registry().value("interleave.kernel.fallback.warm_machine") \
        == before + 1
    # The warm rerun (batched fallback) matches a scalar warm rerun.
    m2 = NumaMachine(CONFIG, home_fn=home)
    il2 = Interleaver(m2)
    il2.run_traces([make_trace(events) for _ in range(2)], kernel="scalar")
    il2.run_traces([make_trace(events) for _ in range(2)], kernel="scalar")
    assert machine_snapshot(machine.stats) == machine_snapshot(m2.stats)


# -- kernel selection ------------------------------------------------------------


@pytest.fixture(autouse=True)
def _restore_kernel_default():
    yield
    set_default_kernel("auto")


def test_resolve_kernel_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert resolve_kernel("scalar") == "scalar"
    set_default_kernel("scalar")
    assert resolve_kernel() == "scalar"
    assert resolve_kernel("batched") == ("batched" if HAVE_NUMPY
                                         else "scalar")
    set_default_kernel("auto")
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    assert resolve_kernel() == "scalar"
    monkeypatch.delenv("REPRO_KERNEL")
    for request in (None, "auto"):
        assert resolve_kernel(request) == ("batched" if HAVE_NUMPY
                                           else "scalar")
    monkeypatch.setattr(batch, "HAVE_NUMPY", False)
    assert resolve_kernel() == resolve_kernel("auto") == "scalar"


def test_resolve_kernel_rejects_unknown():
    with pytest.raises(ValueError, match="unknown replay kernel"):
        resolve_kernel("simd")
    with pytest.raises(ValueError, match="unknown replay kernel"):
        set_default_kernel("simd")


def test_batched_without_numpy_warns_once(monkeypatch):
    monkeypatch.setattr(batch, "HAVE_NUMPY", False)
    monkeypatch.setattr(batch, "_WARNED_NO_NUMPY", False)
    with pytest.warns(RuntimeWarning, match="needs numpy"):
        assert resolve_kernel("batched") == "scalar"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel("batched") == "scalar"


def test_run_config_kernel_roundtrip():
    config = RunConfig(kernel="scalar")
    configure_run(config)
    try:
        assert resolve_kernel() == "scalar"
        assert current_run_config().kernel == "scalar"
    finally:
        configure_run(RunConfig())


def test_run_config_rejects_bad_kernel():
    with pytest.raises(ValueError, match="unknown replay kernel"):
        configure_run(RunConfig(kernel="simd"))
