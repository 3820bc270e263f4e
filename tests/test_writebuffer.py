"""The 16-entry write buffer, driven through ``NumaMachine.write``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim.events import DataClass
from repro.memsim.numa import MachineConfig, NumaMachine
from repro.memsim.writebuffer import WriteBuffer


def machine(capacity):
    return NumaMachine(MachineConfig(wb_entries=capacity), home_fn=lambda a: 0)


def store(m, now, i):
    """A store that misses the L2: it retires ``m.lat_local`` after issue."""
    return m.write(0, 0x100000 + i * 64, 4, DataClass.PRIV, now)


def test_no_stall_when_buffer_has_room():
    m = machine(2)
    assert store(m, 0, 0) == 0
    assert store(m, 0, 1) == 0


def test_stall_on_overflow():
    m = machine(1)
    store(m, 0, 0)  # completes at lat_local
    assert store(m, 0, 1) == m.lat_local  # waits for the first to retire


def test_serial_retirement():
    m = machine(4)
    store(m, 0, 0)  # completes at lat_local
    store(m, 0, 1)  # completes at 2 * lat_local, not lat_local
    assert m.drain_time(0, 0) == 2 * m.lat_local


def test_entries_drain_with_time():
    m = machine(2)
    store(m, 0, 0)
    store(m, 0, 1)
    assert len(m.wb[0].entries) == 2
    # Both have retired by 2 * lat_local: a full buffer no longer stalls.
    assert store(m, 2 * m.lat_local, 2) == 0
    assert len(m.wb[0].entries) == 1


def test_drain_time_is_never_before_now():
    wb = WriteBuffer()
    assert wb.drain_time(50) == 50


def test_reset():
    m = machine(1)
    store(m, 0, 0)
    m.reset_stats()
    assert store(m, 0, 1) == 0
    assert m.wb[0].stall_cycles == 0


def test_invalid_capacity():
    with pytest.raises(ValueError):
        WriteBuffer(capacity=0)


def test_stall_cycles_accumulate():
    m = machine(1)
    store(m, 0, 0)
    store(m, 0, 1)  # stalls lat_local
    store(m, 4 * m.lat_local, 2)  # buffer drained: no stall
    assert m.wb[0].stall_cycles == m.lat_local


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 31)),
                min_size=1, max_size=100))
def test_completion_times_monotone_and_capacity_respected(ops):
    """Property: completions are strictly ordered and occupancy is bounded,
    over stores that hit and miss the L2."""
    m = machine(4)
    wb = m.wb[0]
    now = 0
    last_completion = 0
    for dt, line in ops:
        now += dt
        stall = store(m, now, line)
        assert stall >= 0
        assert len(wb.entries) <= 4
        completion = wb.entries[-1]
        assert completion > last_completion
        last_completion = completion
