"""The coherence directory's transitions, driven through ``NumaMachine``.

The directory is plain state (``_sharers``/``_dirty``) that the engines
update on their miss paths, so its rules are checked through the calls the
engines make: ``NumaMachine.read`` and ``NumaMachine.write``.
"""

from hypothesis import given, settings, strategies as st

from repro.memsim.events import DataClass
from repro.memsim.numa import MachineConfig, NumaMachine

DATA = DataClass.DATA
LINE = 0x1000 >> 6  # the L2 line of address 0x1000


def machine():
    return NumaMachine(MachineConfig(), home_fn=lambda addr: 0)


def state(m):
    """(sharers, dirty owner) of LINE."""
    return m.directory._sharers.get(LINE), m.directory._dirty.get(LINE)


def evict_from_l2(m, node, t):
    """Read two more lines into LINE's L2 set (2 ways) on ``node``."""
    stride = m.config.l2_size // m.config.l2_assoc
    for i in (1, 2):
        m.read(node, 0x1000 + i * stride, 4, DATA, t + i)
    assert not m.l2[node].contains(LINE)


def test_read_registers_sharer():
    m = machine()
    m.read(0, 0x1000, 4, DATA, 0)
    assert state(m) == ({0}, None)


def test_write_makes_exclusive_dirty():
    m = machine()
    m.read(0, 0x1000, 4, DATA, 0)
    m.read(1, 0x1000, 4, DATA, 0)
    m.write(2, 0x1000, 4, DATA, 100)
    assert state(m) == ({2}, 2)
    assert not m.l2[0].contains(LINE) and not m.l2[1].contains(LINE)


def test_read_downgrades_dirty_owner():
    m = machine()
    m.write(1, 0x1000, 4, DATA, 0)
    m.read(0, 0x1000, 4, DATA, 100)
    assert state(m) == ({0, 1}, None)


def test_own_dirty_reread_keeps_dirty():
    m = machine()
    m.write(1, 0x1000, 4, DATA, 0)
    # Write-through L1 did not allocate: the re-read fills from the L2.
    assert m.read(1, 0x1000, 4, DATA, 1000) == m.lat_l2
    assert state(m) == ({1}, 1)


def test_write_by_owner_invalidates_nobody():
    m = machine()
    m.write(3, 0x1000, 4, DATA, 0)
    m.write(3, 0x1000, 4, DATA, 1000)
    # No upgrade transaction: the store retires at the L2 write-hit cost.
    assert m.wb[3].entries[-1] == 1000 + m._wb_retire
    assert state(m) == ({3}, 3)


def test_eviction_clears_state():
    m = machine()
    m.write(1, 0x1000, 4, DATA, 0)
    evict_from_l2(m, 1, 100)
    assert state(m) == (None, None)


def test_eviction_of_one_sharer_keeps_others():
    m = machine()
    m.read(0, 0x1000, 4, DATA, 0)
    m.read(1, 0x1000, 4, DATA, 0)
    evict_from_l2(m, 0, 100)
    assert state(m) == ({1}, None)


def test_invariants_pass_on_valid_state():
    m = machine()
    m.write(2, 5 * 64, 4, DATA, 0)
    m.read(1, 7 * 64, 4, DATA, 0)
    m.check_invariants()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["r", "w"]), st.integers(0, 3),
                          st.integers(0, 15)),
                max_size=200))
def test_single_writer_invariant(ops):
    """Property: after any read/write sequence on a machine small enough to
    evict, a dirty line has exactly its owner as sharer and every cached
    line is registered (``NumaMachine.check_invariants``)."""
    m = NumaMachine(MachineConfig(l1_size=128, l2_size=256),
                    home_fn=lambda a: (a >> 6) & 3)
    for t, (op, node, line) in enumerate(ops):
        access = m.read if op == "r" else m.write
        access(node, line * 64, 4, DATA, t * 10)
    m.check_invariants()
