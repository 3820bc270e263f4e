"""Unit tests for the NUMA machine: latencies, inclusion, coherence."""

import pytest

from repro.memsim.events import DataClass
from repro.memsim.numa import MachineConfig, NumaMachine

PRIV = DataClass.PRIV
DATA = DataClass.DATA


def machine(**over):
    cfg = MachineConfig(**over)
    # Home everything on node 0 unless the test installs its own policy.
    return NumaMachine(cfg, home_fn=lambda addr: 0)


def test_config_rejects_wrong_line_ratio():
    with pytest.raises(ValueError):
        MachineConfig(l1_line=32, l2_line=128)


def test_config_replace_roundtrip():
    cfg = MachineConfig()
    cfg2 = cfg.replace(l2_size=256 * 1024)
    assert cfg2.l2_size == 256 * 1024
    assert cfg2.l1_size == cfg.l1_size


def test_local_read_latency_chain():
    m = machine()
    # Cold: L2 miss to local memory.
    assert m.read(0, 0x1000, 4, DATA, 0) == m.lat_local
    # L1 hit now.
    assert m.read(0, 0x1000, 4, DATA, 10) == 0
    # Evict from L1 only: refill from L2.
    m.l1[0].invalidate(0x1000 >> 5)
    assert m.read(0, 0x1000, 4, DATA, 20) == m.lat_l2


def test_remote_clean_read_is_2hop():
    m = NumaMachine(MachineConfig(), home_fn=lambda addr: 3)
    assert m.read(0, 0x1000, 4, DATA, 0) == m.lat_2hop


def test_remote_dirty_read_is_3hop():
    m = NumaMachine(MachineConfig(), home_fn=lambda addr: 3)
    m.write(1, 0x1000, 4, DATA, 0)   # node 1 holds it dirty
    assert m.read(0, 0x1000, 4, DATA, 100) == m.lat_3hop


def test_dirty_at_home_node_read_is_2hop():
    m = NumaMachine(MachineConfig(), home_fn=lambda addr: 0)
    m.write(1, 0x1000, 4, DATA, 0)
    assert m.read(0, 0x1000, 4, DATA, 100) == m.lat_2hop


def test_write_invalidates_other_copies():
    m = machine()
    m.read(0, 0x1000, 4, DATA, 0)
    m.read(1, 0x1000, 4, DATA, 0)
    m.write(2, 0x1000, 4, DATA, 100)
    assert not m.l1[0].contains(0x1000 >> 5)
    assert not m.l2[0].contains(0x1000 >> 6)
    # Next read by node 0 classifies as a coherence miss.
    m.read(0, 0x1000, 4, DATA, 200)
    assert m.stats.l1_read_misses[DATA][2] >= 1  # MISS_COHERENCE
    assert m.stats.l2_read_misses[DATA][2] >= 1


def test_l1_l2_inclusion_on_l2_eviction():
    cfg = MachineConfig(l2_size=4096, l2_assoc=2, l1_size=1024)
    m = NumaMachine(cfg, home_fn=lambda a: 0)
    # Three L2 lines mapping to the same L2 set (32 sets of 64B, 2-way).
    base = 0x0
    stride = 32 * 64
    for i in range(3):
        m.read(0, base + i * stride, 4, DATA, i * 1000)
    # The first line was evicted from L2; inclusion requires it out of L1.
    assert not m.l2[0].contains(base >> 6)
    assert not m.l1[0].contains(base >> 5)


def test_multi_line_access_touches_all_lines():
    m = machine()
    m.read(0, 0x1000, 200, DATA, 0)  # spans 7 x 32B lines
    for i in range(7):
        assert m.l1[0].contains((0x1000 + i * 32) >> 5)


def test_word_granular_access_counting():
    m = machine()
    m.read(0, 0x1000, 64, DATA, 0)  # 16 words, 2 L1 lines
    assert m.stats.l1_reads == 16
    m2 = machine()
    m2.read(0, 0x1000, 1, DATA, 0)  # 1 byte still counts once
    assert m2.stats.l1_reads == 1


def test_write_buffer_overflow_stalls():
    cfg = MachineConfig(wb_entries=2)
    m = NumaMachine(cfg, home_fn=lambda a: 0)
    stalls = [m.write(0, 0x1000 + i * 4096, 4, PRIV, 0) for i in range(4)]
    assert stalls[0] == 0 and stalls[1] == 0
    assert any(s > 0 for s in stalls[2:])


def test_reset_stats_keeps_cache_contents():
    m = machine()
    m.read(0, 0x1000, 4, DATA, 0)
    m.reset_stats()
    assert m.stats.total_l1_read_misses() == 0
    assert m.read(0, 0x1000, 4, DATA, 10) == 0  # still cached


def test_transfer_time_scales_with_line_size():
    small = NumaMachine(MachineConfig(), home_fn=lambda a: 0)
    big = NumaMachine(MachineConfig(l1_line=128, l2_line=256),
                      home_fn=lambda a: 0)
    assert big.lat_local > small.lat_local
    assert big.lat_2hop > small.lat_2hop
    assert big.lat_l2 > small.lat_l2


def test_prefetch_fills_next_lines():
    cfg = MachineConfig(prefetch_data=True, prefetch_degree=4)
    m = NumaMachine(cfg, home_fn=lambda a: 0)
    m.read(0, 0x0, 4, DATA, 0)
    for i in range(1, 5):
        assert m.l1[0].contains(i)
    assert m.stats.prefetches_issued == 4


def test_prefetch_only_for_database_data():
    cfg = MachineConfig(prefetch_data=True)
    m = NumaMachine(cfg, home_fn=lambda a: 0)
    m.read(0, 0x0, 4, PRIV, 0)
    assert m.stats.prefetches_issued == 0


def test_late_prefetch_charges_partial_stall():
    cfg = MachineConfig(prefetch_data=True, prefetch_degree=1)
    m = NumaMachine(cfg, home_fn=lambda a: 0)
    m.read(0, 0x0, 4, DATA, 0)  # prefetches line 1, fill completes later
    stall = m.read(0, 32, 4, DATA, 1)  # immediately consume line 1
    # Bounded by the fill latency plus port queueing behind the demand miss.
    assert 0 < stall <= 2 * m.lat_local
    assert m.stats.prefetch_late_cycles > 0


def test_prefetch_disabled_by_default():
    m = machine()
    m.read(0, 0x0, 4, DATA, 0)
    assert m.stats.prefetches_issued == 0
    assert not m.l1[0].contains(1)


def test_directory_invariants_after_traffic():
    m = machine()
    for i in range(100):
        node = i % 4
        m.read(node, (i * 52) % 4096, 4, DATA, i * 10)
        if i % 3 == 0:
            m.write(node, (i * 52) % 4096, 4, DATA, i * 10)
    m.check_invariants()
