"""Tests for statistics containers and report formatting."""

import pytest

from repro.core.report import format_table, percent
from repro.memsim.events import DataClass
from repro.memsim.stats import CpuStats, MachineStats, merge_cpu_stats


def test_machine_stats_grouping():
    s = MachineStats()
    s.l2_read_misses[DataClass.DATA][0] = 10
    s.l2_read_misses[DataClass.LOCKHASH][2] = 5
    s.l2_read_misses[DataClass.BUFDESC][1] = 3
    g = s.grouped("l2")
    assert g["Data"] == [10, 0, 0]
    assert g["Metadata"] == [0, 3, 5]


def test_miss_rates():
    s = MachineStats()
    s.l1_reads = 1000
    s.l1_read_misses[DataClass.PRIV][1] = 50
    s.l2_read_misses[DataClass.DATA][0] = 10
    assert s.l1_miss_rate() == pytest.approx(0.05)
    assert s.l2_miss_rate() == pytest.approx(0.01)


def test_miss_rate_zero_denominator():
    assert MachineStats().l1_miss_rate() == 0.0


def test_misses_by_class():
    s = MachineStats()
    s.l1_read_misses[DataClass.INDEX] = [1, 2, 3]
    assert s.total_l1_read_misses() == 6


def test_cpu_stats_properties():
    c = CpuStats()
    c.busy = 100
    c.msync = 20
    c.mem_by_class[DataClass.PRIV] = 30
    c.mem_by_class[DataClass.DATA] = 50
    assert c.mem == 80
    assert c.pmem == 30 and c.smem == 50
    assert c.total == 200
    grouped = c.mem_grouped()
    assert grouped["Priv"] == 30 and grouped["Data"] == 50


def test_merge_cpu_stats():
    a, b = CpuStats(), CpuStats()
    a.busy, b.busy = 10, 20
    a.finish_time, b.finish_time = 100, 50
    a.mem_by_class[1] = 5
    b.mem_by_class[1] = 7
    m = merge_cpu_stats([a, b])
    assert m.busy == 30
    assert m.finish_time == 100
    assert m.mem_by_class[1] == 12


def test_reset_zeroes_everything():
    s = MachineStats()
    s.l1_reads = 5
    s.l2_read_misses[0][0] = 2
    s.reset()
    assert s.l1_reads == 0 and s.total_l2_read_misses() == 0


def test_percent_formatting():
    assert percent(0.123) == "12.3%"
    assert percent(0.5, digits=0) == "50%"


def test_format_table_alignment_and_title():
    text = format_table(["Name", "Value"], [["q", 1.234], ["longer", 2]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "Name" in lines[1] and "-" in lines[2]
    assert "1.2" in text  # floats get one decimal
