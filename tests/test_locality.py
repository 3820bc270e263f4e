"""Tests for the locality analyzer -- including the paper's section-3
claims measured on real query reference streams."""

import pytest

from repro.core.locality import REUSE_BUCKETS, analyze, analyze_query, _Fenwick
from repro.memsim.events import DataClass, busy, read, write

DATA = DataClass.DATA
INDEX = DataClass.INDEX
PRIV = DataClass.PRIV


def test_fenwick_prefix_sums():
    f = _Fenwick(10)
    f.add(0, 1)
    f.add(5, 2)
    f.add(9, 3)
    assert f.prefix(0) == 1
    assert f.prefix(4) == 1
    assert f.prefix(5) == 3
    assert f.prefix(9) == 6
    f.add(5, -2)
    assert f.prefix(9) == 4


def test_counts_and_footprint():
    events = [read(0, 8, DATA), read(32, 8, DATA), read(0, 8, DATA)]
    rep = analyze(events, line_size=32)
    cl = rep.classes[DATA]
    assert cl.refs == 3
    assert cl.bytes == 24
    assert cl.footprint == 64  # two distinct 32-byte lines


def test_cold_vs_reuse_classification():
    events = [read(0, 8, DATA), read(64, 8, DATA), read(0, 8, DATA)]
    rep = analyze(events, line_size=32)
    cl = rep.classes[DATA]
    assert cl.cold == 2
    assert sum(cl.reuse_hist) == 1


def test_reuse_distance_exact():
    # Access A, then 10 distinct lines, then A again: distance 10.
    events = [read(0, 4, DATA)]
    events += [read((i + 1) * 64, 4, DATA) for i in range(10)]
    events += [read(0, 4, DATA)]
    rep = analyze(events, line_size=32)
    cl = rep.classes[DATA]
    # Distance 10 falls in the "<64" bucket, not "<8".
    hist = cl.reuse_histogram()
    assert hist["<8"] == 0
    assert hist["<64"] == 1


def test_immediate_reuse_is_short_distance():
    events = [read(0, 4, DATA), read(0, 4, DATA)]
    rep = analyze(events, line_size=32)
    assert rep.classes[DATA].reuse_histogram()["<8"] == 1


def test_sequential_fraction():
    seq = [read(i * 32, 32, DATA) for i in range(50)]
    rep = analyze(seq, line_size=32)
    assert rep.classes[DATA].sequential_fraction > 0.9
    scattered = [read((i * 7919 % 997) * 4096, 8, DATA) for i in range(50)]
    rep2 = analyze(scattered, line_size=32)
    assert rep2.classes[DATA].sequential_fraction < 0.2


def test_line_utilization():
    # 8 bytes touched of each 32-byte line.
    rep = analyze([read(i * 32, 8, DATA) for i in range(10)], line_size=32)
    assert rep.classes[DATA].line_utilization == pytest.approx(0.25)
    # Whole lines touched.
    rep2 = analyze([read(i * 32, 32, DATA) for i in range(10)], line_size=32)
    assert rep2.classes[DATA].line_utilization == pytest.approx(1.0)


def test_classes_tracked_separately():
    events = [read(0, 8, DATA), read(0, 8, INDEX), write(64, 8, PRIV)]
    rep = analyze(events)
    assert rep.classes[DATA].refs == 1
    assert rep.classes[INDEX].refs == 1
    assert rep.classes[PRIV].refs == 1
    assert "Data" in rep.summary() and "Priv" in rep.summary()


def test_non_memory_events_ignored():
    rep = analyze([busy(100), [1, 2, 3], read(0, 4, DATA)])
    assert rep.classes[DATA].refs == 1


def test_temporal_score_bounds():
    hot = [read(0, 4, DATA) for _ in range(100)]
    rep = analyze(hot)
    assert rep.classes[DATA].temporal_score() > 0.9
    stream = [read(i * 64, 4, DATA) for i in range(100)]
    rep2 = analyze(stream)
    assert rep2.classes[DATA].temporal_score() == 0.0


# -- the paper's section-3 claims, measured on real queries -------------------------


@pytest.fixture(scope="module")
def q6_report(tiny_db):
    from repro.tpcd.queries import query_instance

    qi = query_instance("Q6", seed=0)
    return analyze_query(tiny_db, qi.sql, hints=qi.hints)


@pytest.fixture(scope="module")
def q3_report(tiny_db):
    from repro.tpcd.queries import query_instance

    qi = query_instance("Q3", seed=0)
    return analyze_query(tiny_db, qi.sql, hints=qi.hints)


def test_q6_data_has_spatial_but_no_temporal_locality(q6_report):
    """'There is abundant spatial locality... there is, however, no reuse
    of a tuple within a query' (section 3.2)."""
    data = q6_report.classes[DataClass.DATA]
    assert data.sequential_fraction > 0.5
    # Reuses are essentially the immediate re-read of checked attributes;
    # long-distance reuse is negligible and most lines are touched cold.
    far = data.reuse_histogram()[f">={REUSE_BUCKETS[-1]}"]
    assert far < 0.01 * data.refs
    assert data.cold > 0.2 * data.refs


def test_q3_index_has_temporal_locality(q3_report):
    """'The top levels of the index tree are re-read every time a new
    customer is considered' (section 3.1)."""
    index = q3_report.classes[DataClass.INDEX]
    assert index.refs > 0
    assert index.temporal_score(capacity_lines=512) > 0.3


def test_q3_data_not_sequential(q3_report, q6_report):
    """Index queries fetch scattered tuples; sequential queries stream."""
    assert q3_report.classes[DataClass.DATA].sequential_fraction < \
        q6_report.classes[DataClass.DATA].sequential_fraction


def test_q3_lockslock_footprint_tiny(q3_report):
    """Metadata structures have a tiny footprint (section 4.2)."""
    lock = q3_report.classes[DataClass.LOCKSLOCK]
    assert lock.refs > 0
    assert lock.footprint <= 64
    # Every non-cold access to the single lock word re-uses it; measured
    # against the global reuse stack, it stays within a small-cache reach.
    assert lock.temporal_score(capacity_lines=4096) > 0.9
