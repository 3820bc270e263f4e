"""Integration tests: the paper's headline observations hold end to end.

Each test runs real 4-processor workloads through the simulator at the tiny
scale and asserts the *shape* the paper reports -- who dominates what, what
moves and what stays flat -- rather than absolute magnitudes.
"""

import pytest

from repro.core import run_query_workload, run_warm_workload
from repro.core.experiment import workload_database
from repro.memsim.cache import MISS_COHERENCE, MISS_COLD
from repro.memsim.events import DataClass
from repro.tpcd.queries import query_instance
from repro.tpcd.scales import get_scale
from tests.conftest import norm_rows

SCALE = "tiny"


@pytest.fixture(scope="module")
def workloads():
    """One baseline run per query, shared by the assertions below."""
    return {qid: run_query_workload(qid, scale=SCALE)
            for qid in ("Q3", "Q6", "Q12")}


def test_simulated_queries_compute_correct_results(workloads):
    """The very same execution that drives the simulator answers the query."""
    db = workload_database(SCALE)
    for qid, w in workloads.items():
        for cpu in range(4):
            qi = query_instance(qid, seed=cpu)
            want = db.run_reference(qi.sql)
            assert norm_rows(w.rows_per_cpu[cpu]) == norm_rows(want)


def test_busy_dominates_and_mem_significant(workloads):
    """Figure 6-(a): Busy ~50-70%, Mem ~20-45%, MSync small."""
    for qid, w in workloads.items():
        b = w.breakdown()
        assert 0.40 <= b["Busy"] <= 0.80, (qid, b)
        assert 0.10 <= b["Mem"] <= 0.55, (qid, b)
        assert b["MSync"] <= 0.25, (qid, b)


def test_msync_visible_only_for_index_query(workloads):
    """Q3 spends visibly more time in metalocks than the Sequential ones."""
    assert workloads["Q3"].breakdown()["MSync"] > \
        3 * workloads["Q6"].breakdown()["MSync"]


def test_index_query_stalls_on_indices_and_metadata(workloads):
    """Figure 6-(b), Q3: nearly all shared stall is Index + Metadata."""
    mb = workloads["Q3"].mem_breakdown()
    assert mb["Index"] + mb["Metadata"] > mb["Data"]
    assert mb["Index"] > 0.2


def test_sequential_queries_stall_on_data(workloads):
    """Figure 6-(b), Q6/Q12: the Data share dominates."""
    for qid in ("Q6", "Q12"):
        mb = workloads[qid].mem_breakdown()
        assert mb["Data"] > 0.6, (qid, mb)
        assert mb["Index"] < 0.1


def test_l1_misses_dominated_by_private_data(workloads):
    """Figure 7 (primary cache): private data has the most misses."""
    for qid, w in workloads.items():
        g = {k: sum(v) for k, v in w.stats.grouped("l1").items()}
        assert g["Priv"] == max(g.values()), (qid, g)


def test_private_l1_misses_are_mostly_conflicts(workloads):
    for qid, w in workloads.items():
        cold, conf, cohe = w.stats.grouped("l1")["Priv"]
        assert conf > cold and conf > cohe, qid


def test_private_data_hits_in_l2(workloads):
    """Private data misses a lot in L1 but rarely in L2 (arena fits)."""
    for qid, w in workloads.items():
        priv_l1 = sum(w.stats.grouped("l1")["Priv"])
        priv_l2 = sum(w.stats.grouped("l2")["Priv"])
        assert priv_l2 < priv_l1 / 5, qid


def test_l2_misses_by_query_type(workloads):
    """Figure 7 (secondary cache): Q3 mixed; Q6/Q12 dominated by Data."""
    g3 = {k: sum(v) for k, v in workloads["Q3"].stats.grouped("l2").items()}
    assert g3["Index"] + g3["Metadata"] > g3["Data"]
    for qid in ("Q6", "Q12"):
        g = {k: sum(v) for k, v in workloads[qid].stats.grouped("l2").items()}
        assert g["Data"] > 0.7 * sum(g.values()), (qid, g)


def test_data_misses_are_cold(workloads):
    """Database data misses come from start-up effects (little reuse)."""
    for qid, w in workloads.items():
        cold, conf, cohe = w.stats.grouped("l2")["Data"]
        assert cold > 0.9 * (cold + conf + cohe), qid


def test_metadata_misses_are_mostly_coherence(workloads):
    """Metadata has a tiny footprint; its misses come from sharing."""
    for qid in ("Q3", "Q12"):
        cold, conf, cohe = workloads[qid].stats.grouped("l2")["Metadata"]
        assert cohe > cold and cohe > conf, qid


def test_lockslock_misses_present_for_index_query(workloads):
    misses = workloads["Q3"].stats.l2_read_misses
    assert sum(misses[DataClass.LOCKSLOCK]) > 0
    assert sum(misses[DataClass.LOCKHASH]) > 0


def test_miss_rates_in_plausible_band(workloads):
    """Section 5.1: L1 a few percent, L2 global well under L1."""
    for qid, w in workloads.items():
        l1 = w.stats.l1_miss_rate()
        l2 = w.stats.l2_miss_rate()
        assert 0.001 < l1 < 0.10, (qid, l1)
        assert l2 < l1 / 2, (qid, l1, l2)


def test_execution_times_same_order_of_magnitude(workloads):
    times = [w.exec_time for w in workloads.values()]
    assert max(times) < 3 * min(times)


# -- spatial locality (Figures 8/9) ---------------------------------------------


@pytest.fixture(scope="module")
def line_sweep():
    sc = get_scale(SCALE)
    out = {}
    for qid in ("Q3", "Q6"):
        per = {}
        for l2_line in (32, 64, 128, 256):
            cfg = sc.machine_config(l1_line=l2_line // 2, l2_line=l2_line)
            per[l2_line] = run_query_workload(qid, scale=sc, machine_config=cfg)
        out[qid] = per
    return out


def test_data_misses_fall_with_line_size(line_sweep):
    """Database data has spatial locality: longer lines, far fewer misses."""
    for qid, per in line_sweep.items():
        data = [sum(per[l].stats.grouped("l2")["Data"]) for l in (32, 64, 128, 256)]
        assert data == sorted(data, reverse=True), (qid, data)
        assert data[0] > 1.5 * data[-1]


def test_index_misses_fall_with_line_size(line_sweep):
    idx = [sum(line_sweep["Q3"][l].stats.grouped("l2")["Index"])
           for l in (32, 64, 128, 256)]
    assert idx[0] > idx[-1]


def test_private_l1_misses_grow_beyond_64(line_sweep):
    """The paper: private misses in the primary cache increase with the
    line size (poor locality of heap data)."""
    for qid, per in line_sweep.items():
        priv = {l: sum(per[l].stats.grouped("l1")["Priv"]) for l in per}
        assert priv[256] > priv[128] > priv[64], (qid, priv)


def test_exec_time_minimum_at_moderate_lines(line_sweep):
    """Figure 9: 64-byte secondary lines perform well -- the extremes lose."""
    for qid, per in line_sweep.items():
        times = {l: per[l].exec_time for l in per}
        best = min(times, key=times.get)
        assert best in (64, 128), (qid, times)
        assert times[best] < times[256]
        assert times[best] < times[32]


# -- temporal locality (Figures 10/11/12) ------------------------------------------


@pytest.fixture(scope="module")
def size_sweep():
    sc = get_scale(SCALE)
    out = {}
    for qid in ("Q3", "Q6"):
        out[qid] = {
            mult: run_query_workload(
                qid, scale=sc,
                machine_config=sc.machine_config(l1_size=sc.l1_size * mult,
                                                 l2_size=sc.l2_size * mult))
            for mult in (1, 16)
        }
    return out


def test_data_misses_flat_with_cache_size(size_sweep):
    """No intra-query temporal locality on database data."""
    for qid, per in size_sweep.items():
        d1 = sum(per[1].stats.grouped("l2")["Data"])
        d16 = sum(per[16].stats.grouped("l2")["Data"])
        assert abs(d1 - d16) <= 0.05 * d1, (qid, d1, d16)


def test_private_misses_collapse_with_cache_size(size_sweep):
    for qid, per in size_sweep.items():
        p1 = sum(per[1].stats.grouped("l1")["Priv"])
        p16 = sum(per[16].stats.grouped("l1")["Priv"])
        assert p16 < p1 / 2, (qid, p1, p16)


def test_index_query_gains_from_larger_caches_in_smem(size_sweep):
    """Q3's indices and metadata have temporal locality."""
    i1 = sum(size_sweep["Q3"][1].stats.grouped("l2")["Index"])
    i16 = sum(size_sweep["Q3"][16].stats.grouped("l2")["Index"])
    assert i16 < i1


def test_larger_caches_speed_up_mostly_pmem(size_sweep):
    for qid, per in size_sweep.items():
        t1, t16 = per[1].time_components(), per[16].time_components()
        assert per[16].exec_time <= per[1].exec_time
        pmem_gain = t1["PMem"] - t16["PMem"]
        smem_gain = t1["SMem"] - t16["SMem"]
        if qid == "Q6":
            assert pmem_gain > smem_gain


# -- inter-query reuse (Figure 12) ----------------------------------------------------


@pytest.fixture(scope="module")
def warm_runs():
    sc = get_scale(SCALE)
    cfg = sc.huge_machine_config()
    setups = [("Q3", None), ("Q3", "Q3"), ("Q3", "Q12"),
              ("Q12", None), ("Q12", "Q12"), ("Q12", "Q3")]
    return {
        (m, w): run_warm_workload(m, w, scale=sc, machine_config=cfg)
        for m, w in setups
    }


def data_l2(run):
    return sum(run.stats.grouped("l2")["Data"])


def index_l2(run):
    return sum(run.stats.grouped("l2")["Index"])


def test_sequential_after_sequential_reuses_whole_table(warm_runs):
    cold = data_l2(warm_runs[("Q12", None)])
    warm = data_l2(warm_runs[("Q12", "Q12")])
    assert warm < 0.2 * cold


def test_sequential_after_index_reuses_little(warm_runs):
    cold = data_l2(warm_runs[("Q12", None)])
    warm = data_l2(warm_runs[("Q12", "Q3")])
    assert warm > 0.7 * cold


def test_index_after_index_reuses_indices(warm_runs):
    cold = index_l2(warm_runs[("Q3", None)])
    warm = index_l2(warm_runs[("Q3", "Q3")])
    assert warm < 0.8 * cold


def test_index_after_sequential_reuses_scanned_data(warm_runs):
    cold = data_l2(warm_runs[("Q3", None)])
    warm = data_l2(warm_runs[("Q3", "Q12")])
    assert warm < 0.8 * cold


def test_coherence_misses_persist_under_warm_caches(warm_runs):
    """A warm cache cannot structurally avoid coherence misses; they remain
    a significant part of the warm run's metadata misses.  (The paper notes
    the residual variation is "random timing effects" -- lock handoff
    interleavings differ between runs -- so only persistence is asserted.)"""
    for measured in ("Q3", "Q12"):
        cold_meta = warm_runs[(measured, None)].stats.grouped("l2")["Metadata"]
        warm_meta = warm_runs[(measured, measured)].stats.grouped("l2")["Metadata"]
        assert warm_meta[MISS_COHERENCE] > 0.2 * cold_meta[MISS_COHERENCE]
        assert warm_meta[MISS_COHERENCE] >= max(warm_meta[MISS_COLD], 1)


# -- prefetching (Figure 13) ------------------------------------------------------------


def test_prefetch_helps_sequential_hurts_index():
    base6 = run_query_workload("Q6", scale=SCALE)
    opt6 = run_query_workload("Q6", scale=SCALE, prefetch=True)
    base3 = run_query_workload("Q3", scale=SCALE)
    opt3 = run_query_workload("Q3", scale=SCALE, prefetch=True)
    assert opt6.exec_time < base6.exec_time
    assert opt6.exec_time > 0.80 * base6.exec_time  # modest, not dramatic
    assert opt3.exec_time > 0.99 * base3.exec_time  # no gain, likely a loss
    assert opt6.stats.prefetches_issued > 0
