"""Intra-query parallelism: correctness and the expected speedup."""

import pytest

from repro.core.experiment import run_query_workload, workload_database
from repro.core.parallel import (
    ParallelPlanError, combine_partials, partition_plan,
    run_intra_query_workload,
)
from repro.db.plan import SeqScan, walk
from repro.db.tracing import drain
from repro.tpcd.queries import query_instance
from tests.conftest import norm_rows

Q6_SQL = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue, COUNT(*) AS n "
    "FROM lineitem WHERE l_discount > 0.02"
)


def test_partition_plan_sets_partitions(tiny_db):
    plan = tiny_db.plan(Q6_SQL)
    part = partition_plan(plan, 1, 4)
    scans = [n for n in walk(part) if isinstance(n, SeqScan)]
    assert scans[0].partition == (1, 4)
    # The original plan is untouched.
    assert [n for n in walk(plan) if isinstance(n, SeqScan)][0].partition is None


def test_partitions_cover_table_exactly(tiny_db):
    """Union of the partitions equals the full scan; no overlap, no gap."""
    plan = tiny_db.plan("SELECT COUNT(*) AS n FROM lineitem")
    total = tiny_db.run(plan).rows[0][0]
    parts = []
    for k in range(4):
        backend = tiny_db.backend(0)
        rows = drain(tiny_db.execute(partition_plan(plan, k, 4), backend))
        parts.append(rows[0][0])
    assert sum(parts) == total
    assert all(p > 0 for p in parts)


def test_combined_result_matches_serial(tiny_db):
    serial = tiny_db.run(Q6_SQL).rows[0]
    _, combined = run_intra_query_workload(Q6_SQL, scale="tiny", db=tiny_db)
    assert norm_rows([combined]) == norm_rows([serial])


def test_min_max_combination(tiny_db):
    sql = ("SELECT MIN(l_quantity) AS lo, MAX(l_quantity) AS hi, "
           "COUNT(*) AS n FROM lineitem WHERE l_discount > 0.05")
    serial = tiny_db.run(sql).rows[0]
    _, combined = run_intra_query_workload(sql, scale="tiny", db=tiny_db)
    assert combined == serial


def test_empty_partitions_are_skipped(tiny_db):
    # A predicate so selective some partitions may see nothing.
    sql = "SELECT SUM(l_extendedprice) AS s FROM lineitem WHERE l_quantity = 1"
    serial = tiny_db.run(sql).rows[0]
    _, combined = run_intra_query_workload(sql, scale="tiny", db=tiny_db)
    assert norm_rows([combined]) == norm_rows([serial])


def test_rejects_joins_and_groups(tiny_db):
    qi = query_instance("Q3", seed=0)
    with pytest.raises(ParallelPlanError):
        run_intra_query_workload(qi.sql, scale="tiny", db=tiny_db,
                                 hints=qi.hints)
    with pytest.raises(ParallelPlanError):
        run_intra_query_workload(
            "SELECT l_shipmode FROM lineitem GROUP BY l_shipmode",
            scale="tiny", db=tiny_db)


def test_rejects_avg(tiny_db):
    with pytest.raises(ParallelPlanError):
        run_intra_query_workload(
            "SELECT AVG(l_quantity) AS a FROM lineitem",
            scale="tiny", db=tiny_db)


def test_intra_query_speedup_over_single_processor():
    """Splitting one scan over 4 processors beats one processor doing all
    of it -- the scan work parallelizes even though each cache still takes
    its own misses."""
    db = workload_database("tiny")
    serial_plan = db.plan(Q6_SQL)
    from repro.memsim.interleave import Interleaver
    from repro.memsim.numa import NumaMachine
    from repro.tpcd.scales import get_scale

    sc = get_scale("tiny")
    machine = NumaMachine(sc.machine_config(), home_fn=db.shmem.home_fn())
    backend = db.backend(0, arena_size=sc.arena_size)
    single = Interleaver(machine).run([db.execute(serial_plan, backend)])

    parallel, _ = run_intra_query_workload(Q6_SQL, scale="tiny", db=db)
    speedup = single.exec_time / parallel.exec_time
    assert 2.0 < speedup <= 4.5, speedup


def test_sweep_results_independent_of_jobs():
    """One sweep, three worker counts, one answer.  With per-point futures
    there is no chunking: any split of points over workers must reproduce
    the serial summaries bit for bit, including when points outnumber the
    pool and the submission window has to cycle."""
    from repro.core.sweep import SweepPoint, clear_variant_cache, run_sweep

    points = [SweepPoint(key=("Q6", line), qid="Q6",
                         machine={"l1_line": line // 2, "l2_line": line})
              for line in (16, 32, 64, 128)]
    serial = run_sweep(points, scale="tiny", jobs=1)
    for jobs in (2, 3):
        clear_variant_cache()   # force the points through the pool
        assert run_sweep(points, scale="tiny", jobs=jobs) == serial


def test_intra_vs_inter_query_parallelism():
    """Four processors on one query finish one query faster than four
    processors running four copies (which is throughput, not latency)."""
    db = workload_database("tiny")
    inter = run_query_workload("Q6", scale="tiny", db=db)
    intra, _ = run_intra_query_workload(Q6_SQL, scale="tiny", db=db)
    assert intra.exec_time < inter.exec_time
