"""Intra-query parallelism: one query, all processors.

The paper's closing line lists intra-query parallelism as remaining work.
This module implements its simplest and most common form for DSS:
partitioned sequential scans.  A single aggregate query over one table is
split into N plan clones, each scanning a contiguous slice of the table's
pages; the partial aggregates are combined by a coordinator at the end.

Supported plan shape: ``Project(Aggregate(SeqScan))`` with SUM / COUNT /
MIN / MAX aggregates (AVG decomposes into SUM and COUNT, which callers can
do in SQL).  This covers Q6-style scans, the bread and butter of DSS.
"""

import copy

from repro.db.plan import Aggregate, Project, SeqScan, walk
from repro.memsim.interleave import Interleaver
from repro.memsim.numa import NumaMachine
from repro.tpcd.scales import get_scale
from repro.core.experiment import WorkloadResult, workload_database

_COMBINABLE = {"SUM", "COUNT", "MIN", "MAX"}


class ParallelPlanError(ValueError):
    """The plan cannot be decomposed into partitioned partial aggregates."""


def _validate(plan):
    if not isinstance(plan, Project) or not isinstance(plan.child, Aggregate):
        raise ParallelPlanError(
            "intra-query parallelism needs a single-table aggregate query "
            "(Project over Aggregate over SeqScan)"
        )
    agg = plan.child
    if not isinstance(agg.child, SeqScan):
        raise ParallelPlanError("the aggregate's input must be a SeqScan")
    for func, _arg, _name in agg.aggs:
        if func not in _COMBINABLE:
            raise ParallelPlanError(
                f"aggregate {func} cannot be combined across partitions; "
                f"supported: {sorted(_COMBINABLE)}"
            )
    return agg


def partition_plan(plan, k, n):
    """Clone ``plan`` with its SeqScan restricted to partition ``k`` of ``n``."""
    _validate(plan)
    clone = copy.deepcopy(plan)
    for node in walk(clone):
        if isinstance(node, SeqScan):
            node.partition = (k, n)
    return clone


def combine_partials(plan, partial_rows):
    """Combine per-partition aggregate rows into the final result row.

    ``partial_rows`` is a list of single-row results (one per partition),
    each aligned to the Aggregate node's output.  Returns one row aligned
    to the plan's (Project) output.

    Partitions that produced SUM/MIN/MAX over zero rows contribute ``None``
    and are skipped, matching SQL semantics.
    """
    agg = _validate(plan)
    combined = []
    for j, (func, _arg, _name) in enumerate(agg.aggs):
        values = [row[j] for row in partial_rows if row[j] is not None]
        if func == "COUNT":
            combined.append(sum(row[j] for row in partial_rows))
        elif not values:
            combined.append(None)
        elif func == "SUM":
            combined.append(sum(values))
        elif func == "MIN":
            combined.append(min(values))
        else:
            combined.append(max(values))
    # Re-apply the projection over the combined aggregate row.
    from repro.db.expr import compile_expr

    positions = {name: i for i, (_f, _a, name) in enumerate(agg.aggs)}
    return [compile_expr(e, positions)(combined) for e in plan.exprs]


def run_intra_query_workload(sql, scale="small", db=None, n_procs=4,
                             machine_config=None, hints=None):
    """Run one aggregate query partitioned across all processors.

    Returns ``(WorkloadResult, combined_row)``.  Compare against
    ``run_query_workload`` (inter-query parallelism) or a single-processor
    run to measure intra-query speedup.
    """
    scale = get_scale(scale)
    db = db or workload_database(scale)
    plan = db.plan(sql, hints=hints)
    _validate(plan)
    cfg = machine_config or scale.machine_config()
    machine = NumaMachine(cfg, home_fn=db.shmem.home_fn())
    backends = [db.backend(i, arena_size=scale.arena_size)
                for i in range(n_procs)]
    sink = {}

    def partition_stream(i):
        rows = yield from db.execute(partition_plan(plan, i, n_procs),
                                     backends[i])
        sink[i] = rows

    run = Interleaver(machine).run(
        [partition_stream(i) for i in range(n_procs)])
    partials = [sink[i][0] for i in range(n_procs) if sink[i]]
    combined = combine_partials(plan, partials)
    result = WorkloadResult(sql, scale, machine, run, sink)
    return result, combined
