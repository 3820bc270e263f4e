"""The experiment-family registry and its common sweep builders.

:data:`FAMILIES` is the one name -> experiment map: one :class:`Family`
per experiment, naming its module and whether it runs on the sweep
driver (and therefore takes the run's whole config).
:func:`repro.core.run.run_experiments` dispatches through
:func:`run_family`; the ``repro-experiments`` CLI lists, runs and reports
through the same entries.  The sweep bodies of the figure pairs (8/9
line-size, 10/11 cache-size) share the point builders and projections
below.

The figure families keep their native per-query trace identities --
``(qid, seed_base + i)`` per processor -- rather than re-expressing the
paper's figures as :class:`~repro.workload.spec.ScenarioSpec` instances:
a scenario derives operation parameters from its own seed space, so a
literal port would change every figure's simulated results, and the
figures are pinned seed-identical across PRs.  Multi-tenant scenario
workloads enter the same registry as first-class families instead
(``mixed-rw``, :mod:`repro.experiments.mixed_rw`) or ad hoc through
``repro-experiments --scenario spec.json``.
"""

import importlib
from dataclasses import dataclass

from repro.core.sweep import SweepPoint


@dataclass(frozen=True)
class Family:
    """One registry entry: an experiment the runner can dispatch.

    ``module`` is resolved lazily (the registry can be imported without
    paying for every experiment's imports); it must expose
    ``run(scale=..., ...)`` and ``report(results)``.  ``sweep`` families
    run on the sweep driver and receive the run's ``config``.
    """

    name: str
    module: str
    sweep: bool = False

    def resolve(self):
        return importlib.import_module(self.module)


FAMILIES = {
    "table1": Family("table1", "repro.experiments.table1"),
    "fig6": Family("fig6", "repro.experiments.fig6"),
    "fig7": Family("fig7", "repro.experiments.fig7"),
    "fig8": Family("fig8", "repro.experiments.fig8", sweep=True),
    "fig9": Family("fig9", "repro.experiments.fig9", sweep=True),
    "fig10": Family("fig10", "repro.experiments.fig10", sweep=True),
    "fig11": Family("fig11", "repro.experiments.fig11", sweep=True),
    "fig12": Family("fig12", "repro.experiments.fig12"),
    "fig13": Family("fig13", "repro.experiments.fig13"),
    "mixed-rw": Family("mixed-rw", "repro.experiments.mixed_rw",
                       sweep=True),
}


def run_family(name, config):
    """Dispatch one registered family under ``config``; returns results.

    The registry entry decides what the family receives: every family
    gets the scale, sweep-based families also get the whole config (jobs,
    trace store, kernel, checkpoint directory and the rest).
    """
    family = FAMILIES[name]
    if family.sweep:
        return family.resolve().run(scale=config.scale, config=config)
    return family.resolve().run(scale=config.scale)


def family_report(name, results):
    """Render one family's results with its module's ``report``."""
    return FAMILIES[name].resolve().report(results)


# -- shared sweep builders ---------------------------------------------------------
#
# The figure pairs report different projections of identical simulations
# (8/9: misses vs time over line sizes; 10/11: over cache sizes).  The
# point builders and projections live here once; the sweep driver's point
# memo already shares the underlying runs.

def line_size_points(queries, line_sizes):
    """Figure 8/9 sweep: L2 line over ``line_sizes``, L1 at half."""
    return [
        SweepPoint(key=(qid, l2_line), qid=qid,
                   machine={"l1_line": l2_line // 2, "l2_line": l2_line})
        for qid in queries for l2_line in line_sizes
    ]


def cache_size_points(scale, queries, multipliers):
    """Figure 10/11 sweep: both caches scaled together from the baseline."""
    return [
        SweepPoint(key=(qid, mult), qid=qid,
                   machine={"l1_size": scale.l1_size * mult,
                            "l2_size": scale.l2_size * mult})
        for qid in queries for mult in multipliers
    ]


def grouped_misses(summary):
    """The miss-figure projection of one point summary (figures 8/10)."""
    return {
        "l1": {g: sum(v) for g, v in summary["l1_grouped"].items()},
        "l2": {g: sum(v) for g, v in summary["l2_grouped"].items()},
        "exec_time": summary["exec_time"],
    }


def time_projection(summary):
    """The time-figure projection of one point summary (figures 9/11)."""
    comp = dict(summary["components"])
    comp["exec_time"] = summary["exec_time"]
    return comp


def baseline_workloads(queries, scale, db=None):
    """One baseline-machine :class:`WorkloadResult` per query (figures
    6/7 read different statistics of the same runs)."""
    from repro.core.experiment import run_query_workload

    return {qid: run_query_workload(qid, scale=scale, db=db)
            for qid in queries}
