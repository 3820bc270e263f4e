"""Deterministic multi-tenant workload generation behind declarative specs.

``repro.workload`` turns a workload into *data*: a frozen, JSON-round-trip
:class:`ScenarioSpec` (tenants, query/update mixes, arrival models, think
times, client populations, CPUs) that the whole PR 1-8 substrate -- sweep
engine, trace store, checkpoint ledger, worker fabric -- consumes
unchanged, because a scenario's recorded per-CPU traces travel under an
ordinary trace identity (``scn:<spec-hash>``).

Typical use::

    from repro.workload import ScenarioSpec, TenantSpec, run_scenario

    spec = ScenarioSpec(name="mixed", cpus=4, tenants=(
        TenantSpec(name="readers", clients=12, mix={"Q6": 2, "Q3": 1},
                   think_time=500, ops_per_client=2),
        TenantSpec(name="writers", clients=4, mix={"UF1": 1, "UF2": 1},
                   arrival="poisson", mean_gap=2000.0),
    ))
    results = run_scenario(spec)

or, from the CLI, ``repro-experiments --scenario spec.json`` /
``python -m repro.workload validate spec.json``.  The ``mixed-rw``
experiment family (:mod:`repro.experiments.mixed_rw`) sweeps generated
specs over update fraction x client count x CPUs.
"""

from repro.workload.arrival import client_arrivals, client_ops
from repro.workload.scheduler import (
    SessionOp, assign_clients, build_schedule, schedule_digest,
)
from repro.workload.session import (
    clear_scenarios, is_scenario_qid, register_scenario, scenario_qid,
)
from repro.workload.spec import (
    ARRIVAL_MODELS, SPEC_SCHEMA_VERSION, UPDATE_OPS, VALID_OPS,
    ScenarioSpec, SpecError, TenantSpec, load_spec,
)

__all__ = [
    "ARRIVAL_MODELS",
    "SPEC_SCHEMA_VERSION",
    "UPDATE_OPS",
    "VALID_OPS",
    "ScenarioSpec",
    "SessionOp",
    "SpecError",
    "TenantSpec",
    "assign_clients",
    "build_schedule",
    "client_arrivals",
    "client_ops",
    "clear_scenarios",
    "is_scenario_qid",
    "load_spec",
    "register_scenario",
    "run_scenario",
    "scenario_qid",
    "scenario_report",
    "schedule_digest",
]


def run_scenario(spec, scale="small", config=None):
    """Run one scenario through the sweep engine under ``config`` (default:
    the process default :class:`~repro.core.run.RunConfig`); return its
    results dict.

    The spec becomes a single :class:`~repro.core.sweep.SweepPoint`
    (qid ``scn:<hash>``, the spec's machine overrides, one trace per CPU),
    so every execution path -- in-process, ``--jobs N`` workers,
    checkpoint resume -- behaves exactly as it does for query sweeps,
    bit-identically.
    """
    from repro.core.sweep import SweepPoint, run_sweep

    qid = register_scenario(spec)
    point = SweepPoint(key=spec.name, qid=qid, machine=dict(spec.machine),
                       n_procs=spec.cpus)
    out = run_sweep([point], scale=scale, config=config)
    return {
        "name": spec.name,
        "qid": qid,
        "spec": spec.as_dict(),
        "summary": out[spec.name],
    }


def scenario_report(results):
    """Render one :func:`run_scenario` outcome: execution breakdown plus
    the lock-line and coherence behaviour multi-tenant traffic exists to
    measure."""
    from repro.core.report import format_table, percent

    s = results["summary"]
    spec = results["spec"]
    rows = [[
        results["name"],
        f"{spec['cpus']}",
        f"{sum(t['clients'] for t in spec['tenants'])}",
        f"{s['exec_time']}",
        percent(s["breakdown"]["Busy"]),
        percent(s["breakdown"]["MSync"]),
        percent(s["breakdown"]["Mem"]),
    ]]
    table = format_table(
        ["Scenario", "CPUs", "Clients", "Cycles", "Busy", "MSync", "Mem"],
        rows, title=f"Scenario {results['name']} ({results['qid']})",
    )
    l2_total = sum(sum(v) for v in s["l2_grouped"].values()) or 1
    l2_cohe = sum(v[2] for v in s["l2_grouped"].values())
    lock_misses = s["l2_by_class"].get("LockSLock", 0)
    lock_cohe = s.get("l2_cohe_by_class", {}).get("LockSLock", 0)
    return (table
            + f"\nL2 misses: {l2_total}  coherence {100 * l2_cohe / l2_total:.1f}%"
            + f"  lock-line {lock_misses} ({lock_cohe} coherence)")
