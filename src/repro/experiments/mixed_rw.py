"""The ``mixed-rw`` family: multi-tenant read/write scenario sweep.

The paper measures read-only TPC-D queries and observes (section 5.1) that
the lock spinlock line is the one structure whose misses are dominated by
coherence -- and predicts that update traffic would make that behaviour
matter.  This family tests the prediction with the generator behind
:mod:`repro.workload`: a grid of scenarios over update fraction x client
count x simulated CPUs, where a closed multi-tenant population mixes the
three paper queries with the TPC-D update functions (UF1/UF2) and a small
Poisson-arrival tenant adds read probes.  Reported per point: execution
time, total L2 misses, the coherence share, and the lock-line (LockSLock)
coherence misses.

Every scenario is recorded once on a fresh private database (update
traffic serializes -- see :mod:`repro.workload.session`) and replayed
through the coherence model, so results are bit-identical across ``jobs``
settings and sweep backends.
"""

from repro.core.report import format_table, percent
from repro.core.sweep import SweepPoint, run_sweep
from repro.tpcd.scales import get_scale
from repro.workload import (
    ScenarioSpec, TenantSpec, register_scenario, scenario_qid,
)

UPDATE_FRACS = [0.0, 0.5]
CLIENT_COUNTS = [4, 8]
CPU_COUNTS = [2, 4]

#: Read side of the mixed tenant's mix: the paper's Index / Sequential
#: representatives, weighted toward the index query (most lock traffic).
READ_MIX = (("Q3", 2), ("Q6", 1), ("Q12", 1))
UPDATE_MIX = (("UF1", 1), ("UF2", 1))


def make_mixed_rw_spec(update_frac, clients, cpus, seed=7):
    """The grid point's :class:`ScenarioSpec`.

    ``update_frac`` splits the mixed tenant's operation weight between the
    read mix and UF1/UF2 (0.0 = read-only, 1.0 = update-only); zero-weight
    entries are dropped so the spec validates at the extremes.  A second,
    two-client Poisson tenant issues Q6 probes so every point also carries
    open-arrival read traffic.
    """
    read_w = int(round((1.0 - update_frac) * 100))
    update_w = int(round(update_frac * 100))
    mix = [(op, w * read_w) for op, w in READ_MIX if read_w]
    mix += [(op, w * update_w) for op, w in UPDATE_MIX if update_w]
    tenants = (
        TenantSpec(name="mixed", clients=clients, mix=tuple(mix),
                   arrival="closed", think_time=200, ops_per_client=2),
        TenantSpec(name="probe", clients=2, mix=(("Q6", 1),),
                   arrival="poisson", mean_gap=400.0, ops_per_client=1),
    )
    return ScenarioSpec(
        name=f"mixed-rw-f{int(round(100 * update_frac))}-c{clients}-p{cpus}",
        tenants=tenants, cpus=cpus, seed=seed,
    )


def _point_result(summary):
    l2 = summary["l2_grouped"]
    total = sum(sum(v) for v in l2.values())
    cohe = sum(v[2] for v in l2.values())
    return {
        "exec_time": summary["exec_time"],
        "l2_misses": total,
        "l2_coherence": cohe,
        "lock_line_cohe": summary["l2_cohe_by_class"]["LockSLock"],
        "metadata_misses": sum(l2["Metadata"]),
    }


def run(scale="small", update_fracs=UPDATE_FRACS,
        client_counts=CLIENT_COUNTS, cpu_counts=CPU_COUNTS, config=None):
    """Sweep the scenario grid; returns ``{(frac, clients, cpus): ...}``.

    Runs on the sweep driver under ``config`` like the figure sweeps:
    scenarios are registered here, recorded in the parent on first use,
    and spooled to the sweep workers by store key.
    """
    sc = get_scale(scale)
    points = []
    for frac in update_fracs:
        for clients in client_counts:
            for cpus in cpu_counts:
                spec = make_mixed_rw_spec(frac, clients, cpus)
                register_scenario(spec)
                points.append(SweepPoint(
                    key=(frac, clients, cpus), qid=scenario_qid(spec),
                    machine=dict(spec.machine), n_procs=cpus,
                ))
    return {key: _point_result(s)
            for key, s in run_sweep(points, scale=sc, config=config).items()}


def report(results):
    """Render the grid with lock-line and coherence columns."""
    rows = []
    for (frac, clients, cpus) in sorted(results):
        r = results[(frac, clients, cpus)]
        share = r["l2_coherence"] / r["l2_misses"] if r["l2_misses"] else 0.0
        rows.append([
            f"{frac:.2f}", clients, cpus, r["exec_time"], r["l2_misses"],
            percent(share), r["lock_line_cohe"], r["metadata_misses"],
        ])
    return format_table(
        ["UpdFrac", "Clients", "CPUs", "ExecTime", "L2 miss", "Cohe%",
         "LockLine cohe", "Meta miss"],
        rows,
        title="mixed-rw: update fraction x clients x CPUs "
              "(L2 coherence and lock-line behaviour)",
    )
