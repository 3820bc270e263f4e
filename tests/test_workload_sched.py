"""Arrival-model determinism and scheduler fairness, property-based.

The canonical schedule is the scenario's single source of truth: every
process (pool worker, fabric worker, fresh interpreter) that holds the
same spec must derive the identical operation list, and the round-robin
session scheduler must spread clients evenly.  Hypothesis generates the
specs; one test crosses a process boundary for real.
"""

import subprocess
import sys
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.workload import ScenarioSpec, TenantSpec, build_schedule
from repro.workload.arrival import client_arrivals, client_ops
from repro.workload.scheduler import assign_clients, schedule_digest

OPS = ["Q1", "Q3", "Q6", "Q12", "UF1", "UF2"]


@st.composite
def tenants(draw, index):
    name = f"t{index}"
    ops_per_client = draw(st.integers(1, 4))
    mix = draw(st.dictionaries(st.sampled_from(OPS), st.integers(1, 5),
                               min_size=1, max_size=4))
    arrival = draw(st.sampled_from(["closed", "poisson", "trace"]))
    options = dict(name=name, clients=draw(st.integers(1, 9)), mix=mix,
                   arrival=arrival, ops_per_client=ops_per_client)
    if arrival == "closed":
        options["think_time"] = draw(st.integers(0, 500))
    elif arrival == "poisson":
        options["mean_gap"] = draw(st.floats(1.0, 1000.0))
    else:
        gaps = draw(st.lists(st.integers(0, 300), min_size=ops_per_client,
                             max_size=ops_per_client))
        arrivals = []
        now = 0
        for g in gaps:
            now += g
            arrivals.append(now)
        options["arrivals"] = tuple(arrivals)
    return TenantSpec(**options)


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 3))
    spec = ScenarioSpec(
        name="prop",
        cpus=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**31)),
        tenants=tuple(draw(tenants(i)) for i in range(n)),
    )
    return spec.validate()


# -- determinism ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_schedule_is_deterministic_and_totally_ordered(spec):
    first = build_schedule(spec)
    assert first == build_schedule(spec)
    keys = [(o.arrival, o.cpu, o.client, o.seq) for o in first]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    ops = sum(t.clients * t.ops_per_client for t in spec.tenants)
    assert len(first) == ops


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_arrivals_nondecreasing_and_ops_from_mix(spec):
    for tenant in spec.tenants:
        allowed = {op for op, _w in tenant.mix}
        for client in range(tenant.clients):
            arrivals = client_arrivals(tenant, spec.seed, client)
            assert len(arrivals) == tenant.ops_per_client
            assert arrivals == sorted(arrivals)
            assert all(a >= 0 for a in arrivals)
            assert arrivals == client_arrivals(tenant, spec.seed, client)
            chosen = client_ops(tenant, spec.seed, client)
            assert len(chosen) == tenant.ops_per_client
            assert set(chosen) <= allowed
            assert chosen == client_ops(tenant, spec.seed, client)


@settings(max_examples=30, deadline=None)
@given(scenarios(), st.integers(0, 2**31))
def test_op_seeds_stable_under_reconstruction_not_reseeding(spec, other_seed):
    rebuilt = ScenarioSpec.from_json(spec.to_json())
    assert schedule_digest(rebuilt) == schedule_digest(spec)
    if other_seed != spec.seed:
        reseeded = ScenarioSpec.from_dict(
            dict(spec.as_dict(), seed=other_seed))
        # Not a hard law for every pair, but a CRC collision over the whole
        # schedule is practically impossible at this size.
        assert schedule_digest(reseeded) != schedule_digest(spec)


_CHILD = """
import json, sys
from repro.workload import ScenarioSpec
from repro.workload.scheduler import schedule_digest
spec = ScenarioSpec.from_json(sys.stdin.read())
print(schedule_digest(spec))
"""


def test_schedule_digest_identical_across_processes():
    spec = ScenarioSpec(
        name="xproc", cpus=3, seed=20260808,
        tenants=(
            TenantSpec(name="readers", clients=7, mix={"Q3": 1, "Q6": 3},
                       think_time=250, ops_per_client=3),
            TenantSpec(name="writers", clients=2, mix={"UF1": 1, "UF2": 1},
                       arrival="poisson", mean_gap=900.0, ops_per_client=2),
            TenantSpec(name="batch", clients=1, mix={"Q12": 1},
                       arrival="trace", arrivals=(0, 100), ops_per_client=2),
        ),
    ).validate()
    here = schedule_digest(spec)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], input=spec.to_json(),
        capture_output=True, text=True, check=True)
    assert int(out.stdout.strip()) == here


# -- fairness ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_round_robin_client_counts_differ_by_at_most_one(spec):
    per_cpu = Counter(cpu for _t, _g, cpu in assign_clients(spec))
    counts = [per_cpu.get(c, 0) for c in range(spec.cpus)]
    assert sum(counts) == spec.total_clients()
    assert max(counts) - min(counts) <= 1


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_fairness_holds_per_tenant_per_cpu(spec):
    per = Counter((t.name, cpu) for t, _g, cpu in assign_clients(spec))
    for tenant in spec.tenants:
        counts = [per.get((tenant.name, c), 0) for c in range(spec.cpus)]
        assert sum(counts) == tenant.clients
        assert max(counts) - min(counts) <= 1


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_every_cpu_in_schedule_is_within_spec(spec):
    for op in build_schedule(spec):
        assert 0 <= op.cpu < spec.cpus
        assert op.is_update == (op.op in ("UF1", "UF2"))
