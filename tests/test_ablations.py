"""Ablations of the design choices DESIGN.md calls out.

Each ablation disables one modeling ingredient and checks that the effect
the paper attributes to it disappears (or appears), which validates that
the reproduction's conclusions come from the modeled mechanisms and not
from calibration accidents.  The ablations are
:class:`~repro.core.sweep.SweepPoint` variants run through
:func:`~repro.core.sweep.run_sweep`, each at the smallest scale where its
assertion holds.
"""

from repro.core.sweep import SweepPoint, run_sweep
from repro.tpcd.scales import get_scale


def test_ablation_lock_check_per_rescan():
    """Without per-rescan lock checks, Q3's LockSLock traffic vanishes:
    the Index query's metadata misses come from the Lock Management
    Module interaction the paper describes."""
    out = run_sweep([
        SweepPoint(key="base", qid="Q3"),
        SweepPoint(key="ablated", qid="Q3", lock_check_per_rescan=False),
    ], scale="tiny")
    base, abl = out["base"], out["ablated"]
    assert abl["l2_by_class"]["LockSLock"] \
        < 0.3 * max(base["l2_by_class"]["LockSLock"], 1)
    assert abl["breakdown"]["MSync"] < base["breakdown"]["MSync"]


def test_ablation_numa_placement():
    """Homing every shared page on node 0 makes node 0's fills local
    (80 cycles) and everyone else's remote: node 0 finishes first and its
    share of the machine's memory stall shrinks.  Share-vs-share, so
    per-CPU differences in query size cancel out.  (``small``: at
    ``tiny`` the per-CPU query sizes differ by more than the effect.)"""
    out = run_sweep([
        SweepPoint(key="rr", qid="Q3"),
        SweepPoint(key="node0", qid="Q3", placement="node0"),
    ], scale="small")
    rr, node0 = out["rr"], out["node0"]
    finishes = [cpu["finish_time"] for cpu in node0["cpu"]]
    assert finishes[0] == min(finishes)

    def share(summary):
        mems = [cpu["mem"] for cpu in summary["cpu"]]
        return mems[0] / sum(mems)

    assert share(node0) < share(rr)


def test_ablation_write_buffer_depth():
    """The paper's processors 'stall on write buffer overflow': shrinking
    the buffer from 16 entries to 1 must increase memory stall time."""
    out = run_sweep([
        SweepPoint(key="wb16", qid="Q3", machine={"wb_entries": 16}),
        SweepPoint(key="wb1", qid="Q3", machine={"wb_entries": 1}),
    ], scale="tiny")

    def mem_total(summary):
        return sum(cpu["mem"] for cpu in summary["cpu"])

    assert mem_total(out["wb1"]) > mem_total(out["wb16"])


def test_ablation_arena_size():
    """Private-data L1 misses track the palloc-arena working set: with an
    arena smaller than the L1, private churn stays resident and the
    'most primary-cache misses are private conflicts' effect collapses.
    The misses that remain come from hot-object collisions with the
    streaming data, so the collapse is large but not total."""
    sc = get_scale("tiny")
    small_arena, big_arena = sc.l1_size // 2, sc.arena_size
    out = run_sweep([SweepPoint(key=arena, qid="Q6", arena_size=arena)
                     for arena in (small_arena, big_arena)], scale=sc)
    misses = {arena: sum(out[arena]["l1_grouped"]["Priv"])
              for arena in (small_arena, big_arena)}
    assert misses[small_arena] < 0.65 * misses[big_arena]
