"""Figure 10: number of misses vs cache size.

Sweeps both caches together from the baseline to 64x (the paper: 4-KB/128-KB
up to 256-KB/8-MB), counting misses per data-structure group.  Database
data's curve is flat -- no intra-query temporal locality -- while private
data's primary-cache misses collapse and, for the Index query Q3, indices
and metadata show reuse.
"""

from repro.core.report import format_table
from repro.core.sweep import run_sweep
from repro.experiments.families import cache_size_points, grouped_misses
from repro.tpcd.scales import get_scale

QUERIES = ["Q3", "Q6", "Q12"]
MULTIPLIERS = [1, 4, 16, 64]
GROUPS = ["Priv", "Data", "Index", "Metadata"]


def run(scale="small", queries=QUERIES, multipliers=MULTIPLIERS,
        config=None):
    """Return per-query, per-size grouped miss counts for L1 and L2.

    Runs on the sweep driver (recorded traces, optional worker processes); see
    :func:`repro.experiments.fig8.run`.
    """
    sc = get_scale(scale)
    points = cache_size_points(sc, queries, multipliers)
    results = {}
    for (qid, mult), s in run_sweep(points, scale=sc, config=config).items():
        results.setdefault(qid, {})[mult] = grouped_misses(s)
    return results


def report(results):
    """Render normalized miss counts (baseline size = 100) per level."""
    parts = []
    for level in ("l1", "l2"):
        for qid, per_size in results.items():
            base_total = sum(per_size[1][level].values()) or 1
            rows = [
                [f"x{mult}"]
                + [100.0 * per_size[mult][level][g] / base_total for g in GROUPS]
                + [100.0 * sum(per_size[mult][level].values()) / base_total]
                for mult in sorted(per_size)
            ]
            parts.append(format_table(
                ["Cache size"] + GROUPS + ["Total"], rows,
                title=f"Figure 10 {qid} {level.upper()} misses "
                      f"(baseline = 100)",
            ))
    return "\n\n".join(parts)
