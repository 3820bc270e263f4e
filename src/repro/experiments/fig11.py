"""Figure 11: execution time vs cache size.

Same sweep as Figure 10 with the Busy / MSync / SMem / PMem split.  Most of
the speedup from larger caches comes from private data (PMem); Q3 also
gains in SMem from index and metadata temporal locality.
"""

from repro.core.report import format_table
from repro.core.sweep import run_sweep
from repro.experiments.families import cache_size_points, time_projection
from repro.tpcd.scales import get_scale

QUERIES = ["Q3", "Q6", "Q12"]
MULTIPLIERS = [1, 4, 16, 64]
COMPONENTS = ["Busy", "MSync", "SMem", "PMem"]


def run(scale="small", queries=QUERIES, multipliers=MULTIPLIERS,
        config=None):
    """Return per-query, per-size time components (cycles).

    Runs on the sweep driver (recorded traces, optional worker processes); see
    :func:`repro.experiments.fig8.run`.
    """
    sc = get_scale(scale)
    points = cache_size_points(sc, queries, multipliers)
    results = {}
    for (qid, mult), s in run_sweep(points, scale=sc, config=config).items():
        results.setdefault(qid, {})[mult] = time_projection(s)
    return results


def report(results):
    """Render normalized execution-time bars per query."""
    parts = []
    for qid, per_size in results.items():
        base = sum(per_size[1][c] for c in COMPONENTS) or 1
        rows = [
            [f"x{mult}"]
            + [100.0 * per_size[mult][c] / base for c in COMPONENTS]
            + [100.0 * sum(per_size[mult][c] for c in COMPONENTS) / base]
            for mult in sorted(per_size)
        ]
        parts.append(format_table(
            ["Cache size"] + COMPONENTS + ["Total"], rows,
            title=f"Figure 11 {qid}: execution time vs cache size "
                  f"(baseline = 100)",
        ))
    return "\n\n".join(parts)
