"""Figure 9: execution time vs cache line size.

Same sweep as Figure 8, but reporting normalized execution time split into
Busy / MSync / SMem / PMem.  The paper's conclusion: the minimum falls at
64-byte secondary lines -- long lines help shared data (spatial locality)
until the growing private-data misses win.
"""

from repro.core.report import format_table
from repro.core.sweep import run_sweep
from repro.experiments.families import line_size_points, time_projection
from repro.tpcd.scales import get_scale

QUERIES = ["Q3", "Q6", "Q12"]
LINE_SIZES = [16, 32, 64, 128, 256]
BASELINE_LINE = 64
COMPONENTS = ["Busy", "MSync", "SMem", "PMem"]


def run(scale="small", queries=QUERIES, line_sizes=LINE_SIZES, config=None):
    """Return per-query, per-line-size time components (cycles).

    Runs on the sweep driver (recorded traces, optional worker processes); see
    :func:`repro.experiments.fig8.run`.
    """
    sc = get_scale(scale)
    points = line_size_points(queries, line_sizes)
    results = {}
    for (qid, l2_line), s in run_sweep(points, scale=sc,
                                       config=config).items():
        results.setdefault(qid, {})[l2_line] = time_projection(s)
    return results


def best_line_size(results, qid):
    """Line size with the lowest execution time for ``qid``."""
    per_line = results[qid]
    return min(per_line, key=lambda k: per_line[k]["exec_time"])


def report(results):
    """Render normalized execution-time bars per query."""
    parts = []
    for qid, per_line in results.items():
        base = sum(per_line[BASELINE_LINE][c] for c in COMPONENTS) or 1
        rows = []
        for line in sorted(per_line):
            comp = per_line[line]
            rows.append(
                [f"{line}B"]
                + [100.0 * comp[c] / base for c in COMPONENTS]
                + [100.0 * sum(comp[c] for c in COMPONENTS) / base]
            )
        parts.append(format_table(
            ["L2 line"] + COMPONENTS + ["Total"], rows,
            title=f"Figure 9 {qid}: execution time vs line size "
                  f"(64B = 100); best = {best_line_size(results, qid)}B",
        ))
    return "\n\n".join(parts)
