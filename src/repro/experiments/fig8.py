"""Figure 8: number of misses vs cache line size.

Sweeps the secondary-cache line over 16..256 bytes (primary line fixed at
half), counting misses per data-structure group in both caches, normalized
to the baseline (32-byte L1 / 64-byte L2 lines).
"""

from repro.core.report import format_table
from repro.core.sweep import run_sweep
from repro.experiments.families import grouped_misses, line_size_points
from repro.tpcd.scales import get_scale

QUERIES = ["Q3", "Q6", "Q12"]
LINE_SIZES = [16, 32, 64, 128, 256]
BASELINE_LINE = 64
GROUPS = ["Priv", "Data", "Index", "Metadata"]


def run(scale="small", queries=QUERIES, line_sizes=LINE_SIZES, config=None):
    """Return per-query, per-line-size grouped miss counts for L1 and L2.

    Runs on the sweep driver under ``config`` (default: the process
    default :class:`~repro.core.run.RunConfig`): the workload is recorded
    once per query and replayed against every line size (``config.jobs``
    > 1 fans the points out over ``repro-sweep-worker`` subprocesses).
    """
    sc = get_scale(scale)
    points = line_size_points(queries, line_sizes)
    results = {}
    for (qid, l2_line), s in run_sweep(points, scale=sc,
                                       config=config).items():
        results.setdefault(qid, {})[l2_line] = grouped_misses(s)
    return results


def normalized(results, level):
    """Per query: {line_size: {group: misses normalized to baseline=100}}.

    Normalization follows the paper: the baseline configuration's *total*
    misses are 100, and every bar is scaled by the same factor.
    """
    out = {}
    for qid, per_line in results.items():
        base_total = sum(per_line[BASELINE_LINE][level].values()) or 1
        out[qid] = {
            line: {g: 100.0 * v / base_total for g, v in counts[level].items()}
            for line, counts in per_line.items()
        }
    return out


def report(results):
    """Render the normalized miss counts for both cache levels."""
    parts = []
    for level in ("l1", "l2"):
        norm = normalized(results, level)
        for qid, per_line in norm.items():
            rows = [
                [f"{line}B"] + [per_line[line][g] for g in GROUPS]
                + [sum(per_line[line].values())]
                for line in sorted(per_line)
            ]
            parts.append(format_table(
                ["L2 line"] + GROUPS + ["Total"], rows,
                title=f"Figure 8 {qid} {level.upper()} misses "
                      f"(baseline 64B = 100)",
            ))
    return "\n\n".join(parts)
