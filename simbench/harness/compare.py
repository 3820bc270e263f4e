"""``compare A.json B.json``: apply the benchmark's bounds to two runs.

Per (workload, end-to-end metric) prints base, new, the ratio with its
base, and one of

``ok``
    the new median is not worse than the base median by more than the bound;
``regressed``
    it is worse by more than the bound;
``unresolved``
    the spread between a side's own repetitions is wider than the bound,
    so the medians cannot be told apart -- unless every repetition of one
    side beats every repetition of the other, which decides it.

Exact metrics must be identical.  Exit 1 on any ``regressed`` or any
exact-metric difference.
"""

import json
import statistics

from simbench.harness import spec


def spread(values):
    """Full range of a side's repetitions as a share of their median."""
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def classify(base, new, better, bound):
    """Verdict for one metric from two lists of repetition values."""
    sign = 1.0 if better == "lower" else -1.0
    b, n = statistics.median(base), statistics.median(new)
    worse_by = sign * (n - b) / b
    base_s = [sign * v for v in base]
    new_s = [sign * v for v in new]
    separated = max(new_s) < min(base_s) or max(base_s) < min(new_s)
    if max(spread(base), spread(new)) > bound and not separated:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(base_doc, new_doc):
    """Print the table; return the number of failing rows."""
    bad = 0
    for name in spec.WORKLOADS:
        b = base_doc["workloads"].get(name)
        n = new_doc["workloads"].get(name)
        if b is None or n is None:
            continue
        print(f"== {name}")
        for metric, unit, better, bound in spec.END_TO_END:
            bs, ns = b["samples"][metric], n["samples"][metric]
            verdict = classify(bs, ns, better, bound)
            bm, nm = statistics.median(bs), statistics.median(ns)
            print(f"  {metric:<18}{bm:>16.4f} -> {nm:>16.4f} {unit:<5}"
                  f"{nm / bm:>8.3f}x of {bm:.4f}  {verdict}")
            bad += verdict == "regressed"
        for metric, _unit in spec.EXACT:
            same = b["exact"][metric] == n["exact"][metric]
            print(f"  {metric:<18}{b['exact'][metric]:>16} -> "
                  f"{n['exact'][metric]:>16}       "
                  f"{'identical' if same else 'DIFFERENT'}")
            bad += not same
        if b.get("modelled") != n.get("modelled"):
            print("  modelled statistics DIFFERENT")
            bad += 1
    return bad


def main(base_path, new_path):
    with open(base_path, encoding="utf-8") as fh:
        base_doc = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new_doc = json.load(fh)
    return 1 if compare(base_doc, new_doc) else 0
