"""Pinned goldens: result hashes and simulated work per (workload, seed).

Goldens are written by running each workload under ``kernel="scalar"``,
the oracle, so checking a default-kernel run against them is also a
kernel-equivalence check.  ``golden.json`` lives beside this module.
"""

import json
import os

from simbench.harness.workloads import golden_key

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load(path=PATH):
    """``{workload: {seed (str): {"work_refs", "hashes"}}}``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["entries"]
    except FileNotFoundError:
        return {}


def save(entries, path=PATH):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": "simbench.golden/1", "pinned_kernel": "scalar",
                   "entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def lookup(entries, workload, seed):
    """The golden entry for (workload, seed), or ``None`` when unpinned."""
    return entries.get(workload, {}).get(str(seed))


def mismatches(report, entry):
    """Differences between one child report and its golden entry, as a
    list of lines: result hashes that differ, results missing or unknown,
    and a simulated-reference count that moved."""
    want = entry["hashes"]
    seen = set()
    bad = []
    for key, digest in report["hashes"].items():
        gkey = golden_key(report["workload"], key)
        seen.add(gkey)
        if gkey not in want:
            bad.append(f"{key}: no golden")
        elif want[gkey] != digest:
            bad.append(f"{key}: {digest} != golden {want[gkey]}")
    bad += [f"{key}: missing from results" for key in want if key not in seen]
    if report.get("work_refs") != entry["work_refs"]:
        bad.append(f"work_refs {report.get('work_refs')} != golden "
                   f"{entry['work_refs']}")
    return bad
