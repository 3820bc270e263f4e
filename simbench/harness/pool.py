"""``pool``: find the seed pools of ``spec.SEED_POOLS`` again.

Q3's trace rows move by +-20% with its parameters, which would make two
seeds two different amounts of work.  The pool of a scale is the first
``SIZE`` seeds ``S`` whose Q3 instances (query seeds ``10*S .. 10*S+3``;
at ``tiny`` also the first two alone, which the 2-CPU points of
``fanout-tiny`` use) record within ``TOLERANCE`` as many rows as those of ``S = 0``.
"""

import sys

from simbench.harness import runner, spec

SIZE = 8
TOLERANCE = 0.015

#: scale -> how many leading Q3 instances each compared row total covers
CPUS = {"small": (4,), "tiny": (2, 4)}


def find(scale):
    from repro.core import workload_trace_cache

    cache = workload_trace_cache(scale)

    def rows(seed):
        per = [len(cache.get("Q3", 10 * seed + i, 0)) for i in range(4)]
        cache.clear()
        return [sum(per[:n]) for n in CPUS[scale]]

    want = rows(0)
    found = [0]
    seed = 0
    while len(found) < SIZE:
        seed += 1
        if all(abs(got / ref - 1) <= TOLERANCE
               for got, ref in zip(rows(seed), want)):
            found.append(seed)
    return tuple(found)


def main():
    runner.require_program()
    sys.path.insert(0, runner.SRC)
    status = 0
    for scale, pinned in spec.SEED_POOLS.items():
        found = find(scale)
        same = found == pinned
        verdict = "as pinned" if same else f"PINNED {pinned}"
        print(f"{scale}: {found}  {verdict}")
        status |= not same
    return status
