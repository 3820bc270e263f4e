"""``pin``: write the goldens of a seed by running the scalar oracle."""

import sys

from simbench.harness import golden, runner, spec
from simbench.harness.workloads import golden_key


def _entry(report):
    workload = report["workload"]
    hashes = {}
    for key, digest in report["hashes"].items():
        gkey = golden_key(workload, key)
        if hashes.setdefault(gkey, digest) != digest:
            raise runner.HarnessError(
                f"{workload}: the oracle itself disagrees on {gkey}")
    return {"work_refs": report["work_refs"], "hashes": hashes}


def main(args):
    runner.require_program()
    entries = golden.load()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    seeds = args.seed or sorted({s for n in names for s in spec.pool(n)})
    for seed in seeds:
        for name in names:
            if seed not in spec.pool(name):
                if args.seed:
                    print(f"{name}: seed {seed} is not in its pool "
                          f"{spec.pool(name)}; skipped")
                continue
            old = golden.lookup(entries, name, seed)
            if old is not None and not args.force:
                raise runner.HarnessError(
                    f"{name} seed {seed} is already pinned; pass --force to "
                    "overwrite it")
            with runner.Scratch() as scratch:
                _secs, _entries, store = runner.set_up(name, seed, scratch)
                report = runner.child("rep", name, seed, scratch, store=store,
                                      kernel="scalar")
            if report["failed"] or report["band_violations"]:
                for line in report["failures"] + report["band_violations"]:
                    print(f"  ! {line}", file=sys.stderr)
                raise runner.HarnessError(
                    f"{name} seed {seed}: the oracle run is not clean; "
                    "nothing pinned")
            new = _entry(report)
            if old is not None:
                for key in sorted(set(old["hashes"]) | set(new["hashes"])):
                    a, b = old["hashes"].get(key), new["hashes"].get(key)
                    if a != b:
                        print(f"  {name}/{seed} {key}: {a} -> {b}")
                if old["work_refs"] != new["work_refs"]:
                    print(f"  {name}/{seed} work_refs: {old['work_refs']} -> "
                          f"{new['work_refs']}")
            entries.setdefault(name, {})[str(seed)] = new
            golden.save(entries)
            print(f"pinned {name} seed {seed}: {len(new['hashes'])} hashes, "
                  f"{new['work_refs']} refs, {report['wall_s']:.1f}s "
                  f"under {report['kernel']}")
    return 0
