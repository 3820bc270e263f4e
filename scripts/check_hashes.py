"""Compare the result hashes of run reports; exit 1 naming every difference.

    python scripts/check_hashes.py REPORT... [--against results/tiny.hashes.json]

Each REPORT is a ``repro-experiments --report-out`` file.  Without
``--against`` every report must match the first one; with it, every
report must match the file, one ``{experiment: result_hash}`` object.  On
success the hashes are printed in that file's format, so
``python scripts/check_hashes.py R.json > results/tiny.hashes.json``
re-pins them after a change that is meant to move results.
"""

import argparse
import json
import sys


def result_hashes(path):
    with open(path) as fh:
        return {e["name"]: e["result_hash"] for e in json.load(fh)["experiments"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("reports", nargs="+", metavar="REPORT")
    ap.add_argument("--against", metavar="FILE", help="pinned {experiment: result_hash} JSON")
    args = ap.parse_args(argv)
    ref_name = args.against or args.reports[0]
    if args.against:
        with open(args.against) as fh:
            ref = json.load(fh)
    else:
        ref = result_hashes(ref_name)
    bad = []
    for path in args.reports:
        got = result_hashes(path)
        for name in sorted(ref.keys() | got.keys()):
            if got.get(name) != ref.get(name):
                bad.append(f"{path}: {name} is {got.get(name, 'missing')}, "
                           f"{ref.get(name, 'missing')} in {ref_name}")
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    print(json.dumps(ref, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
