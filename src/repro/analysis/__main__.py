"""CLI: ``python -m repro.analysis <command>``.

Commands
--------
check [PATHS...]
    Analyze the given files/trees (default ``src/``) and print findings.
    Exit 0 when clean, 1 when findings remain, 2 on usage error.
    ``--format {text,json}`` picks the report shape; ``--select
    PREFIXES`` keeps only matching rule ids.
effects [PATHS...]
    Print transitive effect summaries (which oracle-state atoms each
    function writes/reads, through calls).  ``--function SUBSTR``
    filters by qualified name; ``--format json`` dumps the raw
    summaries.
graph [PATHS...]
    Print the resolved call graph (``caller -> callee`` edges).
rules
    Print the rule catalogue.
"""

import argparse
import json
import os
import sys

from repro.analysis import effects
from repro.analysis.engine import check, gather_facts, rule_catalogue
from repro.analysis.reporters import json_report, text_report


def _cmd_check(args):
    result = check(args.paths, jobs=args.jobs,
                   select=args.select.split(",") if args.select else None)
    root = os.getcwd()
    if args.format == "json":
        report = json_report(
            result.findings, root=root,
            files_checked=result.files_checked,
            suppressed=result.suppressed,
            rules=[rid for rid, _ in rule_catalogue()])
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text_report(result.findings, root=root,
                          suppressed=result.suppressed))
    return 0 if result.ok else 1


def _cmd_effects(args):
    _files, facts = gather_facts(args.paths, jobs=args.jobs)
    fx = [f["fx"] for f in facts if f.get("fx")]
    summaries, _graph = effects.summarize(fx)
    if args.format == "json":
        out = {
            qual: {
                "writes": {f"{atom}:{op}": sites
                           for (atom, op), sites in s["writes"].items()},
                "reads": sorted(s["reads"]),
            }
            for qual, s in summaries.items()
            if (not args.function or args.function in qual)
            and (s["writes"] or s["reads"])
        }
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(effects.format_summaries(summaries, match=args.function,
                                       root=os.getcwd()))
    return 0


def _cmd_graph(args):
    _files, facts = gather_facts(args.paths, jobs=args.jobs)
    fx = [f["fx"] for f in facts if f.get("fx")]
    graph = effects.build_graph(fx)
    edges = graph.edges(lambda info: [c[0] for c in info.get("calls", [])])
    if args.format == "json":
        print(json.dumps(edges, indent=2, sort_keys=True))
    else:
        for caller in sorted(edges):
            for callee in edges[caller]:
                print(f"{caller} -> {callee}")
    return 0


def _cmd_rules(_args):
    for rule_id, title in rule_catalogue():
        print(f"{rule_id:8s} {title}")
    return 0


def _add_common(parser):
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: auto)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-aware static analysis for the simulator.")
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="analyze a tree for findings")
    _add_common(p_check)
    p_check.add_argument("--select", default=None, metavar="PREFIXES",
                         help="comma-separated rule-id prefixes to keep "
                              "(e.g. KRN,TNT)")
    p_check.set_defaults(func=_cmd_check)

    p_fx = sub.add_parser("effects",
                          help="print transitive effect summaries")
    _add_common(p_fx)
    p_fx.add_argument("--function", default=None, metavar="SUBSTR",
                      help="only qualified names containing SUBSTR")
    p_fx.set_defaults(func=_cmd_effects)

    p_graph = sub.add_parser("graph", help="print the resolved call graph")
    _add_common(p_graph)
    p_graph.set_defaults(func=_cmd_graph)

    p_rules = sub.add_parser("rules", help="print the rule catalogue")
    p_rules.set_defaults(func=_cmd_rules)

    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
