"""CLI: ``python -m repro.analysis <command>``.

Commands
--------
check [PATHS...]
    Analyze the given files/trees (default ``src/``) and print findings.
    Exit 0 when clean, 1 when findings remain, 2 on usage error (a path
    that does not exist is one).  ``--format {text,json}`` picks the
    report shape.
rules
    Print the rule catalogue.
"""

import argparse
import json
import os
import sys

from repro.analysis.engine import check, rule_catalogue
from repro.analysis.reporters import json_report, text_report


def _cmd_check(args):
    try:
        result = check(args.paths)
    except FileNotFoundError as exc:
        print(f"python -m repro.analysis check: error: no such file or "
              f"directory: {exc.args[0]}", file=sys.stderr)
        return 2
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


def _cmd_rules(_args):
    for rule_id, title in rule_catalogue():
        print(f"{rule_id:8s} {title}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-aware static analysis for the simulator.")
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="analyze a tree for findings")
    p_check.add_argument("paths", nargs="*", default=["src"],
                         help="files or directories (default: src)")
    p_check.add_argument("--format", choices=("text", "json"),
                         default="text", help="output format (default: text)")
    p_check.set_defaults(func=_cmd_check)

    p_rules = sub.add_parser("rules", help="print the rule catalogue")
    p_rules.set_defaults(func=_cmd_rules)

    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
