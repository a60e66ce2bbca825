"""``python -m repro.analysis`` — the standalone linter CLI.

::

    python -m repro.analysis lint src/            # exit 1 on any error finding
    python -m repro.analysis lint --no-advice src/
    python -m repro.analysis lint --select SPMD-DIV,MUT-BUF src/
    python -m repro.analysis rules                # print the rule catalogue
"""

from __future__ import annotations

import argparse
import sys

from .findings import RULES
from .linter import run_lint

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="SPMD lint for the simulated distributed runtime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="lint Python files or directories")
    lint.add_argument("paths", nargs="+", help="files or directories to lint")
    lint.add_argument("--no-advice", action="store_true",
                      help="hide advisory findings (they never fail the run)")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule codes to report (default: all)")
    lint.add_argument("--fixit", action="store_true",
                      help="print the fix-it hint under each finding")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"], dest="output_format",
                      help="report format (json/sarif for CI consumption)")
    lint.add_argument("--output", default=None,
                      help="write the json/sarif document to this file "
                           "(text report still goes to stdout)")
    lint.add_argument("--strict-noqa", action="store_true",
                      help="advisory finding for every unused suppression")
    lint.add_argument("--verify-trace", default=None, metavar="TRACE",
                      help="cross-check a repro.obsv JSONL event stream "
                           "against the static collective footprints")

    sub.add_parser("rules", help="list every rule with severity and summary")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "rules":
        for rule in RULES.values():
            print(f"{rule.code:13s} [{rule.severity.value}] {rule.summary}")
            print(f"{'':13s} fix: {rule.fixit}")
        return 0
    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    return run_lint(
        args.paths,
        include_advice=not args.no_advice,
        select=select,
        show_fixit=args.fixit,
        output_format=args.output_format,
        output_path=args.output,
        strict_noqa=args.strict_noqa,
        verify_trace=args.verify_trace,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess/tests
    sys.exit(main())
