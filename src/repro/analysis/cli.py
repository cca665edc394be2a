"""Command-line entry point: ``python -m repro.analysis [paths]``.

Exit codes: 0 — clean, 1 — at least one finding, 2 — usage error *or*
an internal analysis error (a rule crashed; the message names the
offending file and rule so a CI failure is diagnosable from the log
alone). Output is one ``path:line:col: RULE message`` line per finding,
the shape editors and CI annotations both understand, then a summary.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .base import RULES
from .engine import AnalysisError, analyze_paths, iter_python_files


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism static analysis for the PrimCast reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only the given rule id (repeatable)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id].title}")
        return 0

    rules = None
    if args.rule:
        unknown = [r for r in args.rule if r not in RULES]
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = [RULES[r] for r in args.rule]

    paths = [Path(p) for p in args.paths]
    try:
        files = iter_python_files(paths)
        findings = analyze_paths(paths, rules)
    except (FileNotFoundError, SyntaxError, AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding.format())
    noun = "file" if len(files) == 1 else "files"
    print(f"repro.analysis: {len(files)} {noun}, {len(findings)} finding(s)")
    return 1 if findings else 0
