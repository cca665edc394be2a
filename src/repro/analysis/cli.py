"""Command-line entry point: ``python -m repro.analysis [paths]``.

Exit codes: 0 — clean (or warnings only), 1 — at least one
error-severity finding, 2 — usage error *or* an internal analysis error
(a rule crashed; the message names the offending file and rule so a CI
failure is diagnosable from the log alone). ``--json`` emits a
machine-readable report (consumed by the CI lint job's artifact upload);
``--sarif FILE`` additionally writes a SARIF 2.1.0 log for GitHub code
scanning. The default output is one ``path:line:col: RULE severity:
message`` line per finding, the shape editors and CI annotations both
understand.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .base import RULES
from .config import DEFAULT_CONFIG, AnalysisConfig
from .engine import AnalysisError, analyze_paths, iter_python_files
from .sarif import sarif_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism & protocol-contract static analysis for the "
        "PrimCast reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON report instead of human-readable lines",
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
    parser.add_argument(
        "--no-default-allow",
        action="store_true",
        help="ignore the built-in allowlist (show reviewed exemptions too)",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE ('-' for stdout)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            rule = RULES[rule_id]
            print(f"{rule_id}  [{rule.default_severity}]  {rule.title}")
        return 0

    config: AnalysisConfig = DEFAULT_CONFIG
    if args.no_default_allow:
        config = AnalysisConfig(allow={})

    rules = None
    if args.rule:
        unknown = [r for r in args.rule if r not in RULES]
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = [RULES[r] for r in args.rule]

    paths = [Path(p) for p in args.paths]
    active_ids = sorted(RULES) if rules is None else sorted(r.rule_id for r in rules)

    try:
        files = iter_python_files(paths)
        findings = analyze_paths(paths, config, rules)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    errors = [f for f in findings if f.severity == "error"]
    warnings = [f for f in findings if f.severity != "error"]

    if args.sarif:
        sarif_text = json.dumps(sarif_report(findings, RULES), indent=2)
        if args.sarif == "-":
            print(sarif_text)
        else:
            Path(args.sarif).write_text(sarif_text + "\n", encoding="utf-8")

    if args.json:
        report = {
            "version": 1,
            "files_analyzed": len(files),
            "rules": active_ids,
            "summary": {"errors": len(errors), "warnings": len(warnings)},
            "findings": [f.to_json() for f in findings],
        }
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        for finding in findings:
            print(finding.format())
        noun = "file" if len(files) == 1 else "files"
        print(
            f"repro.analysis: {len(files)} {noun}, "
            f"{len(errors)} error(s), {len(warnings)} warning(s)"
        )
    return 1 if errors else 0
