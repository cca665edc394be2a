"""Command-line entry point: ``python -m repro.chaos <command>``.

Three subcommands, mirroring the ``repro.analysis`` CLI conventions
(exit 0 — clean, 1 — violations found / not reproduced, 2 — usage
error; ``--json`` swaps the human-readable summary for a
machine-readable report):

``run``
    Run a seeded campaign: ``python -m repro.chaos run --seeds 8
    --scenario fig3-reduced``. Exit 0 iff no case violated a property.
    The CI ``chaos-smoke`` job gates on exactly this invocation.

``replay``
    Re-run a reproducer file written by ``shrink`` (or a hand-edited
    schedule). When the file carries expected violations, exit 0 iff
    the replay reproduces them exactly; otherwise exit 0 iff the
    replay is clean.

``shrink``
    Minimize the schedule of one violating case and write a replay
    file. Exit 0 on a successful shrink, 1 when the case does not
    violate (nothing to shrink).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from ..harness.parallel import SweepExecutor
from .explorer import (
    CHAOS_SCENARIOS,
    MUTATIONS,
    CaseSpec,
    ProgressFn,
    run_campaign,
    run_case,
)
from .shrink import shrink_case

#: Replay file format version (bumped on incompatible changes).
REPLAY_VERSION = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic fault-schedule exploration for the "
        "PrimCast reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a seeded chaos campaign")
    run_p.add_argument(
        "--scenario",
        default="fig3-reduced",
        choices=sorted(CHAOS_SCENARIOS),
        help="chaos scenario (default: fig3-reduced)",
    )
    run_p.add_argument(
        "--seeds",
        type=int,
        default=8,
        metavar="N",
        help="number of seeds to explore (default: 8)",
    )
    run_p.add_argument(
        "--seed-base",
        type=int,
        default=0,
        metavar="S",
        help="first seed; the campaign runs seeds S..S+N-1 (default: 0)",
    )
    run_p.add_argument(
        "--mutation",
        default="",
        choices=list(MUTATIONS),
        help="protocol mutation to inject (shrinker self-validation)",
    )
    run_p.add_argument(
        "--allow-over-budget",
        action="store_true",
        help="let schedules crash beyond the per-group quorum budget",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="J",
        help="worker processes (default: 1; report is identical either way)",
    )
    run_p.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result cache: completed cases checkpoint "
        "here as they finish, so a killed campaign re-run with the same "
        "cache resumes with zero re-executions (default: no cache)",
    )
    run_p.add_argument(
        "--progress-every",
        type=int,
        default=0,
        metavar="N",
        help="print campaign progress to stderr every N completed cases "
        "(default: 0 = only the final stats line)",
    )
    run_p.add_argument(
        "--json", action="store_true", help="emit the full JSON campaign report"
    )
    run_p.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the JSON campaign report to FILE",
    )

    replay_p = sub.add_parser("replay", help="re-run a reproducer file")
    replay_p.add_argument("file", type=Path, help="replay file (from shrink)")
    replay_p.add_argument(
        "--json", action="store_true", help="emit a JSON replay report"
    )

    shrink_p = sub.add_parser("shrink", help="minimize one violating case")
    shrink_p.add_argument(
        "--scenario",
        default="fig3-reduced",
        choices=sorted(CHAOS_SCENARIOS),
        help="chaos scenario (default: fig3-reduced)",
    )
    shrink_p.add_argument("--seed", type=int, required=True, help="case seed")
    shrink_p.add_argument(
        "--mutation",
        default="",
        choices=list(MUTATIONS),
        help="protocol mutation to inject (shrinker self-validation)",
    )
    shrink_p.add_argument(
        "--allow-over-budget",
        action="store_true",
        help="let the schedule crash beyond the per-group quorum budget",
    )
    shrink_p.add_argument(
        "--max-runs",
        type=int,
        default=200,
        metavar="N",
        help="simulation-run budget for the search (default: 200)",
    )
    shrink_p.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the replay file here (default: stdout only)",
    )
    shrink_p.add_argument(
        "--json", action="store_true", help="emit a JSON shrink report"
    )
    return parser


def _dump(data: Dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _cmd_run(args: argparse.Namespace) -> int:
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))

    # Progress and executor stats go to stderr only: stdout (--json) and
    # --out carry the canonical report, which must stay byte-identical
    # across jobs/cache settings (the CI campaign-smoke job cmp's them).
    progress: Optional[ProgressFn] = None
    if args.progress_every > 0:
        every = args.progress_every

        def _emit_progress(done: int, total: int, violations: int) -> None:
            if done % every == 0 or done == total:
                print(
                    f"chaos progress: {done}/{total} cases, "
                    f"{violations} violations",
                    file=sys.stderr,
                )

        progress = _emit_progress

    cache = None
    if args.cache_dir is not None:
        from ..harness.cache import ResultCache

        cache = ResultCache(root=args.cache_dir)
    executor = SweepExecutor(jobs=args.jobs, cache=cache)
    try:
        report = run_campaign(
            args.scenario,
            seeds,
            mutation=args.mutation,
            allow_over_budget=args.allow_over_budget,
            executor=executor,
            progress=progress,
        )
    finally:
        executor.close()
    stats = executor.total_stats
    print(
        f"chaos campaign: cases={stats['points']} cached={stats['hits']} "
        f"simulated={stats['ran']} jobs={args.jobs}",
        file=sys.stderr,
    )
    text = report.to_json()
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    if args.json:
        sys.stdout.write(text)
    else:
        summary = report.to_dict()["summary"]
        print(
            f"chaos run: scenario={args.scenario} cases={summary['cases']} "
            f"crashes={summary['crashes_applied']} "
            f"violations={summary['violations']}"
        )
        for case in report.failing_cases:
            for violation in case.violations:
                print(f"  seed {case.spec.seed}: [{violation.prop}] {violation.message}")
    return 1 if report.failing_cases else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(args.file.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read replay file: {exc}", file=sys.stderr)
        return 2
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != REPLAY_VERSION:
        print(f"error: unsupported replay file version {version!r}", file=sys.stderr)
        return 2
    try:
        spec = CaseSpec(**payload["spec"])
        if spec.scenario not in CHAOS_SCENARIOS:
            raise ValueError(f"unknown scenario {spec.scenario!r}")
        if spec.mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {spec.mutation!r}")
        spec.resolve_schedule()
    except (KeyError, TypeError, ValueError) as exc:
        # A missing "spec" or schedule key, an extra or missing spec
        # field, or a schedule_json that does not parse: a usage error,
        # not a replay that failed to reproduce.
        print(f"error: bad replay file: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    expect = payload.get("expect")
    result = run_case(spec)
    got = [v.to_dict() for v in result.violations]
    if expect is not None:
        reproduced = got == expect
        code = 0 if reproduced else 1
    else:
        reproduced = not got
        code = 0 if not got else 1
    if args.json:
        sys.stdout.write(
            _dump(
                {
                    "spec": spec.canonical(),
                    "expect": expect,
                    "violations": got,
                    "reproduced": reproduced,
                }
            )
        )
    else:
        verdict = "reproduced" if reproduced else "NOT reproduced"
        print(
            f"chaos replay: seed={spec.seed} violations={len(got)} ({verdict})"
        )
        for violation in result.violations:
            print(f"  [{violation.prop}] {violation.message}")
    return code


def _cmd_shrink(args: argparse.Namespace) -> int:
    spec = CaseSpec(
        scenario=args.scenario,
        seed=args.seed,
        mutation=args.mutation,
        allow_over_budget=args.allow_over_budget,
    )
    result = shrink_case(spec, max_runs=args.max_runs)
    if result is None:
        print(
            f"chaos shrink: seed {args.seed} does not violate — nothing to shrink"
        )
        return 1
    replay_file = {
        "version": REPLAY_VERSION,
        "spec": result.minimized.canonical(),
        "expect": [v.to_dict() for v in result.final.violations],
    }
    if args.out is not None:
        args.out.write_text(_dump(replay_file), encoding="utf-8")
    if args.json:
        sys.stdout.write(_dump(result.to_dict()))
    else:
        print(
            f"chaos shrink: [{result.prop}] {result.original_events} -> "
            f"{result.minimized_events} events in {result.runs} runs"
        )
        if args.out is not None:
            print(f"  replay file: {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize --help's 0.
        return int(exc.code or 0)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "replay":
        return _cmd_replay(args)
    return _cmd_shrink(args)
