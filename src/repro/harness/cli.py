"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.harness.cli table1
    python -m repro.harness.cli table2
    python -m repro.harness.cli figure2 [--full] [--seed N]
    python -m repro.harness.cli figure3 [--dests 1,2,4,8] [--jobs 8]
    python -m repro.harness.cli figure4
    python -m repro.harness.cli figure5
    python -m repro.harness.cli point --protocol primcast \\
        --scenario wan-distributed --dests 2 --outstanding 16

Prints the same rows/series the benches under ``benchmarks/`` assert
against; handy for ad-hoc exploration without pytest.

Figure sweeps accept ``--jobs N`` (fan the grid out over N worker
processes — rows are bit-identical at any job count), ``--cache-dir``
and ``--no-cache``: by default the CLI memoizes every load point in a
content-addressed cache under ``.repro-cache/``, keyed on the point spec
and a fingerprint of the simulator sources, so rerunning a figure after
an unrelated edit is instant and any source change re-simulates.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..workload.scenarios import (
    lan_scenario,
    wan_colocated_leaders,
    wan_distributed_leaders,
)
from .analytic import COMPLEXITY_FORMULAS, LATENCY_PROFILES, message_complexity, table1_rows
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .export import write_csv
from .experiments import figure2, figure3, figure4, figure5
from .metrics import percentile
from .parallel import SweepExecutor
from .report import format_table, print_results
from .runner import PROTOCOLS, run_load_point
from .steps import measure_collision_free, measure_primcast_convoy

SCENARIOS = {
    "lan": lan_scenario,
    "wan-colocated": wan_colocated_leaders,
    "wan-distributed": wan_distributed_leaders,
}


def cmd_table1(args: argparse.Namespace) -> None:
    print("== Table 1 (analytic) ==")
    print(
        format_table(
            ["Protocol", "Collision-free", "Failure-free", "Message complexity"],
            table1_rows(),
        )
    )
    print("\n== Table 1 (measured, k=2 groups of n=3) ==")
    rows = []
    for proto in ("fastcast", "whitebox", "primcast"):
        r = measure_collision_free(proto, 2, n_groups=8)
        rows.append(
            [proto, f"{r['max_steps']:.1f}", f"{r['max_leader_steps']:.1f}", r["messages"]]
        )
    print(format_table(["protocol", "steps (all)", "steps (leaders)", "messages"], rows))
    plain = measure_primcast_convoy(hybrid=False)
    hc = measure_primcast_convoy(hybrid=True, epsilon_ms=1.0)
    print(
        f"\nworst-case convoy: primcast {plain['measured_steps']:.2f} steps "
        f"(bound 5), primcast-hc {hc['measured_steps']:.2f} steps "
        f"(bound {hc['analytic_steps']:.2f})"
    )


def cmd_table2(args: argparse.Namespace) -> None:
    from ..workload.scenarios import all_scenarios

    print(
        format_table(
            ["Scenario", "Cross-group RTT", "Intra-group RTT", "Description"],
            [s.table2_row() for s in all_scenarios()],
        )
    )


def _maybe_export(args: argparse.Namespace, results) -> None:
    if getattr(args, "csv", None):
        write_csv(args.csv, results)
        print(f"\nwrote {args.csv}")


def _executor(args: argparse.Namespace) -> SweepExecutor:
    """Build the sweep executor from the --jobs/--no-cache/--cache-dir
    flags. The CLI caches by default (an interactive rerun of the same
    figure should be instant); the library default stays cache-off."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return SweepExecutor(jobs=args.jobs, cache=cache)


def _report_executor(executor: SweepExecutor) -> None:
    # total_stats, not last_stats: figure3/figure4 run one sweep per
    # --dests entry through the same executor, and the report must
    # cover the whole command, not just the final sweep.
    stats = executor.total_stats
    if stats["points"]:
        print(
            f"\n[{stats['points']} points: {stats['hits']} cached, "
            f"{stats['ran']} simulated, jobs={executor.jobs}]"
        )


def cmd_figure2(args: argparse.Namespace) -> None:
    with _executor(args) as executor:
        results = figure2(full=args.full, seed=args.seed, executor=executor)
        print_results("Figure 2: LAN, 2 destinations", results)
        _report_executor(executor)
    _maybe_export(args, results)


def cmd_figure3(args: argparse.Namespace) -> None:
    dests = [int(d) for d in args.dests.split(",")] if args.dests else (1, 2, 4, 8)
    all_results = []
    with _executor(args) as executor:
        for d, results in figure3(
            full=args.full, seed=args.seed, dest_counts=dests, executor=executor
        ).items():
            print_results(f"Figure 3: WAN colocated leaders, {d} destination(s)", results)
            all_results.extend(results)
        _report_executor(executor)
    _maybe_export(args, all_results)


def cmd_figure4(args: argparse.Namespace) -> None:
    dests = [int(d) for d in args.dests.split(",")] if args.dests else (2, 4)
    all_results = []
    with _executor(args) as executor:
        for d, results in figure4(
            full=args.full, seed=args.seed, dest_counts=dests, executor=executor
        ).items():
            print_results(f"Figure 4: WAN distributed leaders, {d} destinations", results)
            all_results.extend(results)
        _report_executor(executor)
    _maybe_export(args, all_results)


def cmd_figure5(args: argparse.Namespace) -> None:
    with _executor(args) as executor:
        curves_by_load = figure5(full=args.full, seed=args.seed, executor=executor)
    for load, curves in curves_by_load.items():
        print(f"\n== Figure 5: CDF summaries, {load} outstanding ==")
        rows = []
        for name, curve in sorted(curves.items()):
            lats = [lat for lat, _ in curve]
            rows.append(
                [
                    name,
                    f"{percentile(lats, 50):.1f}",
                    f"{percentile(lats, 90):.1f}",
                    f"{percentile(lats, 99):.1f}",
                ]
            )
        print(format_table(["series", "p50", "p90", "p99"], rows))


def cmd_point(args: argparse.Namespace) -> None:
    scenario = SCENARIOS[args.scenario]()
    result = run_load_point(
        args.protocol,
        scenario,
        args.dests,
        args.outstanding,
        seed=args.seed,
        warmup_ms=args.warmup,
        measure_ms=args.measure,
        keep_samples=False,
    )
    print_results(
        f"{args.protocol} on {scenario.name}, {args.dests} dest(s), "
        f"{args.outstanding} outstanding",
        [result],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate the PrimCast paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--full", action="store_true", help="paper-scale sweep")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--csv", help="also write the rows to this CSV file")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for the sweep (1 = serial; results are "
            "bit-identical at any job count)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the content-addressed result cache",
        )
        p.add_argument(
            "--cache-dir",
            default=DEFAULT_CACHE_DIR,
            help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
        )

    sub.add_parser("table1").set_defaults(fn=cmd_table1)
    sub.add_parser("table2").set_defaults(fn=cmd_table2)
    p2 = sub.add_parser("figure2")
    common(p2)
    p2.set_defaults(fn=cmd_figure2)
    for name, fn in (("figure3", cmd_figure3), ("figure4", cmd_figure4)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--dests", help="comma-separated destination counts")
        p.set_defaults(fn=fn)
    p5 = sub.add_parser("figure5")
    common(p5)
    p5.set_defaults(fn=cmd_figure5)

    pp = sub.add_parser("point", help="run one load point")
    pp.add_argument("--protocol", choices=PROTOCOLS, required=True)
    pp.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    pp.add_argument("--dests", type=int, default=2)
    pp.add_argument("--outstanding", type=int, default=4)
    pp.add_argument("--warmup", type=float, default=500.0)
    pp.add_argument("--measure", type=float, default=1000.0)
    pp.add_argument("--seed", type=int, default=1)
    pp.set_defaults(fn=cmd_point)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
