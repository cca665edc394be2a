"""CLI for the net backend: ``python -m repro.net <command>``.

* ``node`` — run ONE protocol process (spawned by the launcher; not
  normally invoked by hand).
* ``cluster`` — launch a full localhost cluster and report it.
* ``diff`` — launch a cluster, run the sim reference on the same
  workload, and fail (exit 1) on any delivery disagreement, then on
  any violation of the checks ``open`` runs. This is the CI
  ``net-smoke`` entry point; ``--kill`` adds mid-run crash injection
  (the survivors must elect a new leader and still agree with the
  failure-free reference).
* ``open`` — launch a cluster of K concurrent clients (outstanding
  windows, optional Poisson arrivals) and fail on any
  violation of the statistical safety checks (``repro.verify`` over
  the merged delivery logs) or of truncation safety (the state GC's
  ``truncate-*.jsonl`` logs against those delivery logs).

An invalid cluster spec (``--groups 0``, ``--kill -1``, ``open
--clients 0``, ``--messages 0``, ``open --rate -5``, ...) prints
``error: <reason>`` and exits 2 before any node starts; exit 1 always
means a run or a check FAILED.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from ..election.omega import DEFAULT_SUSPECT_MS
from .host import ClusterSpec, run_node


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--groups", type=int, default=2)
    parser.add_argument("--group-size", type=int, default=3)
    parser.add_argument("--messages", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--kill", type=int, default=None, metavar="PID",
        help="SIGKILL this pid mid-run (not the driver)",
    )
    parser.add_argument(
        "--kill-after", type=int, default=4, metavar="N",
        help="kill once the driver has delivered N messages",
    )
    parser.add_argument("--suspect-ms", type=float, default=DEFAULT_SUSPECT_MS)
    parser.add_argument(
        "--codec", choices=("json", "binary"), default="json",
        help="wire encoding (receivers auto-detect per frame)",
    )
    parser.add_argument(
        "--no-coalesce", action="store_true",
        help="one socket write per frame (PR-9 behaviour)",
    )
    parser.add_argument(
        "--batching-ms", type=float, default=0.0,
        help="rmcast ack/bump batching window, 0 = off (paper §7.1)",
    )
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--rundir", type=str, default=None)


def _spec_from_args(args: argparse.Namespace) -> ClusterSpec:
    spec = ClusterSpec(
        n_groups=args.groups,
        group_size=args.group_size,
        n_messages=args.messages,
        seed=args.seed,
        kill_pid=args.kill,
        kill_after=args.kill_after,
        suspect_ms=args.suspect_ms,
        codec=args.codec,
        coalesce=not args.no_coalesce,
        batching_ms=args.batching_ms,
        run_timeout_s=args.timeout,
    )
    if args.command == "open":
        spec.driver_mode = "open"
        spec.clients, spec.window, spec.rate_hz = args.clients, args.window, args.rate
    return spec


def _rundir_from_args(args: argparse.Namespace) -> Path:
    if args.rundir:
        path = Path(args.rundir)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return Path(tempfile.mkdtemp(prefix="repro-net-"))


def cmd_node(args: argparse.Namespace) -> int:
    topology = ClusterSpec.from_json(json.loads(Path(args.topology).read_text()))
    return run_node(topology, args.pid, Path(args.rundir))


def cmd_launch(spec: ClusterSpec, args: argparse.Namespace) -> int:
    """``cluster``, ``diff`` and ``open``: launch a cluster, then run the
    command's checks over its logs. Only these import the launcher and
    the checks (the sim reference run, ``repro.verify``): a ``node``
    process loads neither."""
    from .cluster import launch_cluster
    from .differential import diff_cluster_result, verify_cluster_logs

    rundir = _rundir_from_args(args)
    result = launch_cluster(spec, rundir)
    nodes = []
    for pid, o in sorted(result.outcomes.items()):
        status = "KILLED" if o.killed else f"exit={o.exit_code}"
        nodes.append(
            f"node {pid}: {status} delivered={len(o.delivered)}"
            + (f" expected={o.summary['expected']}" if o.summary else "")
        )
    if args.command == "cluster":
        for line in nodes:
            print(line)
        print(f"cluster {'OK' if result.ok else 'FAILED'} in {result.wall_s:.1f}s "
              f"(rundir: {rundir})")
        return 0 if result.ok else 1
    if not result.ok:
        print(f"cluster run FAILED (rundir: {rundir})")
        for line in nodes:
            print(f"  {line}")
        return 1
    if args.command == "diff":
        problems = diff_cluster_result(result)
        if problems:
            print(f"differential check FAILED (rundir: {rundir}):")
            for p in problems:
                print(f"  {p}")
            return 1
    # The statistical battery and truncation safety over the run's logs.
    violations = verify_cluster_logs(result)
    if violations:
        print(f"statistical checks FAILED (rundir: {rundir}):")
        for v in violations:
            print(f"  {v.to_dict()}")
        return 1
    if args.command == "diff":
        kill_note = (
            "" if spec.kill_pid is None else f", survived kill of pid {spec.kill_pid}"
        )
        print(
            f"differential check OK: {len(result.survivors)} nodes agree with the sim "
            f"reference on {spec.n_messages} messages{kill_note}, 0 violations "
            f"(codec={spec.codec}, {result.wall_s:.1f}s)"
        )
        return 0
    total = sum(
        o.summary.get("submitted", 0)
        for o in result.outcomes.values()
        if o.summary
    )
    print(
        f"statistical checks OK: 0 violations over {total} messages from "
        f"{spec.clients} clients (codec={spec.codec}, window={spec.window}, "
        f"rate={args.rate or 'closed-loop'}, {result.wall_s:.1f}s)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.net")
    sub = parser.add_subparsers(dest="command", required=True)

    np = sub.add_parser("node", help="run one protocol process (launcher use)")
    np.add_argument("--topology", required=True)
    np.add_argument("--pid", type=int, required=True)
    np.add_argument("--rundir", required=True)

    cp = sub.add_parser("cluster", help="launch a localhost cluster")
    _add_spec_args(cp)
    
    dp = sub.add_parser("diff", help="cluster run + sim differential check")
    _add_spec_args(dp)
    
    op = sub.add_parser(
        "open", help="open-loop concurrent cluster + statistical checks"
    )
    _add_spec_args(op)
    op.add_argument("--clients", type=int, default=4)
    op.add_argument("--window", type=int, default=4)
    op.add_argument(
        "--rate", type=float, default=0.0,
        help="per-client Poisson arrival rate in msgs/sec (0 = closed loop)",
    )
    
    args = parser.parse_args(argv)
    if args.command == "node":
        return cmd_node(args)
    spec = _spec_from_args(args)
    try:
        # A spec may carry no messages (a bench cluster's own driver
        # submits them); a command-line run that checks nothing may not.
        if args.messages < 1:
            raise ValueError(f"--messages must be at least 1, got {args.messages}")
        spec.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return cmd_launch(spec, args)


if __name__ == "__main__":
    sys.exit(main())
