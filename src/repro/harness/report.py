"""Plain-text rendering of experiment results (the benches' output).

Also the perf-trajectory dashboard::

    python -m repro.harness.report --history

renders ``BENCH_history.jsonl`` (one timestamped measurement row per
``perf --append-history`` run) as a markdown table with per-row deltas —
the same table EXPERIMENTS.md embeds between its BENCH_HISTORY markers
(``--update-experiments`` rewrites it in place).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from .runner import RunResult


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an ASCII table with padded columns."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    sep = "-" * len(line)
    out = [line, sep]
    for row in str_rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def throughput_latency_rows(results: List[RunResult]) -> List[List[str]]:
    """Rows in the shape of the paper's throughput/latency figures."""
    rows = []
    for r in results:
        rows.append(
            [
                r.protocol,
                str(r.n_dest_groups),
                str(r.outstanding),
                f"{r.throughput_kmsgs:.2f}",
                f"{r.latency['p50']:.2f}",
                f"{r.latency['p95']:.2f}",
                f"{r.latency['mean']:.2f}",
                str(int(r.latency["count"])),
            ]
        )
    return rows


THROUGHPUT_HEADERS = [
    "protocol",
    "dests",
    "outstanding",
    "tput (k msg/s)",
    "p50 (ms)",
    "p95 (ms)",
    "mean (ms)",
    "samples",
]


def print_results(title: str, results: List[RunResult]) -> None:
    """Print one figure's curve data."""
    print(f"\n== {title} ==")
    print(format_table(THROUGHPUT_HEADERS, throughput_latency_rows(results)))


def max_throughput_by_protocol(results: List[RunResult]) -> Dict[str, float]:
    """Peak measured throughput (msg/s) per protocol in a sweep."""
    best: Dict[str, float] = {}
    for r in results:
        best[r.protocol] = max(best.get(r.protocol, 0.0), r.throughput)
    return best


# ----------------------------------------------------------------------
# perf trajectory dashboard (BENCH_history.jsonl -> markdown)
# ----------------------------------------------------------------------


def history_markdown(rows: List[Dict[str, Any]]) -> str:
    """Markdown trajectory table over perf-history rows, oldest first.

    Rows come in two shapes, split into separate sections by their
    ``backend`` tag: simulator smoke-point measurements (``perf
    --append-history``; wall seconds and events/sec) and net-backend
    wire-path measurements (``backend: "net"``; msgs/sec over real
    sockets — written by the since-deleted ``perf --net``, superseded
    by ``bench/``, still rendered). The two are not comparable — the Δ
    column of each section tracks its own previous row only.
    """
    sim_rows = [r for r in rows if r.get("backend") != "net"]
    net_rows = [r for r in rows if r.get("backend") == "net"]
    if not net_rows:
        # Pure-sim logs (and the empty log) render exactly as before.
        return _sim_history_table(sim_rows)
    sections: List[str] = []
    if sim_rows:
        sections.append(_sim_history_table(sim_rows))
    header = "**Net backend (wire-path msgs/sec, real sockets)**"
    sections.append(header + "\n\n" + _net_history_table(net_rows))
    return "\n\n".join(sections)


def _sim_history_table(rows: List[Dict[str, Any]]) -> str:
    """The simulator smoke-point trajectory (the original table).

    The Δ column is the events/sec change against the *previous* row,
    so per-PR wins and regressions read directly off the table;
    speedup-vs-seed is cumulative.
    """
    lines = [
        "| When (UTC) | backend | wall (s) | events/s | Δ events/s | speedup vs seed | note |",
        "|---|---|---|---|---|---|---|",
    ]
    prev_eps: Optional[float] = None
    for row in rows:
        eps = float(row.get("events_per_sec", 0.0))
        if prev_eps and prev_eps > 0:
            delta = f"{(eps / prev_eps - 1.0) * 100.0:+.1f}%"
        else:
            delta = "—"
        prev_eps = eps
        lines.append(
            "| {timestamp} | {backend} | {wall_s:.3f} | {eps:,.0f} | {delta} | {speedup:.2f}x | {note} |".format(
                timestamp=row.get("timestamp", "?"),
                backend=row.get("backend", "?"),
                wall_s=row.get("wall_s", 0.0),
                eps=eps,
                delta=delta,
                speedup=row.get("speedup_vs_seed", 0.0),
                note=row.get("note", "") or "—",
            )
        )
    return "\n".join(lines)


def _net_history_table(rows: List[Dict[str, Any]]) -> str:
    """The net-backend trajectory: throughput and latency of the best
    open-loop/binary point plus its headline ratios (speedup over the
    sequential/JSON baseline, JSON/binary frame-size ratio)."""
    lines = [
        "| When (UTC) | point | msgs/s | Δ msgs/s | p50 (ms) | p99 (ms) | vs seq | json/bin bytes | note |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    prev_mps: Optional[float] = None
    for row in rows:
        mps = float(row.get("msgs_per_sec", 0.0))
        if prev_mps and prev_mps > 0:
            delta = f"{(mps / prev_mps - 1.0) * 100.0:+.1f}%"
        else:
            delta = "—"
        prev_mps = mps
        lines.append(
            "| {timestamp} | {point} | {mps:,.0f} | {delta} | {p50:.1f} | {p99:.1f} | {speedup:.2f}x | {ratio:.2f}x | {note} |".format(
                timestamp=row.get("timestamp", "?"),
                point=row.get("point", "?"),
                mps=mps,
                delta=delta,
                p50=row.get("p50_ms", 0.0),
                p99=row.get("p99_ms", 0.0),
                speedup=row.get("speedup_vs_seq", 0.0),
                ratio=row.get("codec_bytes_ratio", 0.0),
                note=row.get("note", "") or "—",
            )
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: render the perf trajectory (``--history``).

    Reads ``BENCH_history.jsonl`` (or ``--path``), prints the markdown
    table; ``--update-experiments`` also rewrites the marker-delimited
    table in EXPERIMENTS.md. Exit 1 when the log is missing/empty.
    """
    import argparse
    from pathlib import Path

    # Lazy import: perf pulls in the whole simulator; plain table
    # formatting must not.
    from .perf import read_history, update_experiments_history

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.report",
        description="render experiment artifacts; --history renders the "
        "BENCH_history.jsonl perf trajectory as markdown",
    )
    parser.add_argument(
        "--history",
        action="store_true",
        help="render the perf-trajectory table from BENCH_history.jsonl",
    )
    parser.add_argument(
        "--path",
        type=Path,
        default=None,
        help="history log to read (default: BENCH_history.jsonl at the "
        "repository root)",
    )
    parser.add_argument(
        "--update-experiments",
        action="store_true",
        help="also rewrite the BENCH_HISTORY table in EXPERIMENTS.md",
    )
    args = parser.parse_args(argv)
    if not args.history:
        parser.error("nothing to do: pass --history")
    rows = read_history(args.path)
    if not rows:
        print("no history rows found (run: python -m repro.harness.perf "
              "--append-history)")
        return 1
    print(history_markdown(rows))
    if args.update_experiments:
        target = update_experiments_history(rows)
        print(f"\nupdated {target.name}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
