"""Perf-trajectory dashboard tests (repro.harness.report --history):
the BENCH_history.jsonl reader, the markdown renderer and the
marker-delimited EXPERIMENTS.md rewrite (--update-experiments)."""

import json

import pytest

from repro.harness.report import (
    EXPERIMENTS_PATH,
    HISTORY_BEGIN,
    HISTORY_END,
    history_markdown,
    main,
    read_history,
    update_experiments_history,
)


def rows():
    return [
        {
            "timestamp": "2026-07-01T00:00:00Z",
            "backend": "pure-python",
            "wall_s": 8.0,
            "events_per_sec": 100000.0,
            "speedup_vs_seed": 1.25,
            "note": "baseline",
        },
        {
            "timestamp": "2026-07-15T00:00:00Z",
            "backend": "pure-python",
            "wall_s": 4.0,
            "events_per_sec": 200000.0,
            "speedup_vs_seed": 2.5,
            "note": "",
        },
        {
            "timestamp": "2026-08-01T00:00:00Z",
            "backend": "pure-python",
            "wall_s": 5.0,
            "events_per_sec": 160000.0,
            "speedup_vs_seed": 2.0,
            "note": "regression",
        },
    ]


def test_history_markdown_renders_per_row_deltas():
    table = history_markdown(rows())
    lines = table.splitlines()
    assert lines[0].startswith("| When (UTC) |")
    assert "Δ events/s" in lines[0]
    # first row has no predecessor; then +100%, then -20%
    assert "| — |" in lines[2]
    assert "+100.0%" in lines[3]
    assert "-20.0%" in lines[4]
    assert "2.50x" in lines[3]
    assert "| regression |" in lines[4]


def test_history_markdown_empty_is_just_the_header():
    assert len(history_markdown([]).splitlines()) == 2


def net_rows():
    return [
        {
            "timestamp": "2026-08-08T00:00:00Z",
            "point": "net-g2x3-m64-w8",
            "backend": "net",
            "msgs_per_sec": 1000.0,
            "p50_ms": 30.0,
            "p99_ms": 50.0,
            "speedup_vs_seq": 3.1,
            "codec_bytes_ratio": 3.9,
            "note": "overhaul",
        },
        {
            "timestamp": "2026-08-09T00:00:00Z",
            "point": "net-g2x3-m64-w8",
            "backend": "net",
            "msgs_per_sec": 1500.0,
            "p50_ms": 25.0,
            "p99_ms": 40.0,
            "speedup_vs_seq": 4.0,
            "codec_bytes_ratio": 4.0,
            "note": "",
        },
    ]


def test_history_markdown_splits_net_rows_into_their_own_section():
    # Sim events/sec and net msgs/sec are not comparable: net-tagged
    # rows must render as a separate trajectory section with their own
    # delta chain, leaving the sim table untouched.
    table = history_markdown(rows() + net_rows())
    assert "Net backend" in table
    sim_part, net_part = table.split("Net backend")
    assert "+100.0%" in sim_part  # sim deltas unchanged by net rows
    assert "msgs/s" in net_part
    assert "3.10x" in net_part
    assert "+50.0%" in net_part  # net delta vs previous *net* row only
    assert "overhaul" in net_part
    # A pure-net log renders only the net section.
    net_only = history_markdown(net_rows())
    assert "events/s" not in net_only
    assert net_only.startswith("**Net backend")


def test_cli_renders_history_log(tmp_path, capsys):
    log = tmp_path / "hist.jsonl"
    log.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows())
    )
    assert main(["--history", "--path", str(log)]) == 0
    out = capsys.readouterr().out
    assert "+100.0%" in out
    assert "baseline" in out


def test_cli_missing_log_exits_one(tmp_path, capsys):
    assert main(["--history", "--path", str(tmp_path / "none.jsonl")]) == 1
    assert "no history rows" in capsys.readouterr().out


def test_cli_requires_history_flag(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_repo_history_log_renders():
    """The real BENCH_history.jsonl must always render (EXPERIMENTS.md
    embeds exactly this table)."""
    real = read_history()
    assert real, "BENCH_history.jsonl missing or empty at the repo root"
    table = history_markdown(real)
    assert table.splitlines()[0].startswith("| When (UTC) |")
    # Every row renders: one table line per sim row and per net row
    # (plus a header pair per section and the net section title).
    sim = [r for r in real if r.get("backend") != "net"]
    net = [r for r in real if r.get("backend") == "net"]
    if not net:
        expected = len(sim) + 2
    else:
        expected = 2 + (len(net) + 2)  # section title + blank + net table
        if sim:
            expected += (len(sim) + 2) + 1  # sim table + joining blank
    assert len(table.splitlines()) == expected


# ----------------------------------------------------------------------
# the EXPERIMENTS.md block (--update-experiments)
# ----------------------------------------------------------------------


def _row(ts, wall, note=""):
    return {
        "timestamp": ts,
        "point": "fig3-wan-colocated-d2-o32",
        "wall_s": wall,
        "walls_s": [wall],
        "events": 660110,
        "events_per_sec": 660110 / wall,
        "speedup_vs_seed": 10.139 / wall,
        "backend": "pure-python",
        "note": note,
    }


def test_history_table_renders_every_row():
    rows = [
        _row("2026-01-01T00:00:00Z", 5.0),
        _row("2026-01-02T00:00:00Z", 4.0, "faster"),
    ]
    table = history_markdown(rows)
    lines = table.splitlines()
    assert lines[0].startswith("| When (UTC) |")
    assert len(lines) == 2 + len(rows)
    assert "2026-01-02T00:00:00Z" in lines[3]
    assert "faster" in lines[3]
    assert "2.03x" in lines[2]  # 10.139 / 5.0 vs seed


def test_update_experiments_history_rewrites_only_the_marked_block(tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(
        "# Title\n\nprose before\n\n"
        f"{HISTORY_BEGIN}\nstale table\n{HISTORY_END}\n\nprose after\n"
    )
    update_experiments_history([_row("2026-01-01T00:00:00Z", 5.0)], path=doc)
    text = doc.read_text()
    assert "stale table" not in text
    assert "2026-01-01T00:00:00Z" in text
    assert text.startswith("# Title\n\nprose before\n")
    assert text.endswith("prose after\n")
    # Idempotent: regenerating replaces, never accumulates.
    update_experiments_history([_row("2026-01-02T00:00:00Z", 4.0)], path=doc)
    text = doc.read_text()
    assert "2026-01-01T00:00:00Z" not in text
    assert "2026-01-02T00:00:00Z" in text


def test_update_experiments_history_refuses_missing_markers(tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text("# Title\n\nno markers here\n")
    with pytest.raises(ValueError):
        update_experiments_history([], path=doc)


def test_repo_experiments_has_the_markers():
    """The real EXPERIMENTS.md must keep the marker pair, or
    --update-experiments starts failing — and what sits between them is
    exactly what the real log renders to."""
    text = EXPERIMENTS_PATH.read_text()
    begin, end = text.index(HISTORY_BEGIN), text.index(HISTORY_END)
    assert begin < end
    embedded = text[begin + len(HISTORY_BEGIN) : end]
    assert embedded.strip("\n") == history_markdown(read_history())
