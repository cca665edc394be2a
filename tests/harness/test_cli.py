"""Tests for the command-line experiment runner."""

import csv

import pytest

from repro.harness.cli import build_parser, main


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "primcast" in out
    assert "worst-case convoy" in out


def test_table2_command(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "WAN - distributed leaders" in out


def test_point_command(capsys):
    assert (
        main(
            [
                "point",
                "--protocol", "primcast",
                "--scenario", "lan",
                "--dests", "2",
                "--outstanding", "1",
                "--warmup", "20",
                "--measure", "40",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "primcast" in out
    assert "LAN" in out


def test_point_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        main(["point", "--protocol", "zab", "--scenario", "lan"])


def test_parser_has_all_commands():
    parser = build_parser()
    subactions = next(
        a for a in parser._actions if hasattr(a, "choices") and a.choices
    )
    assert set(subactions.choices) == {
        "table1", "table2", "figure2", "figure3", "figure4", "figure5", "point",
    }


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_figure_commands_accept_executor_flags():
    parser = build_parser()
    for figure in ("figure2", "figure3", "figure4", "figure5"):
        args = parser.parse_args(
            [figure, "--jobs", "4", "--no-cache", "--cache-dir", "/tmp/x"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/x"


@pytest.mark.parametrize(
    "argv",
    [
        ["figure2", "--jobs", "0"],
        ["figure3", "--jobs", "-1"],
        ["point", "--protocol", "primcast", "--scenario", "lan", "--outstanding", "0"],
        ["point", "--protocol", "primcast", "--scenario", "lan", "--dests", "0"],
    ],
    ids=["figure2-jobs", "figure3-jobs", "point-outstanding", "point-dests"],
)
def test_count_below_one_is_a_usage_error(argv, capsys):
    # Exit 2 with argparse's message, before anything is built or run.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{argv[-2]}: must be at least 1, got {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["figure3", "--dests", "x"], "must be comma-separated integers, got 'x'"),
        (["figure3", "--dests", "2,"], "must be comma-separated integers, got '2,'"),
        (["figure3", "--dests", "0"], "each count must be in [1, 8], got 0"),
        (["figure3", "--dests", "2,9"], "each count must be in [1, 8], got 9"),
        (["figure4", "--dests", "9"], "each count must be in [1, 8], got 9"),
    ],
    ids=["figure3-word", "figure3-empty-entry", "figure3-zero", "figure3-nine", "figure4-nine"],
)
def test_a_bad_dests_list_is_a_usage_error(argv, message, capsys):
    # Each of these used to start the sweep and die on a traceback
    # (exit 1); now it exits 2 before any point runs.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"--dests: {message}" in capsys.readouterr().err


def test_dests_lists_and_defaults_parse():
    parser = build_parser()
    assert parser.parse_args(["figure3", "--dests", "1,8"]).dests == [1, 8]
    assert parser.parse_args(["figure3"]).dests == [1, 2, 4, 8]
    assert parser.parse_args(["figure4"]).dests == [2, 4]


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--measure", "0", "must be a finite number of ms > 0, got 0"),
        ("--measure", "-100", "must be a finite number of ms > 0, got -100"),
        ("--measure", "inf", "must be a finite number of ms > 0, got inf"),
        ("--warmup", "-5", "must be a finite number of ms >= 0, got -5"),
        ("--warmup", "nan", "must be a finite number of ms >= 0, got nan"),
    ],
    ids=["measure-0", "measure-minus-100", "measure-inf", "warmup-minus-5", "warmup-nan"],
)
def test_a_bad_duration_is_a_usage_error(flag, value, message, capsys):
    # Before this check ``--measure 0`` died in a ZeroDivisionError and
    # ``--measure -100`` printed a 0-sample row; both now exit 2 unrun.
    argv = ["point", "--protocol", "primcast", "--scenario", "lan", flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "warmup_ms,measure_ms", [(0.0, 0.0), (50.0, -100.0), (-5.0, 10.0)]
)
def test_run_load_point_rejects_a_bad_window(warmup_ms, measure_ms):
    from repro.harness.runner import run_load_point
    from repro.workload.scenarios import lan_scenario

    with pytest.raises(ValueError, match="_ms must be finite"):
        run_load_point("primcast", lan_scenario(), 1, 1,
                       warmup_ms=warmup_ms, measure_ms=measure_ms)


def test_a_zero_warmup_is_a_valid_point(capsys):
    assert main(["point", "--protocol", "primcast", "--scenario", "lan",
                 "--warmup", "0", "--measure", "5"]) == 0
    assert "primcast" in capsys.readouterr().out


def test_executor_flag_defaults_are_serial_with_cache():
    from repro.harness.cache import DEFAULT_CACHE_DIR

    args = build_parser().parse_args(["figure2"])
    assert args.jobs == 1
    assert args.no_cache is False
    assert args.cache_dir == DEFAULT_CACHE_DIR


def test_report_executor_aggregates_across_sweeps(capsys):
    # figure3/figure4 run one sweep per --dests entry through the same
    # executor; the report must cover all of them, not the final sweep
    from repro.harness.cli import _report_executor
    from repro.harness.parallel import SweepExecutor, expand_sweep
    from repro.workload.scenarios import lan_scenario

    specs = expand_sweep(
        ("primcast",), lan_scenario(2, 3), 2, (1, 2),
        seed=1, warmup_ms=20.0, measure_ms=40.0,
    )
    executor = SweepExecutor()
    executor.run(specs[:1])
    executor.run(specs[1:])
    _report_executor(executor)
    out = capsys.readouterr().out
    assert "[2 points: 0 cached, 2 simulated, jobs=1]" in out


def test_no_cache_builds_cacheless_executor(tmp_path):
    from repro.harness.cli import _executor

    args = build_parser().parse_args(
        ["figure2", "--jobs", "2", "--no-cache", "--cache-dir", str(tmp_path / "c")]
    )
    executor = _executor(args)
    assert executor.jobs == 2
    assert executor.cache is None
    # and with caching on, the executor carries a ResultCache at the dir
    args = build_parser().parse_args(["figure2", "--cache-dir", str(tmp_path / "c")])
    executor = _executor(args)
    assert executor.cache is not None
    assert str(executor.cache.root) == str(tmp_path / "c")


def test_figure5_csv_writes_the_curves(tmp_path, monkeypatch, capsys):
    import repro.harness.cli as cli

    curves = {
        2: {"primcast": [(10.0, 0.5), (20.0, 1.0)]},
        128: {"primcast": [(30.0, 1.0)], "whitebox": [(40.0, 1.0)]},
    }
    monkeypatch.setattr(cli, "figure5", lambda **kwargs: curves)
    out = tmp_path / "out.csv"
    assert main(["figure5", "--no-cache", "--csv", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["series"], float(r["latency_ms"]), float(r["fraction"])) for r in rows] == [
        ("primcast@128", 30.0, 1.0),
        ("primcast@2", 10.0, 0.5),
        ("primcast@2", 20.0, 1.0),
        ("whitebox@128", 40.0, 1.0),
    ]
