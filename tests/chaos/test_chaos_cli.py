"""CLI tests: exit codes, JSON shapes, replay round trip."""

import json

import pytest

from repro.chaos.cli import main

SCN = "lan-small"


class TestRun:
    def test_clean_campaign_exits_zero(self, capsys):
        code = main(["run", "--scenario", SCN, "--seeds", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "violations=0" in out

    def test_json_report_shape(self, capsys):
        code = main(["run", "--scenario", SCN, "--seeds", "2", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["version"] == 4
        assert report["scenario"] == SCN
        assert report["summary"]["cases"] == 2
        assert len(report["cases"]) == 2

    def test_stats_and_progress_go_to_stderr_only(self, capsys):
        code = main(
            ["run", "--scenario", SCN, "--seeds", "2", "--json",
             "--progress-every", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        # stdout is pure report JSON (the campaign-smoke cmp gate);
        # progress and the stats line live on stderr.
        json.loads(captured.out)
        assert "chaos progress: 2/2 cases" in captured.err
        assert "chaos campaign: cases=2 cached=0 simulated=2" in captured.err

    def test_cache_dir_resume_runs_nothing(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["run", "--scenario", SCN, "--seeds", "2", "--json",
                "--cache-dir", str(cache)]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "simulated=2" in first.err
        assert main(args) == 0
        second = capsys.readouterr()
        # Warm resume: every case from cache, byte-identical report.
        assert "cached=2 simulated=0" in second.err
        assert second.out == first.out

    def test_report_identical_with_and_without_pool(self, tmp_path):
        out1 = tmp_path / "serial.json"
        out2 = tmp_path / "pooled.json"
        assert main(["run", "--scenario", SCN, "--seeds", "2",
                     "--out", str(out1)]) == 0
        assert main(["run", "--scenario", SCN, "--seeds", "2", "--jobs", "2",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_file_matches_stdout_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "--scenario", SCN, "--seeds", "2", "--json", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == stdout

    def test_mutation_campaign_exits_one(self, capsys):
        code = main(
            ["run", "--scenario", SCN, "--seeds", "3", "--mutation", "no-quorum-wait"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "violations=0" not in out


class TestShrinkAndReplay:
    def _violating_seed(self):
        from repro.chaos.explorer import CaseSpec, run_case

        for seed in range(6):
            spec = CaseSpec(scenario=SCN, seed=seed, mutation="no-quorum-wait")
            if run_case(spec).violations:
                return seed
        raise AssertionError("mutation not detected within 6 seeds")

    def test_shrink_then_replay_round_trip(self, tmp_path, capsys):
        seed = self._violating_seed()
        repro_file = tmp_path / "repro.json"
        code = main(
            [
                "shrink",
                "--scenario", SCN,
                "--seed", str(seed),
                "--mutation", "no-quorum-wait",
                "--max-runs", "120",
                "--out", str(repro_file),
            ]
        )
        assert code == 0
        # The spec carries its schedule as a JSON object, not a string.
        spec = json.loads(repro_file.read_text(encoding="utf-8"))["spec"]
        assert isinstance(spec["schedule"]["events"], list)
        capsys.readouterr()

        code = main(["replay", str(repro_file), "--json"])
        replay = json.loads(capsys.readouterr().out)
        assert code == 0
        assert replay["reproduced"] is True
        assert replay["violations"] == replay["expect"]

    def test_shrink_clean_case_exits_one(self, capsys):
        code = main(["shrink", "--scenario", SCN, "--seed", "0"])
        assert code == 1
        assert "nothing to shrink" in capsys.readouterr().out

    def test_replay_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["replay", str(tmp_path / "nope.json")])
        assert code == 2

    def test_replay_bad_version_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99}), encoding="utf-8")
        assert main(["replay", str(bad)]) == 2

    def test_replay_version_one_file_exits_two(self, tmp_path, capsys):
        # Version 1 held the schedule as a JSON string beside the spec.
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "version": 1,
            "spec": {"scenario": SCN, "seed": 0, "mutation": "", "allow_over_budget": False,
                     "schedule_json": '{"events":[],"scenario":"lan-small","seed":0}'},
        }), encoding="utf-8")
        assert main(["replay", str(old)]) == 2
        assert "version 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"version": 2},
            {"version": 2, "spec": {"scenario": "nope", "seed": 0}},
            {"version": 2, "spec": {"scenario": SCN, "seed": 0, "bogus": 1}},
            {"version": 2, "spec": {"scenario": SCN}},
            {"version": 2, "spec": {"scenario": SCN, "seed": 0, "mutation": "nope"}},
            {"version": 2, "spec": {"scenario": SCN, "seed": 0, "schedule": {
                "events": [{"kind": "meteor", "trigger": {"kind": "at"}}]}}},
            [1],
            {"version": 2, "spec": {"scenario": SCN, "seed": "0"}},
            {"version": 2, "spec": {"scenario": SCN, "seed": True}},
            {"version": 2, "spec": {"scenario": SCN, "seed": 1, "allow_over_budget": "false"}},
        ],
        ids=["no-spec", "unknown-scenario", "extra-key", "missing-key",
             "unknown-mutation", "bad-schedule", "not-an-object",
             "string-seed", "bool-seed", "string-allow-over-budget"],
    )
    def test_replay_malformed_file_exits_two(self, tmp_path, capsys, payload):
        # Exit 1 means "not reproduced"; a file that cannot describe a
        # case is a usage error.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["replay", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")


class TestUsage:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["explode"]) == 2

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["run", "--scenario", "atlantis"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--seeds", "0", "--mutation", "drop-all"],
            ["run", "--seeds", "-3"],
            ["run", "--seeds", "1", "--jobs", "0"],
            ["shrink", "--seed", "4", "--max-runs", "0"],
        ],
        ids=["no-seeds", "negative-seeds", "no-jobs", "no-runs"],
    )
    def test_count_below_one_exits_two(self, argv, capsys):
        # A campaign of no seeds would pass vacuously (exit 0), and 1
        # means violations found: a count below 1 is a usage error.
        assert main(argv) == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_negative_progress_count_exits_two(self, capsys):
        # It used to run the campaign silently, as if it were 0 (exit 0).
        assert main(["run", "--seeds", "1", "--progress-every", "-3"]) == 2
        assert "--progress-every: must be at least 0, got -3" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
