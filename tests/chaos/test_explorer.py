"""Campaign runner tests: determinism, parallel equality, mutations,
checkpoint/resume through the sweep executor's process pool."""

import pytest

from repro.chaos.explorer import (
    CHAOS_SCENARIOS,
    CaseResult,
    CaseSpec,
    run_campaign,
    run_case,
)
from repro.harness.cache import ResultCache
from repro.harness.parallel import SweepExecutor

SCN = "lan-small"
SEEDS = [0, 1, 2]


class TestRunCase:
    def test_deterministic_result(self):
        a = run_case(CaseSpec(scenario=SCN, seed=1))
        b = run_case(CaseSpec(scenario=SCN, seed=1))
        assert a.to_dict() == b.to_dict()

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError):
            run_case(CaseSpec(scenario=SCN, seed=1, mutation="chaos-monkey"))

    def test_pinned_schedule_overrides_generation(self):
        spec = CaseSpec(scenario=SCN, seed=1)
        schedule = spec.resolve_schedule().replace_events([])
        pinned = spec.with_schedule(schedule)
        result = run_case(pinned)
        assert result.schedule.events == ()
        assert result.crashed == ()

    def test_workload_independent_of_schedule(self):
        # Shrinking events away must not change the client workload:
        # delivered counts may differ (crashes), but the multicast set
        # a correct run produces is the full workload either way.
        spec = CaseSpec(scenario=SCN, seed=3)
        bare = run_case(spec.with_schedule(spec.resolve_schedule().replace_events([])))
        scn = CHAOS_SCENARIOS[SCN]
        assert sum(bare.delivered.values()) > 0
        assert bare.events > 0
        assert max(bare.delivered.values()) <= scn.n_messages


class TestRunCampaign:
    def test_report_byte_identical_across_runs(self):
        a = run_campaign(SCN, SEEDS)
        b = run_campaign(SCN, SEEDS)
        assert a.to_json() == b.to_json()

    def test_report_identical_across_jobs(self):
        serial = run_campaign(SCN, SEEDS, jobs=1)
        for jobs in (2, 4):
            parallel = run_campaign(SCN, SEEDS, jobs=jobs)
            assert serial.to_json() == parallel.to_json()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_campaign("atlantis", SEEDS)

    def test_case_result_dict_round_trip(self):
        result = run_case(CaseSpec(scenario=SCN, seed=1))
        import json

        back = CaseResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.to_dict() == result.to_dict()
        assert back.spec == result.spec
        assert back.delivered == result.delivered  # int keys restored

    def test_cached_campaign_resumes_without_reexecution(self, tmp_path):
        serial = run_campaign(SCN, SEEDS)
        with SweepExecutor(jobs=2, cache=ResultCache(tmp_path / "c")) as cold:
            first = run_campaign(SCN, SEEDS, executor=cold)
            assert cold.total_stats["ran"] == len(SEEDS)
        with SweepExecutor(jobs=2, cache=ResultCache(tmp_path / "c")) as warm:
            resumed = run_campaign(SCN, SEEDS, executor=warm)
            assert warm.total_stats == {
                "points": len(SEEDS),
                "hits": len(SEEDS),
                "ran": 0,
            }
        assert first.to_json() == serial.to_json()
        assert resumed.to_json() == serial.to_json()

    def test_killed_campaign_resumes_byte_identical(self, tmp_path):
        """Kill after the first completed case; the resumed campaign
        re-executes only the remainder and reports byte-identically."""
        want = run_campaign(SCN, SEEDS).to_json()

        class Killed(Exception):
            pass

        def killer(done, total, violations):
            if done >= 1:
                raise Killed()

        with SweepExecutor(jobs=2, cache=ResultCache(tmp_path / "c")) as victim:
            with pytest.raises(Killed):
                run_campaign(SCN, SEEDS, executor=victim, progress=killer)

        with SweepExecutor(jobs=2, cache=ResultCache(tmp_path / "c")) as resumed:
            report = run_campaign(SCN, SEEDS, executor=resumed)
            stats = dict(resumed.total_stats)
        assert stats["hits"] >= 1
        assert stats["ran"] == len(SEEDS) - stats["hits"]
        assert report.to_json() == want

    def test_progress_callback_counts_cases_and_violations(self):
        calls = []
        run_campaign(
            SCN,
            SEEDS,
            mutation="no-quorum-wait",
            progress=lambda done, total, v: calls.append((done, total, v)),
        )
        assert [c[0] for c in calls] == [1, 2, 3]
        assert all(c[1] == len(SEEDS) for c in calls)
        # violations accumulate monotonically and end above zero (the
        # mutation campaign is the known-violating workload)
        vio = [c[2] for c in calls]
        assert vio == sorted(vio) and vio[-1] > 0

    def test_clean_campaign_has_no_violations(self):
        report = run_campaign(SCN, SEEDS)
        assert report.failing_cases == []
        summary = report.to_dict()["summary"]
        assert summary["cases"] == len(SEEDS)
        assert summary["violations"] == 0
        assert summary["violating_seeds"] == []

    def test_mutation_campaign_detects_the_bug(self):
        report = run_campaign(SCN, SEEDS, mutation="no-quorum-wait")
        assert report.failing_cases
        props = {
            v.prop for case in report.failing_cases for v in case.violations
        }
        assert props & {"acyclic-order", "timestamp-order", "prefix-order"}
