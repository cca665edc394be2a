"""Campaign runner tests: determinism, parallel equality, mutations,
checkpoint/resume through the sweep executor's process pool."""

from dataclasses import replace

import pytest

from repro.chaos.explorer import (
    CHAOS_SCENARIOS,
    CampaignReport,
    CaseResult,
    CaseSpec,
    run_campaign,
    run_case,
)
from repro.chaos.schedule import FaultEvent, FaultSchedule, Trigger
from repro.core.messages import Ack, Multicast
from repro.core.process import PrimCastProcess
from repro.harness.cache import ResultCache
from repro.harness.parallel import SweepExecutor
from repro.harness.runner import PROTOCOLS

SCN = "lan-small"
SEEDS = [0, 1, 2]


class TestRunCase:
    def test_deterministic_result(self):
        a = run_case(CaseSpec(scenario=SCN, seed=1))
        b = run_case(CaseSpec(scenario=SCN, seed=1))
        assert a.to_dict() == b.to_dict()

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="no-quorum-wait"):
            CaseSpec(scenario=SCN, seed=1, mutation="chaos-monkey")

    @pytest.mark.parametrize(
        "fields",
        [{"seed": "1"}, {"seed": True}, {"seed": 1.0},
         {"seed": 1, "allow_over_budget": "false"}, {"seed": 1, "allow_over_budget": 0}],
        ids=["str-seed", "bool-seed", "float-seed", "str-over-budget", "int-over-budget"],
    )
    def test_mistyped_field_rejected(self, fields):
        # A replay file's "false" is truthy: decoded as is, it would
        # generate an over-budget schedule the file never asked for.
        with pytest.raises(TypeError):
            CaseSpec(scenario=SCN, **fields)

    def test_pinned_schedule_overrides_generation(self):
        spec = CaseSpec(scenario=SCN, seed=1)
        schedule = spec.resolve_schedule().replace_events([])
        pinned = replace(spec, schedule=schedule)
        result = run_case(pinned)
        assert result.schedule.events == ()
        assert result.crashed == ()

    def test_workload_independent_of_schedule(self):
        # Shrinking events away must not change the client workload:
        # delivered counts may differ (crashes), but the multicast set
        # a correct run produces is the full workload either way.
        spec = CaseSpec(scenario=SCN, seed=3)
        bare = run_case(replace(spec, schedule=FaultSchedule()))
        scn = CHAOS_SCENARIOS[SCN]
        assert sum(bare.delivered.values()) > 0
        assert bare.events > 0
        assert max(bare.delivered.values()) <= scn.n_messages

    def test_crashed_process_log_is_held_to_uniform_order(self, monkeypatch):
        # pid 1 reports its first two deliveries swapped (m' before m,
        # where its correct group mates order m before m'), then crashes.
        # Uniform prefix order binds it anyway: its log must be judged.
        victim = 1

        class SwapsFirstTwo(PrimCastProcess):
            def _record_delivery(self, multicast, final_ts):
                super()._record_delivery(multicast, final_ts)
                log = self.delivery_log
                if self.pid == victim and len(log) == 2:
                    log[0], log[1] = log[1], log[0]

        monkeypatch.setitem(PROTOCOLS, "primcast", SwapsFirstTwo)
        spec = CaseSpec(scenario=SCN, seed=1)
        crash = FaultEvent(
            kind="crash", trigger=Trigger(kind="at", time_ms=40.0), target=f"pid:{victim}"
        )
        result = run_case(replace(spec, schedule=FaultSchedule((crash,))))
        assert result.crashed == (victim,)
        assert not result.aborted
        props = {v.prop for v in result.violations}
        assert {"acyclic-order", "prefix-order", "timestamp-order"} <= props

    def test_delivery_never_multicast_breaks_integrity(self, monkeypatch):
        # pid 1 logs a made-up mid after its first real delivery. The
        # multicasts are recorded at submission, so integrity sees that
        # nobody a-multicast it.
        victim, forged = 1, Multicast((99, 0), frozenset({0}))

        class Forges(PrimCastProcess):
            def _record_delivery(self, multicast, final_ts):
                super()._record_delivery(multicast, final_ts)
                if self.pid == victim and len(self.delivery_log) == 1:
                    super()._record_delivery(forged, final_ts)

        monkeypatch.setitem(PROTOCOLS, "primcast", Forges)
        result = run_case(CaseSpec(scenario=SCN, seed=1))
        assert not result.aborted
        integrity = [v for v in result.violations if v.prop == "integrity"]
        assert [v.mids for v in integrity] == [(forged.mid,)]

    def test_ack_to_a_non_destination_breaks_genuineness(self, monkeypatch):
        # Every ack also goes to one process outside dest(m) ∪ {origin}.
        send_ack = PrimCastProcess._send_ack

        def leaky(self, multicast, epoch, ts):
            send_ack(self, multicast, epoch, ts)
            dests = self.config.dest_pids(multicast.dest)
            outsiders = [
                pid for pid in self.config.all_pids
                if pid not in dests and pid != multicast.mid[0]
            ]
            if outsiders:
                ack = Ack(multicast, self.gid, epoch, ts, self.pid, None)
                self.r_multicast(ack, outsiders[:1])

        monkeypatch.setattr(PrimCastProcess, "_send_ack", leaky)
        result = run_case(CaseSpec(scenario="fig3-reduced", seed=3))
        assert not result.aborted
        assert "genuineness" in {v.prop for v in result.violations}

    def test_aborted_case_is_still_judged(self, monkeypatch):
        # The first ack also goes to one process outside dest(m) ∪
        # {origin}; a later ack then runs the sender's clock backwards,
        # which its invariant monitor catches mid-run. The abort leads
        # the verdict, and the prefix is still judged for genuineness.
        send_ack = PrimCastProcess._send_ack
        leaked_at = []

        def leaky_then_backwards(self, multicast, epoch, ts):
            send_ack(self, multicast, epoch, ts)
            if leaked_at:
                if self.scheduler.now > leaked_at[0]:  # the leak has left
                    self.clock = -1
                return
            dests = self.config.dest_pids(multicast.dest)
            outsiders = [
                pid for pid in self.config.all_pids
                if pid not in dests and pid != multicast.mid[0]
            ]
            if outsiders:
                ack = Ack(multicast, self.gid, epoch, ts, self.pid, None)
                self.r_multicast(ack, outsiders[:1])
                leaked_at.append(self.scheduler.now)

        monkeypatch.setattr(PrimCastProcess, "_send_ack", leaky_then_backwards)
        result = run_case(CaseSpec(scenario="fig3-reduced", seed=3))
        assert result.aborted
        assert [v.prop for v in result.violations] == ["invariant", "genuineness"]

    def test_drop_all_is_caught_by_validity_alone(self):
        # A protocol that delivers nothing holds every safety property;
        # validity, owed at the horizon of a case that did not abort,
        # is what sees it.
        result = run_case(CaseSpec(scenario="fig3-reduced", seed=0, mutation="drop-all"))
        assert not result.aborted and not any(result.delivered.values())
        assert [v.prop for v in result.violations] == ["validity"]

    def test_drop_global_is_caught_by_validity_alone(self):
        # Local messages still flow, so the run is not empty; only the
        # global ones vanish, and validity is what sees it.
        result = run_case(CaseSpec(scenario="fig3-reduced", seed=0, mutation="drop-global"))
        assert not result.aborted and all(result.delivered.values())
        assert [v.prop for v in result.violations] == ["validity"]

    def test_a_group_without_a_quorum_owes_no_validity(self):
        # Two of group 1's three members crash over budget before the
        # first send: nothing addressed to group 1 is ever decided, and
        # the global messages pending at group 0 hold back its own ones
        # too, so no process delivers anything. The case is not judged
        # for validity.
        spec = CaseSpec(scenario=SCN, seed=1, allow_over_budget=True)
        crashes = [
            FaultEvent(kind="crash", trigger=Trigger(kind="at", time_ms=0.0),
                       target=f"pid:{pid}", over_budget=True)
            for pid in (4, 5)
        ]
        result = run_case(replace(spec, schedule=FaultSchedule(tuple(crashes))))
        assert result.crashed == (4, 5) and not any(result.delivered.values())
        assert result.violations == []

    def test_quorum_lost_case_is_reported_apart(self):
        # Group 1 loses pids 3 and 4 over budget at t = 1 ms: the case
        # delivers nothing anywhere and reports no violation, so only
        # validity_owed (and the summary's seed list) says it was judged
        # for safety alone. A clean case owes validity.
        spec = CaseSpec(scenario=SCN, seed=1, allow_over_budget=True)
        crashes = tuple(
            FaultEvent(kind="crash", trigger=Trigger(kind="at", time_ms=1.0),
                       target=f"pid:{pid}", over_budget=True)
            for pid in (3, 4)
        )
        lost = run_case(replace(spec, schedule=FaultSchedule(crashes)))
        assert not any(lost.delivered.values()) and lost.violations == []
        assert lost.validity_owed is False
        clean = run_case(CaseSpec(scenario=SCN, seed=2))
        assert clean.validity_owed is True
        report = CampaignReport(scenario=SCN, seeds=[1, 2], mutation="", cases=[lost, clean])
        assert report.to_dict()["summary"]["validity_not_owed_seeds"] == [1]

    def test_delay_spike_does_not_stall_a_correct_process(self):
        # Seed 14 has a delay rule with dst=4 and a wildcard src. Were it
        # to shift pid 4's self-messages, a later one would overtake an
        # earlier one, rmcast would drop that as a duplicate, and pid 4
        # would never deliver again.
        result = run_case(CaseSpec(scenario="lan-sustained", seed=14))
        assert result.violations == []
        assert result.crashed and 4 not in result.crashed


class TestRunCampaign:
    def test_report_byte_identical_across_runs(self):
        a = run_campaign(SCN, SEEDS)
        b = run_campaign(SCN, SEEDS)
        assert a.to_json() == b.to_json()

    def test_report_identical_across_jobs(self):
        serial = run_campaign(SCN, SEEDS)
        for jobs in (2, 4):
            with SweepExecutor(jobs=jobs) as executor:
                parallel = run_campaign(SCN, SEEDS, executor=executor)
            assert serial.to_json() == parallel.to_json()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="lan-small"):
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
