"""Shrinker self-validation: a seeded protocol mutation must be found,
minimized, and deterministically reproduced (the chaos pipeline's own
end-to-end regression)."""

from dataclasses import replace

import pytest

from repro.chaos.explorer import CaseSpec, run_case
from repro.chaos.schedule import FaultEvent, Trigger
from repro.chaos.shrink import shrink_case

SCN = "lan-small"
#: Seed budget the explorer gets to find the injected bug.
SEED_BUDGET = 6


def find_violating_spec():
    for seed in range(SEED_BUDGET):
        spec = CaseSpec(scenario=SCN, seed=seed, mutation="no-quorum-wait")
        if run_case(spec).violations:
            return spec
    return None


@pytest.fixture(scope="module")
def violating_spec():
    spec = find_violating_spec()
    assert spec is not None, (
        f"no-quorum-wait mutation not detected within {SEED_BUDGET} seeds"
    )
    return spec


@pytest.fixture(scope="module")
def shrunk(violating_spec):
    result = shrink_case(violating_spec, max_runs=120)
    assert result is not None
    return result


class TestMutationSelfCheck:
    def test_bug_found_within_seed_budget(self, violating_spec):
        assert violating_spec is not None

    def test_shrinks_to_tiny_schedule(self, shrunk):
        assert shrunk.minimized_events <= 3
        assert shrunk.minimized_events <= shrunk.original_events
        assert shrunk.runs <= 120

    def test_minimized_schedule_still_violates_same_prop(self, shrunk):
        assert any(v.prop == shrunk.prop for v in shrunk.final.violations)

    def test_replay_reproduces_bit_identically(self, shrunk):
        replayed = run_case(shrunk.minimized)
        assert [v.to_dict() for v in replayed.violations] == [
            v.to_dict() for v in shrunk.final.violations
        ]
        assert replayed.to_dict() == shrunk.final.to_dict()


class TestShrinkMechanics:
    def test_clean_case_returns_none(self):
        assert shrink_case(CaseSpec(scenario=SCN, seed=0), max_runs=10) is None

    def test_irrelevant_events_are_dropped(self, violating_spec):
        # Pad the violating schedule with no-op delay events; the
        # shrinker must strip them back out (the mutation alone
        # triggers the violation).
        schedule = violating_spec.resolve_schedule()
        padding = [
            FaultEvent(
                kind="delay",
                trigger=Trigger(kind="at", time_ms=10.0 * (i + 1)),
                src=-1,
                dst=-1,
                extra_ms=2.0,
                duration_ms=5.0,
            )
            for i in range(3)
        ]
        padded = schedule.replace_events(list(schedule.events) + padding)
        result = shrink_case(replace(violating_spec, schedule=padded), max_runs=120)
        assert result is not None
        assert result.minimized_events <= len(schedule.events)
