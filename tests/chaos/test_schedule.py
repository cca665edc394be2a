"""Unit tests for fault schedules: generation, canonical JSON, budgets."""

import json

import pytest

from repro.chaos.schedule import (
    FaultEvent,
    FaultSchedule,
    ScheduleShape,
    Trigger,
    generate_schedule,
)
from repro.sim.failures import max_failures

SHAPE = ScheduleShape(n_groups=3, group_size=3, horizon_ms=5000.0)


def crash_group(event, shape):
    kind, _, arg = event.target.partition(":")
    if kind == "leader":
        return int(arg)
    return int(arg) // shape.group_size


class TestTrigger:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Trigger(kind="whenever")

    def test_on_requires_probe_event(self):
        with pytest.raises(ValueError):
            Trigger(kind="on", event="never-a-probe")

    def test_on_requires_positive_nth(self):
        with pytest.raises(ValueError):
            Trigger(kind="on", event="ack_quorum", nth=0)


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="meteor", trigger=Trigger(kind="at", time_ms=1.0))

    def test_crash_needs_wellformed_target(self):
        with pytest.raises(ValueError):
            FaultEvent(
                kind="crash", trigger=Trigger(kind="at", time_ms=1.0), target="3"
            )

    def test_delay_rejects_hook_trigger(self):
        with pytest.raises(ValueError):
            FaultEvent(
                kind="delay",
                trigger=Trigger(kind="on", event="propose"),
                extra_ms=5.0,
                duration_ms=10.0,
            )

    def test_round_trips_through_dict(self):
        event = FaultEvent(
            kind="crash",
            trigger=Trigger(kind="on", event="ack_quorum", nth=3, offset_ms=0.1),
            target="leader:1",
        )
        assert FaultEvent.from_dict(event.canonical()) == event


class TestFaultSchedule:
    def test_json_round_trip_lossless(self):
        schedule = generate_schedule("fig3-reduced", 5, SHAPE)
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_json_is_canonical(self):
        schedule = generate_schedule("fig3-reduced", 5, SHAPE)
        text = schedule.to_json()
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )

    def test_replace_events(self):
        schedule = generate_schedule("fig3-reduced", 5, SHAPE)
        trimmed = schedule.replace_events([])
        assert trimmed.events == ()
        assert (trimmed.scenario, trimmed.seed) == (
            schedule.scenario,
            schedule.seed,
        )


class TestGenerateSchedule:
    def test_deterministic_per_seed(self):
        a = generate_schedule("fig3-reduced", 7, SHAPE)
        b = generate_schedule("fig3-reduced", 7, SHAPE)
        assert a.to_json() == b.to_json()

    def test_varies_with_seed_and_scenario(self):
        texts = {
            generate_schedule("fig3-reduced", seed, SHAPE).to_json()
            for seed in range(20)
        }
        assert len(texts) > 1
        assert (
            generate_schedule("other", 7, SHAPE).to_json()
            != generate_schedule("fig3-reduced", 7, SHAPE).to_json()
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_crashes_respect_group_budget(self, seed):
        schedule = generate_schedule("fig3-reduced", seed, SHAPE)
        per_group = {}
        for event in schedule.events:
            if event.kind != "crash":
                continue
            assert not event.over_budget
            gid = crash_group(event, SHAPE)
            per_group[gid] = per_group.get(gid, 0) + 1
        for gid, count in per_group.items():
            assert count <= max_failures(SHAPE.group_size)

    @pytest.mark.parametrize("seed", range(25))
    def test_over_budget_only_when_allowed(self, seed):
        schedule = generate_schedule(
            "fig3-reduced", seed, SHAPE, allow_over_budget=True
        )
        extras = [e for e in schedule.events if e.kind == "crash" and e.over_budget]
        assert len(extras) <= 1
        budgeted = [
            e for e in schedule.events if e.kind == "crash" and not e.over_budget
        ]
        per_group = {}
        for event in budgeted:
            gid = crash_group(event, SHAPE)
            per_group[gid] = per_group.get(gid, 0) + 1
        for count in per_group.values():
            assert count <= max_failures(SHAPE.group_size)

    @pytest.mark.parametrize("seed", range(25))
    def test_delays_bounded_inside_horizon(self, seed):
        schedule = generate_schedule("fig3-reduced", seed, SHAPE)
        for event in schedule.events:
            if event.kind != "delay":
                continue
            end = event.trigger.time_ms + event.duration_ms
            # The window plus the worst extra must leave room to quiesce.
            assert end + event.extra_ms < SHAPE.horizon_ms * 0.5

    def test_no_skews_without_hybrid_clock(self):
        for seed in range(25):
            schedule = generate_schedule("fig3-reduced", seed, SHAPE)
            assert all(e.kind != "skew" for e in schedule.events)

    def test_skews_appear_under_hybrid_clock(self):
        shape = ScheduleShape(
            n_groups=3, group_size=3, horizon_ms=5000.0, hybrid_clock=True
        )
        kinds = set()
        for seed in range(25):
            kinds |= {e.kind for e in generate_schedule("hc", seed, shape).events}
        assert "skew" in kinds
