"""Unit tests for the nemesis: crash targeting, budgets, delays, hooks."""

from repro.chaos.nemesis import Nemesis
from repro.chaos.schedule import FaultEvent, FaultSchedule, Trigger
from repro.core import PrimCastProcess, uniform_groups
from repro.election import attach_omegas
from repro.sim import (
    ConstantLatency,
    FailureInjector,
    Network,
    Scheduler,
    child_rng,
)


def build(seed=1, n_groups=2, group_size=3, omega=True):
    config = uniform_groups(n_groups, group_size)
    sched = Scheduler()
    net = Network(sched, ConstantLatency(1.0), child_rng(seed, "nemesis-test"))
    procs = {
        pid: PrimCastProcess(pid, config, sched, net) for pid in config.all_pids
    }
    if omega:
        attach_omegas(procs, suspect_ms=100.0)
    return config, sched, net, procs


def nemesis_for(events, config, sched, net, procs, seed=1):
    schedule = FaultSchedule("test", seed, tuple(events))
    injector = FailureInjector(sched, procs)
    nem = Nemesis(schedule, sched, net, config, procs, injector)
    nem.install()
    return nem, injector


def crash(target, trigger, over_budget=False):
    return FaultEvent(
        kind="crash", trigger=trigger, target=target, over_budget=over_budget
    )


class TestCrashInjection:
    def test_time_triggered_pid_crash(self):
        config, sched, net, procs = build()
        nem, inj = nemesis_for(
            [crash("pid:4", Trigger(kind="at", time_ms=5.0))],
            config, sched, net, procs,
        )
        sched.run(until=20.0)
        assert procs[4].crashed
        assert inj.crashed_pids == [4]
        assert nem.applied["crashes"] == 1

    def test_leader_target_kills_group_primary(self):
        config, sched, net, procs = build()
        nem, inj = nemesis_for(
            [crash("leader:1", Trigger(kind="at", time_ms=5.0))],
            config, sched, net, procs,
        )
        sched.run(until=20.0)
        assert nem.applied["crashes"] == 1
        assert inj.crashed_pids and inj.crashed_pids[0] in config.members(1)

    def test_budget_guard_refuses_second_crash_in_group(self):
        config, sched, net, procs = build()
        nem, inj = nemesis_for(
            [
                crash("pid:0", Trigger(kind="at", time_ms=5.0)),
                crash("pid:1", Trigger(kind="at", time_ms=6.0)),
            ],
            config, sched, net, procs,
        )
        sched.run(until=20.0)
        assert inj.crashed_pids == [0]
        assert nem.applied["crashes"] == 1
        assert nem.applied["budget_refused"] == 1

    def test_over_budget_flag_bypasses_guard(self):
        config, sched, net, procs = build()
        nem, inj = nemesis_for(
            [
                crash("pid:0", Trigger(kind="at", time_ms=5.0)),
                crash("pid:1", Trigger(kind="at", time_ms=6.0), over_budget=True),
            ],
            config, sched, net, procs,
        )
        sched.run(until=20.0)
        assert inj.crashed_pids == [0, 1]
        assert nem.applied["crashes"] == 2

    def test_crashed_target_counts_unresolved(self):
        config, sched, net, procs = build()
        nem, _ = nemesis_for(
            [
                crash("pid:3", Trigger(kind="at", time_ms=5.0)),
                crash("pid:3", Trigger(kind="at", time_ms=6.0)),
            ],
            config, sched, net, procs,
        )
        sched.run(until=20.0)
        assert nem.applied["crashes"] == 1
        assert nem.applied["unresolved"] == 1

    def test_install_is_idempotent(self):
        config, sched, net, procs = build()
        nem, inj = nemesis_for(
            [crash("pid:4", Trigger(kind="at", time_ms=5.0))],
            config, sched, net, procs,
        )
        nem.install()
        sched.run(until=20.0)
        assert inj.crashed_pids == [4]


class TestHookTriggers:
    def test_hook_crash_fires_at_step_boundary(self):
        config, sched, net, procs = build()
        nem, inj = nemesis_for(
            [
                crash(
                    "leader:0",
                    Trigger(kind="on", event="ack_quorum", nth=1),
                )
            ],
            config, sched, net, procs,
        )
        procs[0].a_multicast(frozenset({0, 1}), "m0")
        sched.run(until=200.0)
        assert nem.applied["crashes"] == 1
        assert inj.crashed_pids and inj.crashed_pids[0] in config.members(0)

    def test_nth_counts_matching_probes(self):
        config, sched, net, procs = build()
        nem, _ = nemesis_for(
            [
                crash(
                    "leader:0",
                    Trigger(kind="on", event="ack_quorum", nth=3, pid=0),
                )
            ],
            config, sched, net, procs,
        )
        for i in range(2):
            procs[0].a_multicast(frozenset({0}), f"m{i}")
        sched.run(until=200.0)
        # Only two ack quorums can have been observed at pid 0.
        assert nem.applied["crashes"] == 0

    def test_offset_defers_the_crash(self):
        config, sched, net, procs = build()
        nem, inj = nemesis_for(
            [
                crash(
                    "pid:0",
                    Trigger(
                        kind="on", event="ack_quorum", nth=1, offset_ms=50.0
                    ),
                )
            ],
            config, sched, net, procs,
        )
        procs[0].a_multicast(frozenset({0}), "m0")
        sched.run(until=30.0)
        assert not procs[0].crashed
        sched.run(until=200.0)
        assert procs[0].crashed
        assert nem.applied["crashes"] == 1
        assert inj.crashed_pids == [0]


class TestDelaysAndSkew:
    def test_delay_rule_shifts_matching_departures(self):
        config, sched, net, procs = build(omega=False)
        nem, _ = nemesis_for(
            [
                FaultEvent(
                    kind="delay",
                    trigger=Trigger(kind="at", time_ms=0.0),
                    src=0,
                    dst=3,
                    extra_ms=40.0,
                    duration_ms=100.0,
                )
            ],
            config, sched, net, procs,
        )
        assert nem.applied["delays"] == 1
        arrivals = []
        original = procs[3].on_message

        def spy(src, msg):
            arrivals.append((sched.now, src))
            original(src, msg)

        procs[3].on_message = spy
        procs[0].a_multicast(frozenset({1}), "m0")
        sched.run(until=300.0)
        assert arrivals, "pid 3 never heard from pid 0"
        # ConstantLatency(1.0) plus the 40ms spike dominates every
        # 0->3 arrival inside the window.
        assert min(t for t, _ in arrivals) >= 40.0

    def test_delay_outside_window_does_not_apply(self):
        config, sched, net, procs = build(omega=False)
        nemesis_for(
            [
                FaultEvent(
                    kind="delay",
                    trigger=Trigger(kind="at", time_ms=200.0),
                    src=0,
                    dst=3,
                    extra_ms=40.0,
                    duration_ms=50.0,
                )
            ],
            config, sched, net, procs,
        )
        arrivals = []
        original = procs[3].on_message

        def spy(src, msg):
            arrivals.append(sched.now)
            original(src, msg)

        procs[3].on_message = spy
        procs[0].a_multicast(frozenset({1}), "m0")
        sched.run(until=100.0)
        assert arrivals and min(arrivals) < 40.0

    def test_wildcard_delay_leaves_the_self_channel_alone(self):
        # A spike models a congested link; the self-channel is none, and
        # shifting it would let a later self-message overtake this one.
        config, sched, net, procs = build(omega=False)
        nem, _ = nemesis_for(
            [
                FaultEvent(
                    kind="delay",
                    trigger=Trigger(kind="at", time_ms=0.0),
                    dst=3,
                    extra_ms=40.0,
                    duration_ms=100.0,
                )
            ],
            config, sched, net, procs,
        )
        assert nem._delay_interceptor(3, 3, None, 10.0) == 10.0
        assert nem._delay_interceptor(0, 3, None, 10.0) == 50.0

    def test_skew_event_shifts_physical_clock(self):
        from repro.sim.clock import PhysicalClock

        config, sched, net, procs = build(omega=False)
        clock = PhysicalClock(sched)
        procs[2].physical_clock = clock
        nem, _ = nemesis_for(
            [
                FaultEvent(
                    kind="skew",
                    trigger=Trigger(kind="at", time_ms=5.0),
                    pid=2,
                    skew_us=1500,
                )
            ],
            config, sched, net, procs,
        )
        sched.run(until=10.0)
        assert clock.offset_us == 1500
        assert nem.applied["skews"] == 1
