"""Unit tests for the nemesis: crash targeting, budgets, delays, hooks."""

from helpers import MiniSystem
from repro.chaos.nemesis import Nemesis
from repro.chaos.schedule import FaultEvent, FaultSchedule, Trigger


def nemesis_for(events, omega=True):
    """A 2x3 PrimCast deployment (with Ω unless ``omega`` is false) and
    the installed nemesis of ``events``."""
    sys_ = MiniSystem(suspect_ms=100.0 if omega else None)
    nem = Nemesis(
        FaultSchedule(tuple(events)), sys_.scheduler, sys_.network,
        sys_.config, sys_.processes, sys_.injector,
    )
    nem.install()
    return sys_, nem


def crash(target, trigger, over_budget=False):
    return FaultEvent(
        kind="crash", trigger=trigger, target=target, over_budget=over_budget
    )


class TestCrashInjection:
    def test_time_triggered_pid_crash(self):
        sys_, nem = nemesis_for(
            [crash("pid:4", Trigger(kind="at", time_ms=5.0))],
        )
        sys_.run(until=20.0)
        assert sys_.processes[4].crashed
        assert sys_.injector.crashed_pids == [4]
        assert nem.applied["crashes"] == 1

    def test_leader_target_kills_group_primary(self):
        sys_, nem = nemesis_for(
            [crash("leader:1", Trigger(kind="at", time_ms=5.0))],
        )
        sys_.run(until=20.0)
        assert nem.applied["crashes"] == 1
        crashed = sys_.injector.crashed_pids
        assert crashed and crashed[0] in sys_.config.members(1)

    def test_budget_guard_refuses_second_crash_in_group(self):
        sys_, nem = nemesis_for(
            [
                crash("pid:0", Trigger(kind="at", time_ms=5.0)),
                crash("pid:1", Trigger(kind="at", time_ms=6.0)),
            ],
        )
        sys_.run(until=20.0)
        assert sys_.injector.crashed_pids == [0]
        assert nem.applied["crashes"] == 1
        assert nem.applied["budget_refused"] == 1

    def test_over_budget_flag_bypasses_guard(self):
        sys_, nem = nemesis_for(
            [
                crash("pid:0", Trigger(kind="at", time_ms=5.0)),
                crash("pid:1", Trigger(kind="at", time_ms=6.0), over_budget=True),
            ],
        )
        sys_.run(until=20.0)
        assert sys_.injector.crashed_pids == [0, 1]
        assert nem.applied["crashes"] == 2

    def test_crashed_target_counts_unresolved(self):
        sys_, nem = nemesis_for(
            [
                crash("pid:3", Trigger(kind="at", time_ms=5.0)),
                crash("pid:3", Trigger(kind="at", time_ms=6.0)),
            ],
        )
        sys_.run(until=20.0)
        assert nem.applied["crashes"] == 1
        assert nem.applied["unresolved"] == 1

    def test_install_is_idempotent(self):
        sys_, nem = nemesis_for(
            [crash("pid:4", Trigger(kind="at", time_ms=5.0))],
        )
        nem.install()
        sys_.run(until=20.0)
        assert sys_.injector.crashed_pids == [4]


class TestHookTriggers:
    def test_hook_crash_fires_at_step_boundary(self):
        sys_, nem = nemesis_for(
            [
                crash(
                    "leader:0",
                    Trigger(kind="on", event="ack_quorum", nth=1),
                )
            ],
        )
        sys_.processes[0].a_multicast(frozenset({0, 1}), "m0")
        sys_.run(until=200.0)
        assert nem.applied["crashes"] == 1
        crashed = sys_.injector.crashed_pids
        assert crashed and crashed[0] in sys_.config.members(0)

    def test_nth_counts_matching_probes(self):
        sys_, nem = nemesis_for(
            [
                crash(
                    "leader:0",
                    Trigger(kind="on", event="ack_quorum", nth=3, pid=0),
                )
            ],
        )
        for i in range(2):
            sys_.processes[0].a_multicast(frozenset({0}), f"m{i}")
        sys_.run(until=200.0)
        # Only two ack quorums can have been observed at pid 0.
        assert nem.applied["crashes"] == 0

    def test_offset_defers_the_crash(self):
        sys_, nem = nemesis_for(
            [
                crash(
                    "pid:0",
                    Trigger(
                        kind="on", event="ack_quorum", nth=1, offset_ms=50.0
                    ),
                )
            ],
        )
        sys_.processes[0].a_multicast(frozenset({0}), "m0")
        sys_.run(until=30.0)
        assert not sys_.processes[0].crashed
        sys_.run(until=200.0)
        assert sys_.processes[0].crashed
        assert nem.applied["crashes"] == 1
        assert sys_.injector.crashed_pids == [0]


class TestDelaysAndSkew:
    def test_delay_rule_shifts_matching_departures(self):
        sys_, nem = nemesis_for(
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
            omega=False,
        )
        assert nem.applied["delays"] == 1
        arrivals = []
        original = sys_.processes[3].on_message

        def spy(src, msg):
            arrivals.append((sys_.scheduler.now, src))
            original(src, msg)

        sys_.processes[3].on_message = spy
        sys_.processes[0].a_multicast(frozenset({1}), "m0")
        sys_.run(until=300.0)
        assert arrivals, "pid 3 never heard from pid 0"
        # ConstantLatency(1.0) plus the 40ms spike dominates every
        # 0->3 arrival inside the window.
        assert min(t for t, _ in arrivals) >= 40.0

    def test_delay_outside_window_does_not_apply(self):
        sys_, nem = nemesis_for(
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
            omega=False,
        )
        arrivals = []
        original = sys_.processes[3].on_message

        def spy(src, msg):
            arrivals.append(sys_.scheduler.now)
            original(src, msg)

        sys_.processes[3].on_message = spy
        sys_.processes[0].a_multicast(frozenset({1}), "m0")
        sys_.run(until=100.0)
        assert arrivals and min(arrivals) < 40.0

    def test_wildcard_delay_leaves_the_self_channel_alone(self):
        # A spike models a congested link; the self-channel is none, and
        # shifting it would let a later self-message overtake this one.
        sys_, nem = nemesis_for(
            [
                FaultEvent(
                    kind="delay",
                    trigger=Trigger(kind="at", time_ms=0.0),
                    dst=3,
                    extra_ms=40.0,
                    duration_ms=100.0,
                )
            ],
            omega=False,
        )
        assert nem._delay_interceptor(3, 3, None, 10.0) == 10.0
        assert nem._delay_interceptor(0, 3, None, 10.0) == 50.0

    def test_skew_event_shifts_physical_clock(self):
        from repro.sim.clock import PhysicalClock

        sys_, nem = nemesis_for(
            [
                FaultEvent(
                    kind="skew",
                    trigger=Trigger(kind="at", time_ms=5.0),
                    pid=2,
                    skew_us=1500,
                )
            ],
            omega=False,
        )
        clock = sys_.processes[2].physical_clock = PhysicalClock(sys_.scheduler)
        sys_.run(until=10.0)
        assert clock.offset_us == 1500
        assert nem.applied["skews"] == 1
