"""Leader failover at every protocol step boundary.

The nemesis probe hooks let a schedule crash the timestamping group's
leader *at* a protocol-relevant moment — the instant it starts, appends
its first timestamp proposal, observes the first ack quorum, delivers,
or begins an epoch change — instead of at an arbitrary wall-clock time.
For each boundary we assert the failover edge is clean: messages
submitted before the crash and messages submitted well after it are all
delivered by every correct destination, and the full §2.2 property
suite holds over the correct processes' logs.
"""

import pytest

from helpers import MiniSystem
from repro.chaos.nemesis import Nemesis
from repro.chaos.schedule import FaultEvent, FaultSchedule, Trigger
from repro.verify import attach_monitors

#: Step boundaries where the timestamping group's leader gets killed.
BOUNDARIES = ("start", "propose", "ack_quorum", "deliver")


def run_failover(events, group_size=3, horizon=3000.0):
    """Run a 2-group deployment under the given fault events.

    Returns (system, nemesis) after asserting the property suite over
    every process's log.
    """
    sys_ = MiniSystem(group_size=group_size, suspect_ms=100.0)
    attach_monitors(sys_.processes)
    nemesis = Nemesis(
        FaultSchedule(tuple(events)),
        scheduler=sys_.scheduler,
        network=sys_.network,
        config=sys_.config,
        processes=sys_.processes,
        injector=sys_.injector,
    )
    nemesis.install()
    # Senders that are never crash targets: a group-0 follower and a
    # group-1 member. Every message is timestamped by group 0, so the
    # leader crash sits on each message's critical path.
    dest = frozenset({0, 1})
    senders = (sys_.config.members(0)[-1], sys_.config.members(1)[0])
    for i in range(6):
        sys_.scheduler.call_at(1.0 + i * 2.0, sys_.multicast, senders[i % 2], dest, f"early{i}")
    for i in range(6):
        sys_.scheduler.call_at(800.0 + i * 2.0, sys_.multicast, senders[i % 2], dest, f"late{i}")
    sys_.run(until=horizon)
    # Every schedule here crashes within the groups' budgets and the run
    # quiesces before its horizon, so validity is owed too.
    assert sys_.violations() == []
    return sys_, nemesis


def assert_all_delivered(sys_, prefix, expected):
    """Every correct process delivered all `prefix*` messages."""
    mids = {m.mid for m in sys_.multicasts.values() if str(m.payload).startswith(prefix)}
    assert len(mids) == expected, f"{prefix}* messages lost: {len(mids)}/{expected}"
    for pid in sys_.correct_pids():
        seen = {mid for mid, _, _ in sys_.logs[pid]}
        assert mids <= seen, f"pid {pid} missing {prefix}* deliveries"


class TestLeaderCrashAtStepBoundaries:
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_delivery_resumes_after_leader_crash(self, boundary):
        events = [
            FaultEvent(
                kind="crash",
                trigger=Trigger(kind="on", event=boundary, nth=1, pid=0),
                target="leader:0",
            )
        ]
        sys_, nemesis = run_failover(events)
        assert nemesis.applied["crashes"] == 1
        assert sys_.processes[0].crashed, "the group-0 leader must actually crash"
        assert_all_delivered(sys_, "early", 6)
        assert_all_delivered(sys_, "late", 6)

    @pytest.mark.parametrize("boundary", ("propose", "ack_quorum"))
    def test_deferred_crash_at_boundary(self, boundary):
        # offset > 0: the leader survives the boundary itself and dies
        # shortly after, with its step's messages already in flight.
        events = [
            FaultEvent(
                kind="crash",
                trigger=Trigger(
                    kind="on", event=boundary, nth=1, pid=0, offset_ms=0.5
                ),
                target="leader:0",
            )
        ]
        sys_, nemesis = run_failover(events)
        assert nemesis.applied["crashes"] == 1
        assert_all_delivered(sys_, "early", 6)
        assert_all_delivered(sys_, "late", 6)


class TestLeaderCrashDuringEpochChange:
    def test_new_leader_crash_at_epoch_change_boundary(self):
        # Five-member group 0 (budget 2): the initial leader dies at
        # t=5ms, then whoever drives the resulting epoch change dies at
        # its start — two chained failovers on the timestamping group.
        events = [
            FaultEvent(
                kind="crash",
                trigger=Trigger(kind="at", time_ms=5.0),
                target="leader:0",
            ),
            FaultEvent(
                kind="crash",
                trigger=Trigger(kind="on", event="epoch_change", nth=1),
                target="leader:0",
            ),
        ]
        sys_, nemesis = run_failover(events, group_size=5, horizon=4000.0)
        assert nemesis.applied["crashes"] == 2
        crashed = set(range(10)) - sys_.correct_pids()
        assert len(crashed) == 2
        assert crashed <= set(range(5)), "both crashes hit group 0"
        assert_all_delivered(sys_, "early", 6)
        assert_all_delivered(sys_, "late", 6)
