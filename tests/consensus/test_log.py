"""Tests for Classic's stable-leader group log: slots applied in order."""

import pytest

from helpers import build_log_hosts
from repro.baselines.classic import ClAccepted, ClStart, _LogEntry
from repro.core import Multicast
from repro.sim import JitteredLatency


def test_commands_applied_in_slot_order_everywhere():
    config, sched, net, hosts = build_log_hosts()
    mids = [hosts[1].a_multicast({0}).mid for _ in range(10)]
    sched.run(until=500)
    leader = hosts[config.initial_leader(0)]
    assert leader._next_slot == 20
    assert [slot for slot, _, _ in leader.entries()] == list(range(20))
    assert {mid for _, _, mid in leader.entries()} == set(mids)
    for host in hosts.values():
        assert host.entries() == leader.entries()


def test_apply_waits_for_gaps():
    """A slot decided out of order is buffered until the gap closes."""
    config, sched, net, hosts = build_log_hosts()
    host = hosts[1]
    a, b, c = (Multicast((2, i), frozenset({0})) for i in range(3))
    for slot, m in ((2, c), (0, a), (1, b)):
        for voter in (0, 2):
            host._on_accepted(voter, ClAccepted(slot, _LogEntry("propose", m)))
        if slot == 2:
            assert host.applied == []
    assert host.entries() == [
        (0, "propose", a.mid),
        (1, "propose", b.mid),
        (2, "propose", c.mid),
    ]
    assert host._apply_cursor == 3


def test_only_leader_appends():
    config, sched, net, hosts = build_log_hosts()
    with pytest.raises(AssertionError):
        hosts[1]._on_start(2, ClStart(Multicast((2, 0), frozenset({0}))))
    assert hosts[1]._next_slot == 0


def test_jitter_does_not_reorder_application():
    """Every member applies the leader's sequence of entries, in slot
    order, whatever the per-link delays."""
    config, sched, net, hosts = build_log_hosts(
        n_groups=2, group_size=5, latency=JitteredLatency(2.0, 0.5)
    )
    for i in range(40):
        dest = {0, 1} if i % 3 == 0 else {i % 2}
        sched.call_at(i * 0.3, hosts[i % 10].a_multicast, dest, None)
    sched.run(until=5000)
    for gid in range(2):
        leader, *followers = config.members(gid)
        applied = hosts[leader].entries()
        assert applied
        assert [slot for slot, _, _ in applied] == list(range(hosts[leader]._next_slot))
        for pid in followers:
            assert hosts[pid].entries() == applied


def test_minority_crash_still_decides():
    config, sched, net, hosts = build_log_hosts(n_groups=2, group_size=5)
    for pid in (3, 4, 8, 9):
        hosts[pid].crash()
    for i in range(5):
        hosts[1].a_multicast({0, 1})
        hosts[6].a_multicast({1})
    sched.run(until=500)
    for pid in (0, 1, 2):
        assert len(hosts[pid].delivery_log) == 5
    for pid in (5, 6, 7):
        assert len(hosts[pid].delivery_log) == 10
