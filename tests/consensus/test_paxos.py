"""Phase-2 Paxos decisions of Classic's group log, one slot at a time."""

import pytest

from helpers import build_log_hosts


class TestStableLeaderPath:
    def test_all_learn_same_value(self):
        config, sched, net, hosts = build_log_hosts()
        mid = hosts[1].a_multicast({0}).mid
        sched.run(until=50)
        for host in hosts.values():
            assert host.entries() == [(0, "propose", mid), (1, "commit", mid)]

    def test_decision_in_two_steps(self):
        """The leader sends the PROPOSE slot's 2a when the start arrives
        (1.0) and the COMMIT slot's when it applies the PROPOSE (3.0);
        each slot is decided everywhere two steps after its 2a."""
        config, sched, net, hosts = build_log_hosts()
        hosts[1].a_multicast({0})
        sched.run(until=50)
        for slot, sent_2a in ((0, 1.0), (1, 3.0)):
            decided = max(host.applied[slot][3] for host in hosts.values())
            assert decided == pytest.approx(sent_2a + 2.0)

    def test_on_decide_fires_once(self):
        """Every member's 2b reaches every member; a slot is applied once."""
        config, sched, net, hosts = build_log_hosts()
        hosts[1].a_multicast({0})
        hosts[2].a_multicast({0})
        sched.run(until=50)
        assert net.counts_by_kind["paxos-2b"] == 4 * 9
        for host in hosts.values():
            assert [slot for slot, _, _ in host.entries()] == [0, 1, 2, 3]

    def test_independent_instances(self):
        config, sched, net, hosts = build_log_hosts(n_groups=2)
        a = hosts[1].a_multicast({0}).mid
        b = hosts[4].a_multicast({1}).mid
        sched.run(until=50)
        for pid, host in hosts.items():
            mid = a if config.group_of[pid] == 0 else b
            assert host.entries() == [(0, "propose", mid), (1, "commit", mid)]


class TestQuorums:
    def test_no_decision_without_quorum(self):
        config, sched, net, hosts = build_log_hosts(group_size=5)
        for pid in (2, 3, 4):
            hosts[pid].crash()
        hosts[1].a_multicast({0})
        sched.run(until=500)
        assert net.counts_by_kind["paxos-2a"] == 5
        assert all(not host.applied for host in hosts.values())
        assert all(not host.delivery_log for host in hosts.values())

    def test_decision_with_minority_crashed(self):
        config, sched, net, hosts = build_log_hosts(group_size=5)
        hosts[4].crash()
        hosts[3].crash()
        mid = hosts[1].a_multicast({0}).mid
        sched.run(until=500)
        for pid in (0, 1, 2):
            assert hosts[pid].entries() == [(0, "propose", mid), (1, "commit", mid)]
            assert [m for m, _, _ in hosts[pid].delivery_log] == [mid]
