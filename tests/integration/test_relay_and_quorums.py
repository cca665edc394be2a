"""End-to-end tests for explicit quorum systems."""

from repro.core import GroupConfig, PrimCastProcess
from repro.sim import ConstantLatency, Network, Scheduler, child_rng
from repro.verify import check_acyclic_order


def build(config):
    sched = Scheduler()
    net = Network(sched, ConstantLatency(1.0), child_rng(6, "rq"))
    procs = {
        pid: PrimCastProcess(pid, config, sched, net)
        for pid in config.all_pids
    }
    logs = {pid: proc.delivery_log for pid, proc in procs.items()}
    return sched, net, procs, logs


class TestExplicitQuorums:
    def _grid_config(self):
        """A 2x2 grid quorum system for a group of 4: quorums are one
        row plus one column (here simplified: any row+column union)."""
        rows = [frozenset({0, 1}), frozenset({2, 3})]
        cols = [frozenset({0, 2}), frozenset({1, 3})]
        quorums = [r | c for r in rows for c in cols]
        return GroupConfig(
            [[0, 1, 2, 3], [4, 5, 6]], quorum_sets={0: quorums}
        )

    def test_grid_quorums_validate(self):
        config = self._grid_config()
        assert config.has_quorum(0, {0, 1, 2})  # row0 + col0
        assert not config.has_quorum(0, {0, 3})  # diagonal: no quorum

    def test_primcast_runs_on_grid_quorums(self):
        config = self._grid_config()
        sched, net, procs, logs = build(config)
        mids = []
        for i in range(10):
            sched.call_at(i * 0.9, lambda i=i: mids.append(
                procs[(i * 3) % 7].a_multicast({0, 1}).mid
            ))
        sched.run(until=300)
        # Everyone delivers all messages, in one common total order
        # (not necessarily the issue order: concurrent messages are
        # ordered by final timestamp).
        orders = {tuple(m for m, _, _ in logs[pid]) for pid in range(7)}
        assert len(orders) == 1
        assert set(orders.pop()) == set(mids)
        check_acyclic_order(logs)

    def test_quorum_clock_respects_grid(self):
        config = self._grid_config()
        # min-clocks: row {0,1} high, row {2,3} low.
        clocks = {0: 10, 1: 10, 2: 0, 3: 0}
        # Every quorum contains a member of row 1 with clock 0.
        assert config.quorum_clock_value(0, clocks) == 0
        clocks = {0: 10, 1: 10, 2: 7, 3: 0}
        # quorum row0+col0 = {0,1,2}: min 7.
        assert config.quorum_clock_value(0, clocks) == 7

    def test_weighted_majority_group(self):
        """Asymmetric quorum system: pid 0 in every quorum (a 'primary
        site'). Delivery still works and needs pid 0."""
        quorums = [frozenset({0, 1}), frozenset({0, 2})]
        config = GroupConfig([[0, 1, 2]], quorum_sets={0: quorums})
        sched, net, procs, logs = build(config)
        m = procs[1].a_multicast({0})
        sched.run(until=50)
        assert all(logs[pid] for pid in (0, 1, 2))
        # Crash pid 0 before a second message: no quorum can ack it.
        procs[0].crash()
        procs[1].a_multicast({0})
        sched.run(until=200)
        assert len(logs[1]) == 1  # the second message cannot be delivered
