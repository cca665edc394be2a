"""Scale tests: bigger groups, more groups, paper-sized deployments."""

import pytest

from helpers import MiniSystem, random_workload


def test_three_step_delivery_with_groups_of_five():
    """The 3-step bound is independent of the group size (quorums of 3)."""
    sys_ = MiniSystem(n_groups=2, group_size=5)
    sys_.multicast(6, {0, 1})  # follower of group 1
    sys_.run()
    for pid in range(10):
        assert sys_.deliveries[pid][0][2] == pytest.approx(3.0, abs=1e-6)


def test_three_step_delivery_with_groups_of_seven():
    sys_ = MiniSystem(n_groups=2, group_size=7)
    sys_.multicast(8, {0, 1})
    sys_.run()
    for pid in range(14):
        assert sys_.deliveries[pid][0][2] == pytest.approx(3.0, abs=1e-6)


def test_paper_scale_deployment_8x3():
    """8 groups x 3 replicas (the evaluation's size), all-group message."""
    sys_ = MiniSystem(n_groups=8, group_size=3)
    sys_.multicast(1, set(range(8)))
    sys_.run()
    for pid in range(24):
        assert sys_.deliveries[pid][0][2] == pytest.approx(3.0, abs=1e-6)


def test_properties_at_paper_scale():
    sys_ = MiniSystem(n_groups=8, group_size=3)
    random_workload(sys_, 100, seed=77, max_dest_groups=4)
    sys_.run_to_quiescence()
    assert sys_.violations(prefix=False) == []  # prefix order is quadratic


def test_single_process_groups_degenerate_to_skeen_like():
    """Groups of one: quorum = the process itself; 3 steps still hold
    (start -> ack -> ack exchange)."""
    sys_ = MiniSystem(n_groups=3, group_size=1)
    sys_.multicast(1, {0, 1, 2})
    sys_.run()
    for pid in (0, 1, 2):
        log = sys_.deliveries[pid]
        assert len(log) == 1
        assert log[0][2] <= 3.0 + 1e-6


def test_mixed_group_sizes():
    from repro.core import GroupConfig, PrimCastProcess
    from repro.sim import ConstantLatency, Network, Scheduler, child_rng

    config = GroupConfig([[0, 1, 2, 3, 4], [5, 6, 7], [8]])
    sched = Scheduler()
    net = Network(sched, ConstantLatency(1.0), child_rng(2, "mixed"))
    procs = {pid: PrimCastProcess(pid, config, sched, net) for pid in config.all_pids}
    m = procs[6].a_multicast({0, 1, 2})
    sched.run(until=50)
    for pid in config.all_pids:
        assert [mid for mid, _, _ in procs[pid].delivery_log] == [m.mid]
