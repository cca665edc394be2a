"""PrimCast behaviour tests on small deterministic networks."""

import pytest

from helpers import MiniSystem, random_workload
from repro.core.process import FOLLOWER, PRIMARY


def test_local_message_delivered_by_own_group_only():
    sys_ = MiniSystem(n_groups=3)
    m = sys_.multicast(0, {0})
    sys_.run()
    for pid in (0, 1, 2):
        assert [x[0] for x in sys_.deliveries[pid]] == [m.mid]
    for pid in range(3, 9):
        assert sys_.deliveries[pid] == []


def test_global_message_delivered_everywhere_in_dest():
    sys_ = MiniSystem(n_groups=3)
    m = sys_.multicast(0, {0, 2})
    sys_.run()
    for pid in (0, 1, 2, 6, 7, 8):
        assert [x[0] for x in sys_.deliveries[pid]] == [m.mid]
    for pid in (3, 4, 5):
        assert sys_.deliveries[pid] == []


def test_three_step_delivery_at_every_destination():
    """The headline claim: 3 communication steps at *every* destination
    (sender one step away from all destinations)."""
    sys_ = MiniSystem(n_groups=2)
    sys_.multicast(4, {0, 1})  # p4 is a follower of group 1
    sys_.run()
    for pid in range(6):
        assert sys_.deliveries[pid][0][2] == pytest.approx(3.0, abs=1e-6)


def test_sender_outside_destinations_can_multicast():
    sys_ = MiniSystem(n_groups=3)
    m = sys_.multicast(8, {0})  # group 2 process sends to group 0
    sys_.run()
    assert [x[0] for x in sys_.deliveries[0]] == [m.mid]
    assert sys_.deliveries[8] == []


def test_final_timestamp_is_max_of_local_timestamps():
    sys_ = MiniSystem(n_groups=2)
    # Raise group 1's clock with local traffic.
    for _ in range(4):
        sys_.multicast(3, {1})
    sys_.run(until=100)
    m = sys_.multicast(0, {0, 1})
    sys_.run(until=200)
    final = [ts for mid, ts, _ in sys_.deliveries[0] if mid == m.mid][0]
    # group 1's clock was at 4 -> its proposal is 5, group 0's is 1.
    assert final == 5
    proc = sys_.processes[0]
    assert proc.local_ts(m.mid, 0) == 1
    assert proc.local_ts(m.mid, 1) == 5


def test_same_final_timestamp_at_all_destinations():
    sys_ = MiniSystem(n_groups=3)
    random_workload(sys_, 40, seed=3)
    sys_.run_to_quiescence()
    assert sys_.violations() == []
    finals = {}
    for pid, log in sys_.deliveries.items():
        for mid, ts, _ in log:
            assert finals.setdefault(mid, ts) == ts


def test_deliveries_in_final_timestamp_order():
    sys_ = MiniSystem(n_groups=3)
    random_workload(sys_, 60, seed=5)
    sys_.run_to_quiescence()
    assert sys_.violations() == []
    for pid, log in sys_.deliveries.items():
        keys = [(ts, mid) for mid, ts, _ in log]
        assert keys == sorted(keys)


def test_atomic_multicast_properties_random_run():
    sys_ = MiniSystem(n_groups=3)
    random_workload(sys_, 80, seed=11)
    sys_.run_to_quiescence()
    assert sys_.violations() == []


def test_ties_broken_by_message_id():
    """Two messages with equal final timestamps in disjoint groups that
    later meet at a common group must order by id everywhere."""
    sys_ = MiniSystem(n_groups=2)
    a = sys_.multicast(1, {0, 1})
    b = sys_.multicast(4, {0, 1})
    sys_.run_to_quiescence()
    assert sys_.violations() == []
    orders = set()
    for pid in range(6):
        mids = [mid for mid, _, _ in sys_.deliveries[pid]]
        assert set(mids) == {a.mid, b.mid}
        orders.add(tuple(mids))
    assert len(orders) == 1


def test_initial_roles():
    sys_ = MiniSystem(n_groups=2)
    assert sys_.processes[0].role == PRIMARY
    assert sys_.processes[3].role == PRIMARY
    for pid in (1, 2, 4, 5):
        assert sys_.processes[pid].role == FOLLOWER


def test_clock_advances_past_delivered_finals():
    sys_ = MiniSystem(n_groups=2)
    sys_.multicast(0, {0, 1})
    sys_.run_to_quiescence()
    assert sys_.violations() == []
    for pid in range(6):
        proc = sys_.processes[pid]
        for mid, ts, _ in sys_.deliveries[pid]:
            assert proc.clock >= ts


def test_duplicate_destinations_collapse():
    sys_ = MiniSystem(n_groups=2)
    m = sys_.multicast(0, {0, 0, 1})
    assert m.dest == {0, 1}


def test_unknown_destination_group_rejected():
    sys_ = MiniSystem(n_groups=2)
    with pytest.raises(ValueError):
        sys_.multicast(0, {0, 7})


def test_throughput_pipeline_no_message_lost():
    sys_ = MiniSystem(n_groups=4)
    sent = random_workload(sys_, 150, seed=23, spread_ms=30)
    sys_.run_to_quiescence()
    assert sys_.violations() == []
    assert len(sent) == 150
    delivered_mids = set()
    for log in sys_.deliveries.values():
        delivered_mids.update(mid for mid, _, _ in log)
    assert delivered_mids == {m.mid for m in sent}
