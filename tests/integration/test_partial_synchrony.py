"""Partial synchrony (§2.1): progress resumes after the GST.

Partitions model the asynchronous period — traffic is *delayed*, not
lost (channels are reliable). A partition is a window on the transmit
path (``helpers.partition``): a departure across the cut inside it
leaves when the window ends, the GST. Atomic multicast must then make
progress: every message multicast before or during the partition is
eventually delivered by every correct destination, in a consistent
order.
"""

from helpers import MiniSystem, partition
from repro.verify import check_acyclic_order, check_timestamp_order


def test_partition_delays_but_does_not_lose_traffic():
    sys_ = MiniSystem(n_groups=2)
    net = sys_.network
    # Isolate group 0's primary from its followers.
    partition(net, [0], [1, 2], 0.0, 100.0)
    m = sys_.multicast(4, {0, 1})
    sys_.run(until=100)
    # The followers of group 0 cannot form the local-ts quorum: nothing
    # destined to group 0 can be delivered anywhere.
    assert all(not sys_.deliveries[pid] for pid in range(6))
    # GST at 100: the held primary acks arrive, the quorum forms.
    sys_.run(until=300)
    for pid in range(6):
        assert [x[0] for x in sys_.deliveries[pid]] == [m.mid], f"pid {pid}"


def test_traffic_during_partition_ordered_after_heal():
    sys_ = MiniSystem(n_groups=2)
    net = sys_.network
    mids = []
    # Some messages before the partition...
    for i in range(3):
        mids.append(sys_.multicast(1, {0, 1}).mid)
    sys_.run(until=20)
    # ...then a partition splits group 1 internally while traffic flows.
    partition(net, [3], [4, 5], 20.0, 60.0)
    for i in range(4):
        mids.append(sys_.multicast(2, {0, 1}).mid)
    sys_.run(until=500)
    for pid in range(6):
        assert {x[0] for x in sys_.deliveries[pid]} == set(mids)
    check_acyclic_order(sys_.logs)
    check_timestamp_order(sys_.logs)
    orders = {tuple(x[0] for x in sys_.deliveries[pid]) for pid in range(6)}
    assert len(orders) == 1


def test_cross_group_partition_stalls_only_global_messages():
    sys_ = MiniSystem(n_groups=2)
    net = sys_.network
    # Full partition between the two groups.
    partition(net, [0, 1, 2], [3, 4, 5], 0.0, 100.0)
    local_g0 = sys_.multicast(1, {0})
    local_g1 = sys_.multicast(4, {1})
    global_m = sys_.multicast(1, {0, 1})
    sys_.run(until=100)
    # Genuineness pays off: local traffic is unaffected.
    assert [x[0] for x in sys_.deliveries[0]] == [local_g0.mid]
    assert [x[0] for x in sys_.deliveries[3]] == [local_g1.mid]
    assert all(global_m.mid not in [x[0] for x in sys_.deliveries[p]] for p in range(6))
    sys_.run(until=300)
    for pid in range(6):
        assert global_m.mid in [x[0] for x in sys_.deliveries[pid]]
    check_timestamp_order(sys_.logs)


def test_repeated_partitions():
    sys_ = MiniSystem(n_groups=2)
    net = sys_.network
    mids = []
    for round_i in range(3):
        now = sys_.scheduler.now
        partition(net, [0], [1, 2], now, now + 30)
        mids.append(sys_.multicast(5, {0, 1}).mid)
        sys_.run(until=now + 60)
    for pid in range(6):
        assert {x[0] for x in sys_.deliveries[pid]} == set(mids)
    check_acyclic_order(sys_.logs)
