"""Tests for the White-Box baseline (§4.2)."""

import pytest

from helpers import MiniSystem, random_workload


def build(**kw):
    return MiniSystem(protocol="whitebox", **kw)


def test_three_steps_at_primaries_four_at_followers():
    sys_ = build(n_groups=2)
    sys_.multicast(4, {0, 1})
    sys_.run()
    for pid in (0, 3):  # primaries
        assert sys_.deliveries[pid][0][2] == pytest.approx(3.0, abs=1e-6)
    for pid in (1, 2, 4, 5):  # followers
        assert sys_.deliveries[pid][0][2] == pytest.approx(4.0, abs=1e-6)


def test_local_message_stays_local():
    sys_ = build(n_groups=3)
    m = sys_.multicast(0, {1})
    sys_.run()
    for pid in (3, 4, 5):
        assert [x[0] for x in sys_.deliveries[pid]] == [m.mid]
    for pid in (0, 1, 2, 6, 7, 8):
        assert sys_.deliveries[pid] == []


def test_followers_follow_primary_order():
    sys_ = build(n_groups=2)
    a = sys_.multicast(1, {0, 1})
    b = sys_.multicast(4, {0, 1})
    c = sys_.multicast(2, {0})
    sys_.run_to_quiescence()
    primary_order = [mid for mid, _, _ in sys_.deliveries[0]]
    for pid in (1, 2):
        assert [mid for mid, _, _ in sys_.deliveries[pid]] == primary_order


def test_message_complexity_matches_table1_shape():
    sys_ = build(n_groups=4)
    sys_.multicast(1, {0, 1, 2})  # k=3, n=3
    sys_.run_to_quiescence()
    counts = sys_.network.counts_by_kind
    k, n = 3, 3
    assert counts["start"] == k
    assert counts["wb-accept"] == k * k * n
    assert counts["wb-ack"] == k * k * n
    assert counts["wb-deliver"] == k * (n - 1)


def test_ordering_properties_random_run():
    sys_ = build(n_groups=3)
    random_workload(sys_, 70, seed=21)
    sys_.run_to_quiescence()
    assert sys_.violations() == []


def test_quorum_of_acks_required_before_delivery():
    """With a majority of a destination group's followers crashed, the
    primary cannot gather the ack quorum and must not deliver."""
    sys_ = build(n_groups=2, group_size=5)
    # Crash 3 of 5 in group 1 (incl. two followers needed for quorum).
    for pid in (6, 7, 8):
        sys_.processes[pid].crash()
    sys_.multicast(0, {0, 1})
    sys_.run(until=200)
    assert sys_.deliveries[0] == []


def test_final_timestamps_consistent():
    sys_ = build(n_groups=3)
    random_workload(sys_, 40, seed=9)
    sys_.run_to_quiescence()
    finals = {}
    for log in sys_.deliveries.values():
        for mid, ts, _ in log:
            assert finals.setdefault(mid, ts) == ts
