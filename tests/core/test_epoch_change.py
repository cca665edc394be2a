"""Primary-change tests (Algorithm 3): crash the primary, keep going."""

from helpers import MiniSystem, partition
from repro.core.epoch import Epoch
from repro.core.process import FOLLOWER, PRIMARY
from repro.election import HB_INTERVAL_MS

#: Ω's suspicion timeout: a crash is detected within SUSPECT_MS plus one
#: heartbeat round.
SUSPECT_MS = 100.0


def delivered_mids(sys_, pid):
    return [mid for mid, _, _ in sys_.deliveries[pid]]


def test_crash_primary_before_start_arrives_message_still_delivered():
    sys_ = MiniSystem(suspect_ms=SUSPECT_MS)
    sys_.injector.crash_at(0, 0.5)  # group 0 primary dies before anything
    m = sys_.multicast(4, {0, 1}, "x")
    sys_.scheduler.run(until=200)
    for pid in (1, 2, 3, 4, 5):
        assert delivered_mids(sys_, pid) == [m.mid], f"pid {pid}"
    assert sys_.violations() == []


def test_new_primary_role_and_epoch_after_crash():
    sys_ = MiniSystem(suspect_ms=SUSPECT_MS)
    sys_.injector.crash_at(0, 1.0)
    sys_.scheduler.run(until=300)
    p1, p2 = sys_.processes[1], sys_.processes[2]
    assert p1.role == PRIMARY
    assert p2.role == FOLLOWER
    assert p1.e_cur.leader == 1
    assert p1.e_cur == p2.e_cur
    assert p1.e_cur.number >= 1


def test_crash_primary_mid_protocol_no_safety_violation():
    """Crash the primary right after it proposed (acks in flight)."""
    sys_ = MiniSystem(suspect_ms=SUSPECT_MS)
    m = sys_.multicast(4, {0, 1}, "x")
    # Start arrives at the group-0 primary at t=1, its ack departs then;
    # crash it at t=1.2, after the ack has been sent.
    sys_.injector.crash_at(0, 1.2)
    sys_.scheduler.run(until=300)
    for pid in (1, 2, 3, 4, 5):
        assert m.mid in delivered_mids(sys_, pid), f"pid {pid}"
    assert sys_.violations() == []
    finals = {ts for pid in (1, 2, 3, 4, 5) for mid, ts, _ in sys_.deliveries[pid]}
    assert len(finals) == 1


def test_crash_primary_before_proposal_reaches_followers():
    """Crash so the ack reaches remote group but (relay-free) semantics
    still converge via the epoch change re-proposal."""
    sys_ = MiniSystem(suspect_ms=SUSPECT_MS)
    m = sys_.multicast(4, {0, 1}, "x")
    sys_.injector.crash_at(0, 0.9)  # before the start (t=1.0) arrives
    sys_.scheduler.run(until=300)
    for pid in (1, 2, 3, 4, 5):
        assert m.mid in delivered_mids(sys_, pid)
    assert sys_.violations() == []


def test_traffic_during_failover_is_ordered():
    sys_ = MiniSystem(n_groups=2, suspect_ms=SUSPECT_MS)
    mids = []
    for i, (sender, when) in enumerate(
        [(4, 0.0), (1, 2.0), (5, 4.0), (2, 6.0), (4, 8.0), (1, 12.0), (5, 20.0)]
    ):
        def issue(s=sender):
            mids.append(sys_.multicast(s, {0, 1}).mid)

        sys_.scheduler.call_at(when, issue)
    sys_.injector.crash_at(0, 3.0)
    sys_.scheduler.run(until=500)
    for pid in (1, 2, 3, 4, 5):
        assert set(delivered_mids(sys_, pid)) == set(mids)
    # All correct destinations deliver in one common order.
    orders = {tuple(delivered_mids(sys_, pid)) for pid in (1, 2)}
    assert len(orders) == 1
    assert sys_.violations() == []


def test_quorum_clock_prevents_smaller_timestamps_after_failover():
    """New-epoch proposals must exceed everything the old quorum saw."""
    sys_ = MiniSystem(suspect_ms=SUSPECT_MS)
    for _ in range(5):
        sys_.multicast(1, {0})
    sys_.scheduler.run(until=50)
    old_clock = max(sys_.processes[pid].clock for pid in (1, 2))
    sys_.injector.crash_at(0, 50.5)
    sys_.scheduler.run(until=300)
    new_primary = sys_.processes[1]
    assert new_primary.role == PRIMARY
    m = sys_.multicast(2, {0})
    sys_.scheduler.run(until=350)
    final = [ts for mid, ts, _ in sys_.deliveries[2] if mid == m.mid][0]
    assert final > old_clock
    assert sys_.violations() == []


def test_successive_failovers():
    sys_ = MiniSystem(n_groups=1, group_size=5, suspect_ms=SUSPECT_MS)
    m1 = sys_.multicast(3, {0})
    sys_.injector.crash_at(0, 1.2)
    sys_.scheduler.run(until=300)
    m2 = sys_.multicast(3, {0})
    sys_.injector.crash_at(1, 301.0)
    sys_.scheduler.run(until=600)
    m3 = sys_.multicast(3, {0})
    sys_.scheduler.run(until=900)
    for pid in (2, 3, 4):
        assert delivered_mids(sys_, pid) == [m1.mid, m2.mid, m3.mid]
    assert sys_.processes[2].role == PRIMARY
    assert sys_.violations() == []


def test_stale_primary_cannot_disrupt_new_epoch():
    """A primary that is cut off from its group, not crashed, is deposed
    by Ω while it still runs: two primaries in overlapping epochs, and
    no conflicting deliveries."""
    sys_ = MiniSystem(suspect_ms=SUSPECT_MS)
    sched, procs = sys_.scheduler, sys_.processes
    partition(sys_.network, [0], [1, 2], 10.0, 250.0)
    mids = []
    senders = (0, 4, 1, 5)
    for i in range(40):
        def issue(s=senders[i % len(senders)]):
            mids.append(sys_.multicast(s, {0, 1}).mid)

        sched.call_at(5.0 * i, issue)
    sched.run(until=180)
    p0, p1 = procs[0], procs[1]
    # p1 and p2 stopped hearing from p0, which hears nobody of its group
    # and keeps proposing as the primary of e0.
    assert (p0.role, p0.e_cur) == (PRIMARY, Epoch(0, 0))
    assert (p1.role, p1.e_cur) == (PRIMARY, Epoch(1, 1))
    sched.run(until=1000)
    # After the GST at 250, p0 learns of the new epoch and follows it.
    assert (p0.role, p0.e_cur) == (FOLLOWER, p1.e_cur)
    for pid in sys_.config.all_pids:
        assert sorted(delivered_mids(sys_, pid)) == sorted(mids), f"pid {pid}"
    assert sys_.violations() == []


def test_failover_delivery_latency_bounded():
    """After the failure is detected, delivery resumes within a few
    communication steps (liveness, §5.2.7)."""
    sys_ = MiniSystem(suspect_ms=SUSPECT_MS)
    sys_.injector.crash_at(0, 0.5)
    m = sys_.multicast(4, {0, 1})
    sys_.scheduler.run(until=300)
    times = [t for pid in (1, 2) for mid, _, t in sys_.deliveries[pid] if mid == m.mid]
    assert times, "message not delivered after failover"
    # detection <= SUSPECT_MS + one heartbeat round, epoch change ~3
    # steps, re-propose + commit ~3-4.
    assert max(times) < SUSPECT_MS + HB_INTERVAL_MS + 20.0
