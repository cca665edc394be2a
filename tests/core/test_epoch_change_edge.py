"""Edge cases of Algorithm 3: failures during the epoch change itself."""

from helpers import MiniSystem
from repro.core.process import PRIMARY


#: Ω's suspicion timeout. A primary that falls silent at t < 50 ms is
#: suspected at the first heartbeat round past it, ELECTION_AT.
SUSPECT_MS = 100.0
ELECTION_AT = 150.0


def delivered_mids(sys_, pid):
    return [mid for mid, _, _ in sys_.logs[pid]]


def test_candidate_crash_mid_election_next_leader_takes_over():
    """p0 crashes; candidate p1 crashes during its own epoch change;
    p2 must complete a later epoch and restore progress."""
    sys_ = MiniSystem(n_groups=1, group_size=5, suspect_ms=SUSPECT_MS)
    m1 = sys_.multicast(3, {0})
    sys_.injector.crash_at(0, 1.2)
    # p1 becomes candidate at ELECTION_AT; kill it mid-election.
    sys_.injector.crash_at(1, ELECTION_AT + 1.5)
    sys_.run(until=300)
    m2 = sys_.multicast(3, {0})
    sys_.run(until=500)
    assert sys_.processes[2].role == PRIMARY
    for pid in (2, 3, 4):
        assert delivered_mids(sys_, pid) == [m1.mid, m2.mid], f"pid {pid}"
    assert sys_.violations() == []


def test_crash_during_new_state_distribution():
    """Crash the candidate after promises but before everyone accepts;
    the follow-up leader must still converge on one T."""
    sys_ = MiniSystem(n_groups=1, group_size=5, suspect_ms=SUSPECT_MS)
    for i in range(5):
        sys_.scheduler.call_at(i * 0.5, sys_.multicast, 3, {0})
    sys_.injector.crash_at(0, 2.2)  # primary dies with proposals in flight
    # p1's election runs from ELECTION_AT for ~4 ms; crash it right in
    # the middle.
    sys_.injector.crash_at(1, ELECTION_AT + 2.3)
    sys_.run(until=400)
    delivered = {tuple(delivered_mids(sys_, pid)) for pid in (2, 3, 4)}
    assert len(delivered) == 1
    assert len(delivered.pop()) == 5
    assert sys_.violations() == []


def test_epoch_numbers_strictly_increase_across_failovers():
    sys_ = MiniSystem(n_groups=1, group_size=5, suspect_ms=SUSPECT_MS)
    sys_.injector.crash_at(0, 1.0)
    sys_.run(until=300)
    e_after_first = sys_.processes[2].e_cur
    sys_.injector.crash_at(1, 301.0)
    sys_.run(until=600)
    e_after_second = sys_.processes[2].e_cur
    assert e_after_second > e_after_first
    assert e_after_second.leader == 2
