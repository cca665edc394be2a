"""Edge cases of Algorithm 3: failures during the epoch change itself."""

import pytest

from repro.core import PrimCastProcess, uniform_groups
from repro.core.process import PRIMARY
from repro.election import attach_omegas
from repro.sim import ConstantLatency, FailureInjector, Network, Scheduler, child_rng
from repro.verify import check_acyclic_order, check_timestamp_order


#: Ω's suspicion timeout. A primary that falls silent at t < 50 ms is
#: suspected at the first heartbeat round past it, ELECTION_AT.
SUSPECT_MS = 100.0
ELECTION_AT = 150.0


def build(n_groups=1, group_size=5, suspect_ms=SUSPECT_MS):
    config = uniform_groups(n_groups, group_size)
    sched = Scheduler()
    net = Network(sched, ConstantLatency(1.0), child_rng(8, "edge"))
    procs = {
        pid: PrimCastProcess(pid, config, sched, net) for pid in config.all_pids
    }
    attach_omegas(procs, suspect_ms)
    inj = FailureInjector(sched, procs)
    logs = {pid: [] for pid in procs}
    for pid, p in procs.items():
        p.add_deliver_hook(
            lambda proc, m, ts: logs[proc.pid].append((m.mid, ts, sched.now))
        )
    return config, sched, procs, inj, logs


def test_candidate_crash_mid_election_next_leader_takes_over():
    """p0 crashes; candidate p1 crashes during its own epoch change;
    p2 must complete a later epoch and restore progress."""
    config, sched, procs, inj, logs = build()
    m1 = procs[3].a_multicast({0})
    inj.crash_at(0, 1.2)
    # p1 becomes candidate at ELECTION_AT; kill it mid-election.
    inj.crash_at(1, ELECTION_AT + 1.5)
    sched.run(until=300)
    m2 = procs[3].a_multicast({0})
    sched.run(until=500)
    assert procs[2].role == PRIMARY
    for pid in (2, 3, 4):
        assert [x[0] for x in logs[pid]] == [m1.mid, m2.mid], f"pid {pid}"
    correct = {pid: logs[pid] for pid in (2, 3, 4)}
    check_acyclic_order(correct)
    check_timestamp_order(correct)


def test_crash_during_new_state_distribution():
    """Crash the candidate after promises but before everyone accepts;
    the follow-up leader must still converge on one T."""
    config, sched, procs, inj, logs = build()
    for i in range(5):
        sched.call_at(i * 0.5, procs[3].a_multicast, {0}, None)
    inj.crash_at(0, 2.2)  # primary dies with proposals in flight
    # p1's election runs from ELECTION_AT for ~4 ms; crash it right in
    # the middle.
    inj.crash_at(1, ELECTION_AT + 2.3)
    sched.run(until=400)
    survivors = (2, 3, 4)
    delivered = [tuple(x[0] for x in logs[pid]) for pid in survivors]
    assert len(set(delivered)) == 1
    assert len(delivered[0]) == 5
    check_acyclic_order({pid: logs[pid] for pid in survivors})


def test_epoch_numbers_strictly_increase_across_failovers():
    config, sched, procs, inj, logs = build()
    inj.crash_at(0, 1.0)
    sched.run(until=300)
    e_after_first = procs[2].e_cur
    inj.crash_at(1, 301.0)
    sched.run(until=600)
    e_after_second = procs[2].e_cur
    assert e_after_second > e_after_first
    assert e_after_second.leader == 2
