"""Tests for the classic consensus-based multicast (§4.3, 6/12 steps)."""

import pytest

from repro.baselines.classic import ClassicProcess
from repro.core import uniform_groups
from repro.sim import ConstantLatency, JitteredLatency, Network, Scheduler, child_rng
from repro.verify import check_acyclic_order, check_timestamp_order, collect_violations


def build(n_groups=2, latency=None):
    config = uniform_groups(n_groups, 3)
    sched = Scheduler()
    net = Network(sched, latency or ConstantLatency(1.0), child_rng(1, "cl"))
    procs = {
        pid: ClassicProcess(pid, config, sched, net) for pid in config.all_pids
    }
    logs = {pid: proc.delivery_log for pid, proc in procs.items()}
    return config, sched, net, procs, logs


def test_six_step_collision_free_delivery():
    """1 (start) + 2 (propose consensus) + 1 (ts exchange) + 2 (commit
    consensus) = 6 steps for a global message."""
    config, sched, net, procs, logs = build()
    procs[4].a_multicast({0, 1})
    sched.run(until=50)
    times = [t for pid in range(6) for _, _, t in logs[pid]]
    assert len(times) == 6
    assert max(times) == pytest.approx(6.0, abs=1e-6)


def test_local_message_skips_ts_exchange():
    """A single-group message needs no timestamp exchange: 1 + 2 + 2."""
    config, sched, net, procs, logs = build()
    procs[1].a_multicast({0})
    sched.run(until=50)
    times = [t for pid in (0, 1, 2) for _, _, t in logs[pid]]
    assert max(times) == pytest.approx(5.0, abs=1e-6)
    assert net.counts_by_kind.get("cl-ts", 0) == 0


def test_slower_than_primcast():
    """The gap the paper's Table 1 quantifies: 6 steps vs 3."""
    from repro.harness.steps import measure_collision_free

    primcast = measure_collision_free("primcast", 2, n_groups=4)
    config, sched, net, procs, logs = build(n_groups=4)
    procs[4].a_multicast({0, 1})
    sched.run(until=50)
    classic_steps = max(t for pid in range(6) for _, _, t in logs[pid])
    assert classic_steps == pytest.approx(2 * primcast["max_steps"], abs=1e-6)


def test_ordering_properties_random_run():
    import random

    config, sched, net, procs, logs = build(
        n_groups=3, latency=JitteredLatency(1.0, 0.2)
    )
    rng = random.Random(3)
    sent = {}
    for i in range(50):
        sender = rng.choice(config.all_pids)
        dest = frozenset(rng.sample(range(3), rng.randint(1, 3)))
        when = rng.uniform(0, 40)
        sched.call_at(
            when,
            lambda s=sender, d=dest: sent.setdefault(
                procs[s].a_multicast(d).mid, d
            ),
        )
    sched.run(until=5000)
    dest_pids = {mid: set(config.dest_pids(d)) for mid, d in sent.items()}
    assert collect_violations(logs, set(sent), dest_pids, set(config.all_pids)) == []


def test_group_members_deliver_identically():
    config, sched, net, procs, logs = build(n_groups=2)
    for i in range(10):
        sched.call_at(i * 0.8, procs[i % 6].a_multicast, {0, 1}, None)
    sched.run(until=500)
    orders = {tuple(m for m, _, _ in logs[pid]) for pid in range(6)}
    assert len(orders) == 1
    assert len(orders.pop()) == 10


def test_uses_group_consensus_messages():
    config, sched, net, procs, logs = build()
    procs[0].a_multicast({0, 1})
    sched.run(until=50)
    # Two consensus instances per group (propose + commit).
    assert net.counts_by_kind["paxos-2a"] > 0
    assert net.counts_by_kind["paxos-2b"] > 0


def test_clock_advances_with_log():
    config, sched, net, procs, logs = build()
    for _ in range(5):
        procs[1].a_multicast({0})
    sched.run(until=100)
    assert procs[0].clock >= 5
    assert procs[2].clock >= 5


@pytest.mark.parametrize(
    "sender,dest,counts,events",
    [
        (4, {0, 1}, {"start": 2, "cl-ts": 2, "paxos-2a": 12, "paxos-2b": 36}, 104),
        (1, {0}, {"start": 1, "paxos-2a": 6, "paxos-2b": 18}, 50),
    ],
    ids=["global", "local"],
)
def test_wire_counts_and_events_are_pinned(sender, dest, counts, events):
    """A PROPOSE and a COMMIT slot per destination group: the leader's
    2a to its 3 members, and 2b from each of them to all 3."""
    config, sched, net, procs, logs = build()
    procs[sender].a_multicast(dest)
    sched.run(until=50)
    assert dict(net.counts_by_kind) == counts
    assert sched.events_processed == events
