#!/usr/bin/env python3
"""Primary failover: crash a group's primary under live traffic.

PrimCast's fault tolerance (Algorithm 3) in action: a steady stream of
global messages flows between two groups while group 0's primary
crashes. Every replica runs its own heartbeat Ω; once the primary's
heartbeats stop for SUSPECT_MS, the next replica runs the
epoch-change protocol (new-epoch → promise → new-state → accept),
re-sends the acks of every inherited proposal, and delivery resumes —
with no message lost, duplicated or reordered.

Run:
    python examples/failover.py
"""

from repro.core import PrimCastProcess, uniform_groups
from repro.core.process import PRIMARY
from repro.election import HB_INTERVAL_MS, attach_omegas
from repro.sim import ConstantLatency, FailureInjector, Network, Scheduler, child_rng
from repro.verify import check_acyclic_order, check_timestamp_order

DELTA_MS = 1.0
SUSPECT_MS = 100.0
CRASH_AT_MS = 25.0
N_MESSAGES = 80


def main() -> None:
    config = uniform_groups(n_groups=2, group_size=3)
    scheduler = Scheduler()
    network = Network(scheduler, ConstantLatency(DELTA_MS), child_rng(3, "net"))
    processes = {
        pid: PrimCastProcess(pid, config, scheduler, network)
        for pid in config.all_pids
    }
    attach_omegas(processes, SUSPECT_MS)
    injector = FailureInjector(scheduler, processes)

    logs = {pid: [] for pid in processes}
    for pid, proc in processes.items():
        proc.add_deliver_hook(
            lambda p, m, ts: logs[p.pid].append((m.mid, ts, scheduler.now))
        )

    # Steady traffic: one global message per millisecond from group 1.
    def issue(i: int = 0) -> None:
        if i < N_MESSAGES:
            processes[4].a_multicast({0, 1}, payload=f"msg-{i}")
            scheduler.call_after(1.0, issue, i + 1)

    scheduler.call_at(0.0, issue)
    injector.crash_at(0, CRASH_AT_MS)
    print(f"group 0 = {config.members(0)}, primary = 0; crash at t={CRASH_AT_MS}ms")

    scheduler.run(until=2000.0)

    survivor = processes[1]
    print(f"\nafter the run: replica 1 role = {survivor.role}, "
          f"epoch = {survivor.e_cur} (leader {survivor.e_cur.leader})")
    assert survivor.role == PRIMARY, "replica 1 should have taken over"

    correct_logs = {pid: logs[pid] for pid in (1, 2, 3, 4, 5)}
    for pid, log in correct_logs.items():
        assert len(log) == N_MESSAGES, f"replica {pid} delivered {len(log)}"
    check_acyclic_order(correct_logs)
    check_timestamp_order(correct_logs)

    # Where was the outage? Look at delivery-time gaps at replica 1.
    times = [t for _, _, t in logs[1]]
    gaps = sorted(
        ((b - a), a) for a, b in zip(times, times[1:])
    )
    worst_gap, gap_at = gaps[-1]
    print(f"all {N_MESSAGES} messages delivered by every correct replica")
    print(f"worst delivery gap at replica 1: {worst_gap:.1f} ms "
          f"(starting t={gap_at:.1f} ms — detection within "
          f"{SUSPECT_MS + HB_INTERVAL_MS:.0f} ms + epoch change + catch-up)")
    print("ordering checks passed: no loss, duplication or reordering")


if __name__ == "__main__":
    main()
