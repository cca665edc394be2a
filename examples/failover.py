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

from dataclasses import replace

from repro.core.process import PRIMARY
from repro.election import HB_INTERVAL_MS
from repro.harness.runner import build_system
from repro.sim import FailureInjector, zero_cost_model
from repro.verify import check_acyclic_order, check_timestamp_order
from repro.workload.scenarios import exact_network

DELTA_MS = 1.0
SUSPECT_MS = 100.0
CRASH_AT_MS = 25.0
N_MESSAGES = 80


def main() -> None:
    # Two groups of three on an exact 1 ms network with free CPUs; the
    # scenario's suspect_ms gives every replica a heartbeat Ω.
    system = build_system(
        "primcast", replace(exact_network(2, 3, DELTA_MS), suspect_ms=SUSPECT_MS),
        cost_model=zero_cost_model(), compaction_interval_ms=0.0,
    )
    config, scheduler, processes = system.config, system.scheduler, system.processes
    injector = FailureInjector(scheduler, processes)

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

    correct_logs = {pid: processes[pid].delivery_log for pid in (1, 2, 3, 4, 5)}
    for pid, log in correct_logs.items():
        assert len(log) == N_MESSAGES, f"replica {pid} delivered {len(log)}"
    check_acyclic_order(correct_logs)
    check_timestamp_order(correct_logs)

    # Where was the outage? Look at delivery-time gaps at replica 1.
    times = [t for _, _, t in processes[1].delivery_log]
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
