"""Failover bench — primary change under load (Algorithm 3).

Not a paper figure (the evaluation runs failure-free), but the paper's
contribution hinges on remaining safe and live across primary changes,
so we measure it: a steady 2-destination workload runs while group 0's
primary crashes; we report delivery-gap duration at group 0 and verify
ordering afterwards.
"""

from dataclasses import replace

from repro.election import HB_INTERVAL_MS
from repro.harness.report import format_table
from repro.harness.runner import build_system
from repro.sim import FailureInjector, zero_cost_model
from repro.verify import check_acyclic_order, check_timestamp_order
from repro.workload.scenarios import exact_network

DELTA = 1.0
SUSPECT_MS = 100.0
CRASH_AT = 50.0


def run_failover():
    # 2x3 groups on an exact Δ network, free CPUs, a heartbeat Ω per
    # process and no state-GC daemon.
    system = build_system(
        "primcast", replace(exact_network(2, 3, DELTA), suspect_ms=SUSPECT_MS),
        cost_model=zero_cost_model(), compaction_interval_ms=0.0,
    )
    sched, procs = system.scheduler, system.processes
    injector = FailureInjector(sched, procs)

    # Steady workload: one multicast to {0, 1} every 1 ms from p4.
    def issue(i=0):
        if i < 150:
            procs[4].a_multicast({0, 1})
            sched.call_after(1.0, issue, i + 1)

    sched.call_at(0.0, issue)
    injector.crash_at(0, CRASH_AT)
    sched.run(until=1000)
    logs = {pid: proc.delivery_log for pid, proc in procs.items()}

    # Delivery gap at a group-0 survivor around the crash.
    times = sorted(t for _, _, t in logs[1])
    gaps = [(b - a, a) for a, b in zip(times, times[1:])]
    max_gap, gap_start = max(gaps)
    return logs, max_gap, gap_start


def test_failover_under_load():
    logs, max_gap, gap_start = run_failover()
    correct = [pid for pid in logs if pid != 0]
    counts = {pid: len(logs[pid]) for pid in correct}
    print("\n== Failover: primary of group 0 crashes at t=50ms under load ==")
    print(
        format_table(
            ["metric", "value"],
            [
                ["messages issued", 150],
                ["delivered at each survivor", sorted(set(counts.values()))],
                ["max delivery gap (ms)", f"{max_gap:.1f}"],
                ["gap start (ms)", f"{gap_start:.1f}"],
                ["detection + epoch change budget (ms)", f"{SUSPECT_MS + HB_INTERVAL_MS + 6 * DELTA:.1f}"],
            ],
        )
    )

    # All 150 messages delivered by every correct destination.
    assert all(c == 150 for c in counts.values())
    check_acyclic_order({pid: logs[pid] for pid in correct})
    check_timestamp_order({pid: logs[pid] for pid in correct})
    # The outage is bounded by detection (Ω's timeout plus one heartbeat
    # round) + epoch change + catch-up.
    assert gap_start >= CRASH_AT - 10 * DELTA
    assert max_gap < SUSPECT_MS + HB_INTERVAL_MS + 20 * DELTA
