#!/usr/bin/env python3
"""Trace a PrimCast execution — the paper's Figure 1, live.

Re-enacts §5.2.5's example (groups g = {p1,p2,p3}, h = {p4,p5,p6},
primaries p1/p4, p5 a-multicasts m to {g, h}) on an exact 1-step network
and prints every message exchange as a space-time listing, then the
delivery events. Useful as a template for tracing any run.

Run:
    python examples/protocol_trace.py
"""

from repro.core import GroupConfig, PrimCastProcess
from repro.sim import ConstantLatency, Network, Scheduler, child_rng, record_flights, render_exchanges


def main() -> None:
    config = GroupConfig([[1, 2, 3], [4, 5, 6]])  # the figure's numbering
    sched = Scheduler()
    net = Network(sched, ConstantLatency(1.0), child_rng(0, "trace"))
    flights = record_flights(net)
    procs = {
        pid: PrimCastProcess(pid, config, sched, net)
        for pid in config.all_pids
    }

    print("p5 a-multicasts m to both groups (g = p1..p3, h = p4..p6):\n")
    procs[5].a_multicast({0, 1}, payload="m")
    sched.run(until=20)

    print(render_exchanges(flights))
    deliveries = [
        (when, pid, ts) for pid, p in procs.items() for _mid, ts, when in p.delivery_log
    ]
    print("\ndeliveries (time, process, final timestamp):")
    for when, pid, ts in sorted(deliveries):
        print(f"  t={when:4.1f}  p{pid}  ts={ts}")

    last = max(when for when, _, _ in deliveries)
    print(f"\nevery destination a-delivered within {last:.0f} communication steps")
    assert abs(last - 3.0) < 1e-6


if __name__ == "__main__":
    main()
