"""Figure 1 — the paper's example execution, re-enacted and rendered.

§5.2.5: two groups g = {p1,p2,p3} and h = {p4,p5,p6} (primaries p1, p4),
p5 a-multicasts m with m.dest = {g, h}. The bench re-runs exactly this
execution on an exact-Δ network, renders the message exchanges as a
textual space-time diagram, and verifies the figure's two claims:

* p2 a-delivers m **3 communication steps** after the a-multicast;
* without bump messages, quorum-clock() at p2 stays below final-ts(m)
  and m could never be delivered there (the figure's stated reason bump
  messages exist).
"""

import pytest

from repro.core import GroupConfig, PrimCastProcess
from repro.sim import ConstantLatency, Network, Scheduler, child_rng
from repro.sim.trace import record_flights, render_exchanges


def run_example(enable_bumps=True):
    # The figure's numbering: group g = {1, 2, 3}, h = {4, 5, 6}.
    config = GroupConfig([[1, 2, 3], [4, 5, 6]])
    sched = Scheduler()
    net = Network(sched, ConstantLatency(1.0), child_rng(0, "fig1"))
    flights = record_flights(net)
    procs = {
        pid: PrimCastProcess(pid, config, sched, net, enable_bumps=enable_bumps)
        for pid in config.all_pids
    }
    # Raise group h's clock so final-ts(m) comes from the remote group
    # at p2 (the figure has final-ts(m) = 2 with g's proposal at 1).
    procs[4].a_multicast({1})
    sched.run(until=20)
    flights.clear()
    t0 = sched.now
    m = procs[5].a_multicast({0, 1}, payload="m")
    sched.run(until=t0 + 20)
    # pid -> (time, final-ts) of its delivery of m
    deliveries = {
        pid: (when, final)
        for pid, proc in procs.items()
        for mid, final, when in proc.delivery_log
        if mid == m.mid
    }
    return procs, deliveries, flights, t0


def test_fig1_example_execution():
    procs, deliveries, flights, t0 = run_example()
    p2_time, p2_final = deliveries[2]

    print("\n== Figure 1: example execution (messages up to p2's a-deliver) ==")
    print("p5 a-multicasts m to {g, h}; only exchanges before p2 delivers:")
    print(
        render_exchanges(
            [f for f in flights if f.arrival <= p2_time + 1e-9],
            label_of=lambda pid: f"p{pid}",
        )
    )
    print(
        f"\np2 a-delivers m at t0+{p2_time - t0:.0f} steps "
        f"with final-ts {p2_final}"
    )

    # The figure's headline: 3 communication steps at p2 (and everyone).
    for pid, (when, final) in deliveries.items():
        assert when - t0 == pytest.approx(3.0, abs=1e-6), f"p{pid}"
    # final-ts(m) comes from group h (clock pre-advanced to 1 -> ts 2).
    assert p2_final == 2
    # Bump messages were exchanged inside group g (the figure shows two).
    bumps = [f for f in flights if f.kind == "bump" and f.arrival <= p2_time]
    assert bumps, "the example needs bump messages"


def test_fig1_without_bumps_p2_stalls():
    procs, deliveries, flights, t0 = run_example(enable_bumps=False)
    print("\nWithout bumps: quorum-clock() at p2 stays at 1 < final-ts 2;")
    print(f"group g deliveries: {[pid for pid in deliveries if pid <= 3]}")
    # Group h (whose own proposal is the max) can still deliver...
    assert 5 in deliveries
    # ...but no member of group g ever can (the figure's exact point).
    assert all(pid not in deliveries for pid in (1, 2, 3))
    assert procs[2].quorum_clock() < procs[2].final_ts(
        next(iter(procs[2].queue.pending))
    )
