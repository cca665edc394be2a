"""Ablation — bump messages (§5.2.5, Figure 1's example).

The paper motivates bump messages with an example: without them,
``quorum-clock()`` at a destination stays below a message's final
timestamp whenever that timestamp comes from a *remote* group, and the
message can never be delivered. This bench disables bump emission and
shows exactly that: local messages still flow, but a global message
whose final timestamp originates remotely stalls forever.
"""

from repro.core.config import uniform_groups
from repro.core.process import PrimCastProcess
from repro.sim import ConstantLatency, Network, Scheduler, child_rng
from repro.harness.report import format_table


def run_case(enable_bumps: bool):
    config = uniform_groups(2, 3)
    sched = Scheduler()
    net = Network(sched, ConstantLatency(1.0), child_rng(1, "ablate"))
    procs = {
        pid: PrimCastProcess(
            pid, config, sched, net, enable_bumps=enable_bumps
        )
        for pid in config.all_pids
    }
    # Raise group 1's clock so the global message's final timestamp comes
    # from the remote group (from group 0's perspective).
    for _ in range(3):
        procs[3].a_multicast({1})
    sched.run(until=50)
    m = procs[4].a_multicast({0, 1}, payload="global")
    sched.run(until=500)
    delivered_at_g0 = [t for mid, _, t in procs[1].delivery_log if mid == m.mid]
    delivered_at_g1 = [t for mid, _, t in procs[4].delivery_log if mid == m.mid]
    return delivered_at_g0, delivered_at_g1, net.counts_by_kind.get("bump", 0)


def test_bump_ablation():
    with_g0, with_g1, bumps_on = run_case(enable_bumps=True)
    without_g0, without_g1, bumps_off = run_case(False)

    rows = [
        ["with bumps", "yes" if with_g0 else "STALLED", "yes" if with_g1 else "STALLED", bumps_on],
        ["without bumps", "yes" if without_g0 else "STALLED", "yes" if without_g1 else "STALLED", bumps_off],
    ]
    print("\n== Ablation: bump messages (global msg, final ts from remote group) ==")
    print(format_table(["variant", "delivered at g0", "delivered at g1", "bump msgs"], rows))

    # With bumps: delivered at both groups.
    assert with_g0 and with_g1
    assert bumps_on > 0
    # Without bumps: group 0 (which needs quorum-clock to pass the
    # remote timestamp) stalls forever; no bump traffic exists.
    assert not without_g0
    assert bumps_off == 0
