#!/usr/bin/env python3
"""Quickstart: atomic multicast across two replica groups.

Builds the smallest interesting PrimCast deployment — two groups of
three replicas on a 1 ms network — multicasts a few messages (local and
global), and prints each replica's delivery log to show the partial
order: messages sharing a destination group are delivered in the same
relative order everywhere, and every delivery carries the same final
timestamp at every destination.

Run:
    python examples/quickstart.py
"""

from repro.harness.steps import build_bare_system


def main() -> None:
    # 1. The deployment: two disjoint groups of three PrimCast replicas
    #    on a network whose every link takes exactly 1 ms, free CPUs.
    system = build_bare_system("primcast", n_groups=2, group_size=3, delta_ms=1.0)
    config, replicas = system.config, system.processes
    print(f"deployment: {config}")
    print(f"  group 0 = {config.members(0)}, group 1 = {config.members(1)}")

    # 2. Multicast: two local messages and two global ones, from
    #    different senders.
    sent = [
        replicas[0].a_multicast({0}, payload="local to group 0"),
        replicas[4].a_multicast({0, 1}, payload="global A"),
        replicas[3].a_multicast({1}, payload="local to group 1"),
        replicas[1].a_multicast({0, 1}, payload="global B"),
    ]
    payload_of = {m.mid: m.payload for m in sent}

    # 3. Run the simulation to quiescence.
    system.scheduler.run(until=100.0)

    # 4. Show per-replica delivery orders: every replica logs
    #    (mid, final timestamp, sim time) per delivery.
    logs = {
        pid: [(payload_of[mid], final_ts, when) for mid, final_ts, when in replica.delivery_log]
        for pid, replica in replicas.items()
    }
    print("\ndelivery logs (payload, final timestamp, sim time ms):")
    for pid in sorted(logs):
        print(f"  replica {pid} (group {config.group_of[pid]}):")
        for payload, final_ts, when in logs[pid]:
            print(f"    t={when:6.3f}  ts={final_ts}  {payload!r}")

    # The two global messages appear in the same order at every replica.
    global_orders = {
        tuple(p for p, _, _ in logs[pid] if p.startswith("global"))
        for pid in logs
    }
    assert len(global_orders) == 1, "global messages must be totally ordered"
    print(f"\nglobal messages ordered identically everywhere: {global_orders.pop()}")


if __name__ == "__main__":
    main()
