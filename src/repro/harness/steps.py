"""Communication-step measurements (empirical side of Table 1).

These helpers run crafted single-message (and crafted-convoy) executions
on the exact-Δ network of :func:`~repro.workload.scenarios.exact_network`
with zero-cost CPUs, so delivery times are exact multiples of the
communication step Δ and can be compared with the analytic model in
:mod:`repro.harness.analytic`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.messages import MessageId
from ..sim.clock import US_PER_MS
from ..sim.costs import zero_cost_model
from ..workload.scenarios import exact_network
from .runner import System, build_system


def build_bare_system(
    protocol: str,
    n_groups: int,
    group_size: int,
    delta_ms: float = 10.0,
    clock_offsets_ms: Optional[Dict[int, float]] = None,
) -> System:
    """A deployment on an exact-Δ network with free CPUs, no Ω and no
    state-GC daemon: Table 1's measurements, ``KvCluster``, the net
    differential's sim reference and ``examples/quickstart.py`` build
    it. It draws no randomness (constant links, ε = 0): no seed.

    ``clock_offsets_ms`` assigns adversarial physical-clock offsets to
    ``primcast-hc`` processes (pids not listed get offset 0); no other
    protocol has a physical clock to offset.
    """
    system = build_system(protocol, exact_network(n_groups, group_size, delta_ms),
                          seed=0, cost_model=zero_cost_model(), compaction_interval_ms=0.0)
    for pid, offset_ms in (clock_offsets_ms or {}).items():
        clock = getattr(system.processes[pid], "physical_clock", None)
        if clock is None:
            raise ValueError(f"{protocol!r} processes have no physical clock to offset")
        clock.offset_us = offset_ms * US_PER_MS
    return system


def _delivery_times(system: System, mid: MessageId) -> Dict[int, float]:
    """pid -> when ``mid`` was a-delivered there, read off every
    process's ``delivery_log`` (pids that never delivered it are absent)."""
    return {
        pid: when
        for pid, proc in system.processes.items()
        for logged, _final, when in proc.delivery_log
        if logged == mid
    }


def measure_collision_free(
    protocol: str,
    k: int,
    n_groups: int = 8,
    group_size: int = 3,
    delta_ms: float = 10.0,
) -> Dict[str, Any]:
    """One multicast to k groups with no concurrent traffic.

    Returns per-destination step counts, the worst (= the paper's
    delivery latency: time to the *last* destination's a-delivery), the
    leader-only worst case, and the wire-message count.
    """
    system = build_bare_system(protocol, n_groups, group_size, delta_ms)
    scheduler, config, network = system.scheduler, system.config, system.network
    sender = system.processes[config.members(0)[1 % group_size]]
    start_time = scheduler.now
    probe = sender.a_multicast(set(range(k)), payload="probe")
    scheduler.run(until=start_time + 40 * delta_ms)

    deliveries = _delivery_times(system, probe.mid)
    dest_pids = config.dest_pids(range(k))
    steps = {
        pid: round((deliveries[pid] - start_time) / delta_ms, 6)
        for pid in dest_pids
        if pid in deliveries
    }
    missing = [pid for pid in dest_pids if pid not in deliveries]
    leader_pids = {config.initial_leader(g) for g in range(k)}
    leader_steps = [s for pid, s in steps.items() if pid in leader_pids]
    return {
        "protocol": protocol,
        "k": k,
        "n": group_size,
        "steps_by_pid": steps,
        "max_steps": max(steps.values()) if steps else float("inf"),
        "max_leader_steps": max(leader_steps) if leader_steps else float("inf"),
        "missing": missing,
        "messages": sum(network.counts_by_kind.values()),
        "messages_by_kind": dict(network.counts_by_kind),
    }


def measure_primcast_convoy(
    hybrid: bool = False,
    delta_ms: float = 10.0,
    epsilon_ms: float = 1.0,
) -> Dict[str, float]:
    """Worst-case convoy measurement for PrimCast / PrimCast HC.

    Scenario (§3.2 / §6): message ``m`` to groups {0, 1} gets its final
    timestamp from group 1 (whose clock is higher). A conflicting local
    message ``m2`` is multicast *by group 0's primary itself* (zero
    network distance) at the end of the convoy window — just before
    group 0's primary learns the remote timestamp (plain PrimCast,
    window 2Δ) or just before its physical clock passes ``m``'s final
    timestamp (HC, window Δ + 2ε). ``m`` must then wait for ``m2``'s
    commit, pushing its delivery to ~C+D steps.

    Returns the measured latency of ``m`` in steps, the analytic bound,
    and the collision-free baseline.
    """
    protocol = "primcast-hc" if hybrid else "primcast"
    # Adversarial skew: group 1's primary runs epsilon fast, group 0's
    # epsilon slow (§6's worst case). Plain PrimCast has no clock to skew.
    offsets = {3: epsilon_ms, 0: -epsilon_ms} if hybrid else None
    system = build_bare_system(protocol, 2, 3, delta_ms, clock_offsets_ms=offsets)
    scheduler, config, processes = system.scheduler, system.config, system.processes

    p_g1 = processes[config.members(1)[0]]  # primary of group 1
    p_g0 = processes[config.members(0)[0]]  # primary of group 0
    sender = processes[config.members(1)[2]]  # a follower of group 1

    if not hybrid:
        # Raise group 1's logical clock so m's final timestamp comes
        # from group 1 (with hybrid clocks the skew does this instead).
        for _ in range(3):
            p_g1.a_multicast({1}, payload="warm")
        scheduler.run(until=20 * delta_ms)

    t0 = scheduler.now
    m = sender.a_multicast({0, 1}, payload="m")
    # End of the convoy window, minus a margin so m2 lands inside it.
    # m2 is issued by group 0's primary itself (zero distance to the
    # proposer — the latest possible smaller-timestamp proposal) and is
    # *global*, so its final timestamp is only known a full commit
    # latency (3 steps) after its multicast.
    margin = 0.05 * delta_ms
    if hybrid:
        window = delta_ms + 2 * epsilon_ms
    else:
        window = 2 * delta_ms
    m2_holder = {}

    def send_m2() -> None:
        m2_holder["m"] = p_g0.a_multicast({0, 1}, payload="m2")

    p_g0.post_job(send_m2, delay=window - margin)
    scheduler.run(until=t0 + 40 * delta_ms)

    m_deliveries = _delivery_times(system, m.mid)
    dest_pids = config.dest_pids({0, 1})
    latency_steps = max(m_deliveries[pid] - t0 for pid in dest_pids) / delta_ms
    analytic = (
        min(5.0, 4.0 + 2 * epsilon_ms / delta_ms) if hybrid else 5.0
    )
    return {
        "protocol": protocol,
        "measured_steps": round(latency_steps, 3),
        "analytic_steps": analytic,
        "collision_free_steps": 3.0,
        "window_steps": window / delta_ms,
    }
