"""Deployment scenarios (the paper's Table 2, and Table 1's network).

A :class:`Scenario` is the one description of a simulated deployment,
run knobs included; :func:`repro.harness.runner.build_system` reads it.

All three Table 2 scenarios deploy 8 groups of 3 replicas (configurable). WAN
latencies are emulated with a site RTT matrix and 5% standard deviation,
exactly as the paper does with Linux ``tc``:

=============================  =================  ====================
Scenario                       Cross-group RTT    Intra-group RTT
                               (between leaders)
=============================  =================  ====================
LAN                            0.09 ms            0.09 ms
WAN — colocated leaders        0.09 ms            60 / 76 / 130 ms
WAN — distributed leaders      90 ms              30 ms
=============================  =================  ====================

* *Colocated leaders*: 3 regions, each group has one replica per region,
  replica 0 (the leader) of every group in region 0 — so leaders talk at
  LAN latency while group-internal quorums pay WAN RTTs (values from the
  White-Box paper, which Table 2 cites).
* *Distributed leaders*: 8 regions of 3 datacenters; group g lives
  entirely in region g, one replica per datacenter. Leaders of different
  groups are 90 ms RTT apart — the convoy-effect stress test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from ..core.config import GroupConfig, uniform_groups
from ..sim.latency import ConstantLatency, JitteredLatency, LatencyModel, SiteMatrixLatency

#: RTT between two machines in the same datacenter (the paper's cluster).
LAN_RTT_MS = 0.09

#: Inter-region RTTs for the colocated-leaders scenario (from [20]).
COLOCATED_REGION_RTTS = (60.0, 76.0, 130.0)  # (r0-r1, r0-r2, r1-r2)

#: Distributed-leaders scenario RTTs.
DISTRIBUTED_CROSS_REGION_RTT_MS = 90.0
DISTRIBUTED_INTRA_REGION_RTT_MS = 30.0

#: Default clock skew bound for PrimCast HC (§6): 2ε ≈ an order of
#: magnitude below the cross-group communication step of the
#: distributed-leaders deployment (Δ = 45 ms one-way).
DEFAULT_EPSILON_MS = 2.0


def lan_latency(scenario: "Scenario", config: GroupConfig) -> LatencyModel:
    """Every process in one cluster."""
    return JitteredLatency(LAN_RTT_MS / 2.0, stddev_frac=0.05)


def colocated_latency(scenario: "Scenario", config: GroupConfig) -> LatencyModel:
    """3 regions; replica i of every group in region i."""
    r01, r02, r12 = COLOCATED_REGION_RTTS
    rtt = [
        [LAN_RTT_MS, r01, r02],
        [r01, LAN_RTT_MS, r12],
        [r02, r12, LAN_RTT_MS],
    ]
    site_of: Dict[int, int] = {}
    for gid in range(config.n_groups):
        for idx, pid in enumerate(config.members(gid)):
            site_of[pid] = idx % 3  # replica i of every group in region i
    return SiteMatrixLatency(site_of, rtt, stddev_frac=0.05)


def distributed_latency(scenario: "Scenario", config: GroupConfig) -> LatencyModel:
    """One region per group, one datacenter per replica."""
    n_regions = config.n_groups
    dcs_per_region = max(len(config.members(g)) for g in range(n_regions))
    n_sites = n_regions * dcs_per_region
    rtt = [[0.0] * n_sites for _ in range(n_sites)]
    for a in range(n_sites):
        for b in range(n_sites):
            if a == b:
                rtt[a][b] = LAN_RTT_MS
            elif a // dcs_per_region == b // dcs_per_region:
                rtt[a][b] = DISTRIBUTED_INTRA_REGION_RTT_MS
            else:
                rtt[a][b] = DISTRIBUTED_CROSS_REGION_RTT_MS
    site_of: Dict[int, int] = {}
    for gid in range(config.n_groups):
        for idx, pid in enumerate(config.members(gid)):
            site_of[pid] = gid * dcs_per_region + idx
    return SiteMatrixLatency(site_of, rtt, stddev_frac=0.05)


def exact_latency(scenario: "Scenario", config: GroupConfig) -> LatencyModel:
    """Every link is one step Δ, half the scenario's RTT, no jitter."""
    return ConstantLatency(scenario.cross_group_rtt_ms / 2.0)


#: Latency geometry name -> the function building its model.
GEOMETRIES: Dict[str, Callable[["Scenario", GroupConfig], LatencyModel]] = {
    "lan": lan_latency,
    "colocated": colocated_latency,
    "distributed": distributed_latency,
    "exact": exact_latency,
}


@dataclass(frozen=True)
class Scenario:
    """A deployment: groups, placement, latency geometry and run knobs.

    Every field is JSON-safe, so a scenario — a customized copy made
    with ``dataclasses.replace`` included — travels by value: a sweep
    spec carries it to worker processes and into its cache key.
    """

    name: str
    description: str
    n_groups: int
    group_size: int
    #: round-trip time between two group leaders (Table 2's "Cross-group
    #: RTT"); the ``exact`` geometry's step Δ is half of it
    cross_group_rtt_ms: float
    #: representative intra-group RTT(s) (for reporting)
    intra_group_rtt_ms: str
    #: placement and latency model, a key of :data:`GEOMETRIES`
    geometry: str
    #: clock skew bound used by the HC variant in this scenario
    epsilon_ms: float = DEFAULT_EPSILON_MS
    #: every PrimCast process runs a heartbeat Ω suspecting a group peer
    #: silent this long; None = static leaders and no heartbeat events
    suspect_ms: Optional[float] = None
    #: per-channel ack/bump coalescing window (§7.1 batching); 0 = off
    batching_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.geometry not in GEOMETRIES:
            raise ValueError(
                f"unknown geometry {self.geometry!r}; pick from {sorted(GEOMETRIES)}"
            )

    def make_config(self) -> GroupConfig:
        """Group membership for this scenario."""
        return uniform_groups(self.n_groups, self.group_size)

    def make_latency(self, config: GroupConfig) -> LatencyModel:
        """Latency model for this scenario's placement."""
        return GEOMETRIES[self.geometry](self, config)

    def table2_row(self) -> List[str]:
        """The scenario's Table 2 row."""
        return [
            self.name,
            f"{self.cross_group_rtt_ms}ms",
            self.intra_group_rtt_ms,
            self.description,
        ]


def lan_scenario(n_groups: int = 8, group_size: int = 3) -> Scenario:
    """Table 2, row 1: everything inside one cluster."""
    return Scenario(
        name="LAN",
        description=f"{n_groups} groups deployed inside a cluster.",
        n_groups=n_groups,
        group_size=group_size,
        cross_group_rtt_ms=LAN_RTT_MS,
        intra_group_rtt_ms=f"{LAN_RTT_MS}ms",
        geometry="lan",
        # In a LAN, synchronized clocks are far tighter than 2ms; the
        # convoy window is tiny anyway (§7.3).
        epsilon_ms=0.005,
    )


def lan_sustained(n_groups: int = 2, group_size: int = 3) -> Scenario:
    """LAN geometry sized for sustained steady-state runs.

    Same latency model and skew bound as :func:`lan_scenario`, but
    defaulting to a small 2×3 deployment: steady-state memory
    experiments run roughly 10× longer than a figure load point, and the
    interesting quantity — per-process state growth vs the state-GC
    watermark — is independent of group count."""
    return replace(
        lan_scenario(n_groups, group_size),
        name="LAN - sustained",
        description=f"{n_groups} groups inside a cluster, sized for "
        "long steady-state (memory/GC) runs.",
    )


def wan_colocated_leaders(n_groups: int = 8, group_size: int = 3) -> Scenario:
    """Table 2, row 2: 3 regions, leaders share a region."""
    return Scenario(
        name="WAN - colocated leaders",
        description=f"3 regions, each of the {n_groups} groups deployed across them.",
        n_groups=n_groups,
        group_size=group_size,
        cross_group_rtt_ms=LAN_RTT_MS,
        intra_group_rtt_ms="60ms, 76ms, 130ms",
        geometry="colocated",
    )


def wan_distributed_leaders(n_groups: int = 8, group_size: int = 3) -> Scenario:
    """Table 2, row 3: 8 regions, one group per region."""
    return Scenario(
        name="WAN - distributed leaders",
        description=f"{n_groups} regions, each with {group_size} datacenters. "
        "Each group deployed in its own region.",
        n_groups=n_groups,
        group_size=group_size,
        cross_group_rtt_ms=DISTRIBUTED_CROSS_REGION_RTT_MS,
        intra_group_rtt_ms=f"{DISTRIBUTED_INTRA_REGION_RTT_MS}ms",
        geometry="distributed",
    )


def exact_network(n_groups: int = 2, group_size: int = 3, delta_ms: float = 1.0) -> Scenario:
    """Table 1's network: every link is one step ``delta_ms``, no jitter, ε = 0."""
    return Scenario(
        name="Exact",
        description=f"{n_groups} groups, every link exactly {delta_ms}ms one way.",
        n_groups=n_groups,
        group_size=group_size,
        cross_group_rtt_ms=2.0 * delta_ms,
        intra_group_rtt_ms=f"{2.0 * delta_ms}ms",
        geometry="exact",
        epsilon_ms=0.0,
    )


def all_scenarios() -> List[Scenario]:
    """The three Table 2 scenarios at paper scale (8 groups × 3)."""
    return [lan_scenario(), wan_colocated_leaders(), wan_distributed_leaders()]
