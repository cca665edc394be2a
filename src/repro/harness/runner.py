"""Experiment runner: build a system, drive a workload, collect stats.

The runner is the glue between the substrates: it instantiates a
scenario (Table 2), one protocol process per replica, loosely
synchronized clocks for the HC variant, closed-loop clients, and runs the
simulation for a warmup + measurement window. Throughput counts each
client message once (at its issuing client); latency is measured at the
client, from submission to a-delivery at its replica — both exactly as
§7.2 defines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Set, Tuple

from ..baselines.fastcast import FastCastProcess
from ..baselines.whitebox import WhiteBoxProcess
from ..core.config import GroupConfig
from ..core.gc import (
    DEFAULT_COMPACTION_INTERVAL_MS,
    CompactionDaemon,
    attach_compaction,
)
from ..core.process import PrimCastProcess
from ..election.omega import HeartbeatOmega, attach_omegas
from ..sim.clock import PhysicalClock, make_clocks
from ..sim.costs import CostModel, default_cost_model
from ..sim.events import Scheduler
from ..sim.network import Network
from ..sim.rng import child_rng
from ..workload.generator import make_clients
from ..workload.scenarios import Scenario
from .metrics import summarize

if TYPE_CHECKING:
    from ..net.runtime import SchedulerAPI, TransportAPI

#: The protocol table: name -> process class, in the figures' curve
#: order. ``primcast-hc`` is PrimCast with the §6 hybrid clocks.
PROTOCOLS: Dict[str, type] = {
    "whitebox": WhiteBoxProcess,
    "fastcast": FastCastProcess,
    "primcast": PrimCastProcess,
    "primcast-hc": PrimCastProcess,
}


def make_processes(
    protocol: str,
    config: GroupConfig,
    scheduler: "SchedulerAPI",
    network: "TransportAPI",
    costs: Optional[CostModel],
    clocks: Optional[Mapping[int, PhysicalClock]],
    batching_ms: float = 0.0,
) -> Dict[int, Any]:
    """One process of ``protocol`` per pid of ``config``, in pid order.

    ``clocks`` are the physical clocks ``primcast-hc`` requires (§6: HC
    is PrimCast with a clock); every other protocol gets none.
    """
    try:
        cls = PROTOCOLS[protocol]
    except KeyError:
        raise ValueError(
            f"unknown protocol {protocol!r}; pick from {tuple(PROTOCOLS)}"
        ) from None
    if protocol != "primcast-hc":
        return {
            pid: cls(pid, config, scheduler, network, costs, batching_ms=batching_ms)
            for pid in config.all_pids
        }
    if clocks is None:
        raise ValueError(f"{protocol!r} needs a physical clock per process")
    return {
        pid: cls(
            pid, config, scheduler, network, costs,
            physical_clock=clocks[pid], batching_ms=batching_ms,
        )
        for pid in config.all_pids
    }


@dataclass
class System:
    """A fully wired simulated deployment."""

    protocol: str
    scenario: Scenario
    scheduler: Scheduler
    network: Network
    config: GroupConfig
    processes: Dict[int, Any]
    #: pid -> its Ω (scenarios that set ``suspect_ms`` only)
    oracles: Optional[Dict[int, HeartbeatOmega]] = None
    #: periodic state-GC driver (PrimCast protocols, interval > 0 only)
    compaction: Optional[CompactionDaemon] = None

    @property
    def replicas(self) -> List[Any]:
        return [self.processes[pid] for pid in self.config.all_pids]


def build_system(
    protocol: str,
    scenario: Scenario,
    seed: int = 1,
    cost_model: Optional[CostModel] = None,
    compaction_interval_ms: float = DEFAULT_COMPACTION_INTERVAL_MS,
) -> System:
    """Instantiate one protocol deployment on one scenario: the one place
    a simulated scheduler, network and processes are wired.

    The scenario supplies the latency model, ε, the batching window and
    ``suspect_ms``, which attaches a heartbeat Ω to every PrimCast
    process (:func:`repro.election.attach_omegas`; heartbeats are sim
    messages, so partitions and delay windows reach Ω).

    Args:
        protocol: one of :data:`PROTOCOLS`.
        seed: root seed; all randomness derives from it.
        cost_model: CPU cost model (defaults to the calibrated one).
        compaction_interval_ms: periodic state-GC sweep interval for the
            PrimCast protocols (default on). 0 disables compaction;
            delivery order and timestamps are bit-identical either way —
            only the scheduler's event count differs (one timer event
            per sweep). Like Ω's rounds, an armed daemon keeps the event
            heap non-empty, so drive such systems with
            ``scheduler.run(until=...)``.
    """
    config = scenario.make_config()
    scheduler = Scheduler()
    network = Network(
        scheduler, scenario.make_latency(config), child_rng(seed, "latency")
    )
    costs = cost_model if cost_model is not None else default_cost_model()
    clocks = None
    if protocol == "primcast-hc":
        clocks = make_clocks(
            scheduler, config.all_pids, scenario.epsilon_ms, child_rng(seed, "clock-skew")
        )
    processes = make_processes(
        protocol, config, scheduler, network, costs, clocks, scenario.batching_ms
    )
    oracles: Optional[Dict[int, HeartbeatOmega]] = None
    compaction: Optional[CompactionDaemon] = None
    if issubclass(PROTOCOLS[protocol], PrimCastProcess):
        if scenario.suspect_ms is not None:
            oracles = attach_omegas(processes, scenario.suspect_ms)
        if compaction_interval_ms > 0.0:
            compaction = attach_compaction(
                scheduler, processes, compaction_interval_ms
            )

    return System(
        protocol, scenario, scheduler, network, config, processes, oracles, compaction
    )


@dataclass
class RunResult:
    """Aggregated outcome of one load point."""

    protocol: str
    scenario: str
    n_dest_groups: int
    outstanding: int
    #: delivered client messages per second (each counted once)
    throughput: float
    #: latency stats in ms over all clients (mean/p50/p95/p99/count)
    latency: Dict[str, float]
    #: per-sample latencies (client pid, deliver time, latency ms)
    samples: List[Tuple[int, float, float]] = field(repr=False, default_factory=list)
    #: wire messages by kind over the whole run
    message_counts: Dict[str, int] = field(default_factory=dict)
    events: int = 0

    @property
    def throughput_kmsgs(self) -> float:
        """Throughput in thousands of msg/s (the paper's x axis)."""
        return self.throughput / 1000.0

    def latencies_for(self, pids: Set[int]) -> List[float]:
        """Latency samples restricted to clients at the given replicas
        (used to isolate White-Box leader deliveries in Fig 5)."""
        return [lat for pid, _, lat in self.samples if pid in pids]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict capturing every field exactly.

        The shared serialization for the result cache and ``export.py``;
        floats survive a JSON round trip bit-exactly
        (``json`` emits ``repr``-precision), so
        ``RunResult.from_dict(r.to_dict()) == r``.
        """
        return {
            "protocol": self.protocol,
            "scenario": self.scenario,
            "n_dest_groups": self.n_dest_groups,
            "outstanding": self.outstanding,
            "throughput": self.throughput,
            "latency": dict(self.latency),
            "samples": [[pid, when, lat] for pid, when, lat in self.samples],
            "message_counts": dict(self.message_counts),
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict` (JSON lists become sample tuples)."""
        return cls(
            protocol=data["protocol"],
            scenario=data["scenario"],
            n_dest_groups=data["n_dest_groups"],
            outstanding=data["outstanding"],
            throughput=data["throughput"],
            latency=dict(data["latency"]),
            samples=[(pid, when, lat) for pid, when, lat in data["samples"]],
            message_counts=dict(data["message_counts"]),
            events=data["events"],
        )


def run_load_point(
    protocol: str,
    scenario: Scenario,
    n_dest_groups: int,
    outstanding: int,
    seed: int = 1,
    warmup_ms: float = 500.0,
    measure_ms: float = 1000.0,
    cost_model: Optional[CostModel] = None,
    keep_samples: bool = True,
    compaction_interval_ms: float = DEFAULT_COMPACTION_INTERVAL_MS,
) -> RunResult:
    """Run one (protocol, scenario, destinations, load) point.

    Clients issue messages from t=0; samples delivered inside
    ``[warmup_ms, warmup_ms + measure_ms)`` are counted. A negative
    ``warmup_ms`` or a ``measure_ms`` of 0 or below (or either not
    finite) is a ``ValueError``.
    """
    if not 0.0 <= warmup_ms < math.inf:
        raise ValueError(f"warmup_ms must be finite and >= 0, got {warmup_ms}")
    if not 0.0 < measure_ms < math.inf:
        raise ValueError(f"measure_ms must be finite and > 0, got {measure_ms}")
    system = build_system(
        protocol,
        scenario,
        seed=seed,
        cost_model=cost_model,
        compaction_interval_ms=compaction_interval_ms,
    )
    rng = child_rng(seed, "workload")
    clients = make_clients(
        system.replicas,
        n_dest_groups,
        system.config.n_groups,
        outstanding,
        rng,
    )
    for client in clients:
        client.start()
    end = warmup_ms + measure_ms
    system.scheduler.run(until=end)
    for client in clients:
        client.stop()

    # Latencies are collected unconditionally (the summary needs them);
    # the per-sample (pid, when, lat) tuples only when the caller asked
    # — at high load a full sweep would otherwise hold every sample of
    # every point in memory just to throw them away.
    samples: List[Tuple[int, float, float]] = []
    latencies: List[float] = []
    for client in clients:
        for pid, when, lat in client.samples:
            if warmup_ms <= when < end:
                latencies.append(lat)
                if keep_samples:
                    samples.append((pid, when, lat))
    return RunResult(
        protocol=protocol,
        scenario=scenario.name,
        n_dest_groups=n_dest_groups,
        outstanding=outstanding,
        throughput=len(latencies) / (measure_ms / 1000.0),
        latency=summarize(latencies),
        samples=samples,
        message_counts=dict(system.network.counts_by_kind),
        events=system.scheduler.events_processed,
    )
