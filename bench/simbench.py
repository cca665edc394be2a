"""The simulator workload: the perf-smoke load point, timed run by run.

Equivalent to ``run_load_point("primcast", wan_colocated_leaders(), 2,
32, warmup_ms=300, measure_ms=400, compaction_interval_ms=0)`` — the
same ``build_system`` / ``make_clients`` / ``Scheduler.run`` calls, made
here so that set-up (``build_system``) is timed apart from the run, the
system stays reachable afterwards for the delivery logs, and the run can
be cut into slices of simulated time with the box's speed sampled
between them (bench/speed.py). Slicing changes neither the order of
events nor their number: event and wire-message counts are exact
functions of the seed, and bench/test_bench.py pins this function
against ``run_load_point``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, List, Tuple

from repro.harness.metrics import percentile
from repro.harness.runner import build_system
from repro.sim.rng import child_rng
from repro.workload.generator import make_clients
from repro.workload.scenarios import wan_colocated_leaders

from . import speed
from .check import DeliveryLog, MessageId
from .trace import at_speed, protocol_metrics, self_us
from .workloads import SIM_DESTS, SIM_OUTSTANDING, SIM_PROTOCOL

#: Simulated ms given to in-flight messages to finish after the timed
#: run, so that agreement can be checked at quiescence.
QUIESCE_MS = 2000.0
#: Simulated ms per timed slice (~30 ms of wall time at the load point).
SLICE_MS = 5.0


@dataclass
class SimRun:
    #: Seconds at the reference speed.
    build_s: float
    wall_s: float
    cpu_s: float
    #: (wall s, cpu s) of every slice, at the reference speed.
    slices: List[Tuple[float, float]]
    #: Reference-speed wall seconds per measured wall second.
    speed: float
    events: int
    wire_messages: int
    acks: int
    bumps: int
    #: Client-side samples delivered in the measure window per simulated second.
    delivered_throughput: float
    system: Any
    clients: List[Any]
    end_ms: float


def run_once(seed: int, warmup_ms: float, measure_ms: float) -> SimRun:
    """Build the system, then time the simulation of the load point."""
    with speed.Stopwatch() as build:
        system = build_system(
            SIM_PROTOCOL, wan_colocated_leaders(), seed=seed, compaction_interval_ms=0.0
        )
        clients = make_clients(
            system.replicas, SIM_DESTS, system.config.n_groups, SIM_OUTSTANDING,
            child_rng(seed, "workload"),
        )
    end_ms = warmup_ms + measure_ms
    for client in clients:
        client.start()
    slices = []  # (wall s, cpu s) at the reference speed, slice by slice
    raw_wall_s = now_ms = 0.0
    before = speed.tick()
    while now_ms < end_ms:
        now_ms = min(now_ms + SLICE_MS, end_ms)
        t0, c0 = time.perf_counter(), time.process_time()
        system.scheduler.run(until=now_ms)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = speed.tick()
        ref = (before + after) / 2
        before = after
        raw_wall_s += wall
        slices.append((wall * ref, cpu * ref))
    wall_s = sum(wall for wall, _ in slices)
    cpu_s = sum(cpu for _, cpu in slices)
    sampled = sum(
        1 for client in clients for _, when, _ in client.samples if warmup_ms <= when < end_ms
    )
    return SimRun(
        build_s=build.seconds,
        wall_s=wall_s,
        cpu_s=cpu_s,
        slices=slices,
        speed=wall_s / raw_wall_s,
        events=system.scheduler.events_processed,
        wire_messages=system.network.messages_sent,
        acks=system.network.counts_by_kind["ack"],
        bumps=system.network.counts_by_kind["bump"],
        delivered_throughput=sampled / (measure_ms / 1000.0),
        system=system,
        clients=clients,
        end_ms=end_ms,
    )


def median_run(runs: List[SimRun]) -> SimRun:
    """The runs of one seed execute the same events slice by slice, so
    the steadiest estimate of a run is slice-wise: every slice's median
    time over the runs, summed. A slice the box stalled in, or one whose
    two speed samples missed the stall, drops out."""
    wall_s = sum(statistics.median(walls) for walls in zip(*([w for w, _ in r.slices] for r in runs)))
    cpu_s = sum(statistics.median(cpus) for cpus in zip(*([c for _, c in r.slices] for r in runs)))
    return replace(
        runs[-1],
        build_s=statistics.median(r.build_s for r in runs),
        wall_s=wall_s,
        cpu_s=cpu_s,
        speed=statistics.median(r.speed for r in runs),
    )


@dataclass
class SimOutputs:
    """What the model produced, read off the delivery logs of one run."""

    #: Messages delivered at every destination process by the run's end.
    n_delivered_all: int
    #: Simulated ms from submission to the last destination's delivery,
    #: for messages completing inside the measure window.
    all_ms: List[float]
    self_ms: List[float]
    logs: Dict[int, DeliveryLog]
    dests_of: Dict[MessageId, FrozenSet[int]]


def outputs(run: SimRun, warmup_ms: float) -> SimOutputs:
    """Let in-flight messages finish (untimed), then join submissions
    with deliveries. Call once per run, after its counts were read."""
    system, end_ms = run.system, run.end_ms
    for client in run.clients:
        client.stop()
    system.scheduler.run(until=end_ms + QUIESCE_MS)
    logs = {pid: list(proc.delivery_log) for pid, proc in system.processes.items()}

    # A client records (pid, when, latency) in the same deliver hook
    # call that follows its replica's delivery_log.append, and only the
    # client submits through its replica: the replica's own-mid log
    # entries and the client's samples are the same events in order.
    submitted_at: Dict[MessageId, float] = {}
    self_ms: List[float] = []
    for client in run.clients:
        pid = client.replica.pid
        own = [entry for entry in logs[pid] if entry[0][0] == pid]
        if len(own) != len(client.samples):
            raise RuntimeError(f"client {pid}: {len(own)} own deliveries, {len(client.samples)} samples")
        for (mid, _, t), (_, when, lat) in zip(own, client.samples):
            if t != when:
                raise RuntimeError(f"client {pid}: log/sample mismatch at {mid}")
            submitted_at[mid] = when - lat
            if warmup_ms <= when < end_ms:
                self_ms.append(lat)

    dests_of: Dict[MessageId, FrozenSet[int]] = {}
    for proc in system.processes.values():
        for mid, multicast in proc.started.items():
            if mid in submitted_at:
                dests_of[mid] = multicast.dest
    missing: Dict[MessageId, int] = {
        mid: len(system.config.dest_pids(dests)) for mid, dests in dests_of.items()
    }
    last_at: Dict[MessageId, float] = {}
    for log in logs.values():
        for mid, _, t in log:
            if t <= end_ms and mid in missing:
                missing[mid] -= 1
                if t > last_at.get(mid, 0.0):
                    last_at[mid] = t
    complete = [mid for mid, left in missing.items() if left == 0]
    return SimOutputs(
        n_delivered_all=len(complete),
        all_ms=[
            last_at[mid] - submitted_at[mid] for mid in complete if last_at[mid] >= warmup_ms
        ],
        self_ms=self_ms,
        logs=logs,
        dests_of=dests_of,
    )


def run_metrics(run: SimRun, out: SimOutputs) -> Dict[str, float]:
    """End-to-end and count metrics of one timed run."""
    n = out.n_delivered_all
    return {
        "deliver_all_p50_ms": percentile(out.all_ms, 50),
        "cpu_ms_per_msg": run.cpu_s * 1000.0 / n,
        "msgs_per_s": n / run.wall_s,
        "driver.deliver_all_p90_ms": percentile(out.all_ms, 90),
        "driver.deliver_all_p99_ms": percentile(out.all_ms, 99),
        "driver.deliver_self_p50_ms": percentile(out.self_ms, 50),
        "driver.cpu_util": run.cpu_s / run.wall_s,
        "driver.speed": run.speed,
        "driver.cpu_ms_per_msg_raw": run.cpu_s / run.speed * 1000.0 / n,
        "core.acks_per_msg": run.acks / n,
        "core.bumps_per_msg": run.bumps / n,
        "sim.events": run.events,
        "sim.wire_messages": run.wire_messages,
        "sim.delivered_throughput": run.delivered_throughput,
        "sim.events_per_s": run.events / run.wall_s,
        "sim.run_wall_s": run.wall_s,
        "sim.build_system_s": run.build_s,
    }


def trace_metrics(totals: Dict[str, List[int]], run: SimRun, n: int) -> Dict[str, float]:
    """Per-layer self times of one traced simulator run, at the
    reference speed like ``run.cpu_s``."""
    totals = at_speed(totals, run.speed)
    out = protocol_metrics(totals, n, run.cpu_s)
    out["sim.transmit_self_us_per_event"] = self_us(totals, "sim.transmit", run.events)
    return out
