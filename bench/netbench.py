"""The loopback-cluster workloads: six NetNodes on this process's loop.

One process, one thread, one ``time.perf_counter`` clock for all six
nodes — so latency to the *last* destination process is measurable. The
wire is the host loopback (real TCP, full mesh, 30 connections, all the
program's own): latency here is CPU time plus event-loop queueing, not a
network.

The nodes boot from a topology with ``n_messages=0``: their built-in
driver is idle, every node reports ``done`` at once and keeps serving
until ``STOP``. Load is submitted through the public seam
``proc.post_job(lambda: proc.a_multicast(dests, payload))`` and observed
through ``proc.add_deliver_hook``.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.harness.metrics import percentile
from repro.net.cluster import ClusterSpec, make_topology
from repro.net.host import NetNode, NodeResult

from . import speed
from .check import DeliveryLog, MessageId
from .trace import Tracer, at_speed, protocol_metrics, self_us, window_totals
from .workloads import (
    GROUP_SIZE,
    MAX_OUTSTANDING,
    N_GROUPS,
    Workload,
    closed_plan,
    open_plan,
    payload,
    payload_base,
)

#: Discarded start of every run (connections warm, caches filled).
WARMUP_S = 2.0
#: Undelivered after this long past the measured window = failed.
DRAIN_S = 10.0
#: Event-loop lag probe period.
LAG_TICK_S = 0.01
#: Ω suspicion timeout, ten times the program's default: six nodes share
#: one loop on a shared box, and a stall of the whole loop past 500 ms
#: (seen here) would otherwise be read by every node as a dead leader.
SUSPECT_MS = 5000.0


# ----------------------------------------------------------------------
# cluster lifecycle
# ----------------------------------------------------------------------


class Cluster:
    """Six nodes on the running loop, driven through NetNode's own
    file barriers (ready-* -> GO, done-* -> STOP)."""

    def __init__(self, workload: Workload, seed: int, rundir: Path) -> None:
        spec = ClusterSpec(
            n_groups=N_GROUPS,
            group_size=GROUP_SIZE,
            n_messages=0,
            seed=seed,
            driver_mode="open",
            codec="binary",
            coalesce=True,
            batching_ms=workload.batching_ms,
            suspect_ms=SUSPECT_MS,
            run_timeout_s=3600.0,
        )
        self.topology = make_topology(spec)
        self.config = self.topology.make_config()
        self.rundir = rundir
        rundir.mkdir(parents=True)
        self.nodes = {
            pid: NetNode(self.topology, pid, rundir) for pid in sorted(self.config.group_of)
        }
        self.tasks: Dict[int, "asyncio.Task[NodeResult]"] = {}
        #: Ω outputs after the initial one (leader changes = suspicions).
        self.suspicions = 0

    async def _await_files(self, prefix: str, timeout_s: float = 30.0) -> None:
        paths = [self.rundir / f"{prefix}-{pid}" for pid in self.nodes]
        deadline = time.perf_counter() + timeout_s
        while not all(p.exists() for p in paths):
            for pid, task in self.tasks.items():
                if task.done():
                    raise RuntimeError(f"node {pid} ended during {prefix} barrier: {task.result()}")
            if time.perf_counter() > deadline:
                raise TimeoutError(f"timed out waiting for {prefix} barrier")
            await asyncio.sleep(0.002)

    async def boot(self) -> None:
        """Bind, full-mesh connect, start Ω; returns with every node serving."""
        self.tasks = {pid: asyncio.create_task(node.run()) for pid, node in self.nodes.items()}
        await self._await_files("ready")
        (self.rundir / "GO").write_text("go\n")
        await self._await_files("done")
        for node in self.nodes.values():
            node.omega.subscribe(self._on_leader)
        self.suspicions = 0  # subscribe() fired once per node with the initial output

    def _on_leader(self, gid: int, leader: int) -> None:
        self.suspicions += 1

    async def stop(self) -> None:
        (self.rundir / "STOP").write_text("stop\n")
        for task in self.tasks.values():
            await task

    def counters(self) -> "Counter[str]":
        """Work counts summed over the six nodes (all monotone)."""
        c: "Counter[str]" = Counter()
        group_of = self.config.group_of
        for node in self.nodes.values():
            transport = node._transport
            for peer_pid, conn in transport.peers.items():
                c["frames"] += conn.frames_sent
                c["writes"] += conn.writes
                c["bytes"] += conn.bytes_sent
                c["reconnects"] += conn.reconnects
                if group_of[peer_pid] != node.gid:
                    c["cross_group_frames"] += conn.frames_sent
            c["overload_events"] += transport.overload_events
            c["sched_events"] += node.runtime.net_scheduler.events_processed
            c["batches"] += node.proc.rm.batches_sent
            c["batched_payloads"] += node.proc.rm.batched_payloads
            c["epoch_changes"] += node._epochs_seen
        c["suspicions"] = self.suspicions
        return c

    def logs(self) -> Dict[int, DeliveryLog]:
        return {pid: list(node.proc.delivery_log) for pid, node in self.nodes.items()}


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------


class Tracker:
    """Joins submissions with deliveries at every destination process."""

    def __init__(self, cluster: Cluster, rss_at_msgs: int) -> None:
        self.config = cluster.config
        #: ``ru_maxrss`` (KiB) read when this many messages were done.
        self.rss_at_msgs = rss_at_msgs
        self.rss_kb = 0
        #: mid -> [due (perf_counter s), deliveries still missing, self-delivery ms]
        self.inflight: Dict[MessageId, List[float]] = {}
        #: (completion time, due->last destination ms, due->submitter's own delivery ms)
        self.done: List[Tuple[float, float, float]] = []
        self.dests_of: Dict[MessageId, FrozenSet[int]] = {}
        #: Submissions handed to a process's job queue (they get a mid,
        #: and enter ``inflight``, only when the job runs).
        self.posted = 0
        #: Closed loop: called with the pid whose own message it just delivered.
        self.on_self_deliver: Optional[Any] = None
        for node in cluster.nodes.values():
            node.proc.add_deliver_hook(self._on_deliver)

    def post(self, proc: Any, due: float, dests: FrozenSet[int], data: str) -> None:
        """Submit through the public seam: a job on ``proc``'s CPU queue
        (``a_multicast`` must never run inside a handler)."""
        self.posted += 1
        proc.post_job(lambda: self._submit(proc, due, dests, data))

    def _submit(self, proc: Any, due: float, dests: FrozenSet[int], data: str) -> None:
        multicast = proc.a_multicast(dests, data)
        self.inflight[multicast.mid] = [due, len(self.config.dest_pids(dests)), 0.0]
        self.dests_of[multicast.mid] = dests

    def _on_deliver(self, proc: Any, multicast: Any, final_ts: int) -> None:
        now = time.perf_counter()
        mid = multicast.mid
        rec = self.inflight.get(mid)
        if rec is None:
            return  # a duplicate: the checker reports it
        if proc.pid == mid[0]:
            rec[2] = (now - rec[0]) * 1000.0
            if self.on_self_deliver is not None:
                self.on_self_deliver(proc.pid)
        rec[1] -= 1
        if rec[1] == 0:
            del self.inflight[mid]
            self.done.append((now, (now - rec[0]) * 1000.0, rec[2]))
            if len(self.done) == self.rss_at_msgs:
                self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class OpenLoad:
    """Open loop: fire each planned arrival at its due time, however
    busy the system is; latency counts from the due time."""

    def __init__(self, cluster: Cluster, tracker: Tracker, workload: Workload,
                 seed: int, horizon_s: float) -> None:
        self.procs = {pid: node.proc for pid, node in cluster.nodes.items()}
        self.tracker = tracker
        self.plan = open_plan(workload, seed, horizon_s)
        self.base = payload_base(workload, seed)
        self.loop = asyncio.get_running_loop()
        self.stopped = False
        self.backlog = False
        #: (due, how late the generator fired, s)
        self.lates: List[Tuple[float, float]] = []

    def start(self, t0_loop: float, t0_perf: float) -> None:
        self.t0_loop, self.t0_perf = t0_loop, t0_perf
        self._arm(0)

    def _arm(self, i: int) -> None:
        if i < len(self.plan) and not self.stopped:
            self.loop.call_at(self.t0_loop + self.plan[i][0], self._fire, i)

    def _fire(self, i: int) -> None:
        if self.stopped:
            return
        due_s, pid, dests = self.plan[i]
        due = self.t0_perf + due_s
        self.lates.append((due, time.perf_counter() - due))
        if self.tracker.posted - len(self.tracker.done) > MAX_OUTSTANDING:
            self.backlog = self.stopped = True
            return
        self.tracker.post(self.procs[pid], due, dests, payload(self.base, i))
        self._arm(i + 1)

    def stop(self) -> None:
        self.stopped = True


class ClosedLoad:
    """Closed loop: one client per pid keeps ``window`` messages
    outstanding; its own process a-delivering one releases the next."""

    def __init__(self, cluster: Cluster, tracker: Tracker, workload: Workload,
                 seed: int) -> None:
        self.procs = {pid: node.proc for pid, node in cluster.nodes.items()}
        self.tracker = tracker
        self.window = workload.window
        self.plans = {pid: closed_plan(workload, seed, pid) for pid in self.procs}
        self.base = payload_base(workload, seed)
        self.stopped = False
        self.backlog = False
        self.lates: List[Tuple[float, float]] = []
        tracker.on_self_deliver = self._post

    def start(self, t0_loop: float, t0_perf: float) -> None:
        for pid in self.procs:
            for _ in range(self.window):
                self._post(pid)

    def _post(self, pid: int) -> None:
        if self.stopped:
            return
        data = payload(self.base, self.tracker.posted)
        self.tracker.post(self.procs[pid], time.perf_counter(), next(self.plans[pid]), data)

    def stop(self) -> None:
        self.stopped = True


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


@dataclass
class Sample:
    """State at one instant: both clocks, the work counters, the trace totals."""

    t: float
    cpu: float
    counters: "Counter[str]"
    trace: Any = None


@dataclass
class Measured:
    """One measured run: per-segment samples plus everything the report
    and the checker need."""

    #: (segment start sample, segment end sample), in order.
    segments: List[Tuple[Sample, Sample]]
    done: List[Tuple[float, float, float]]
    lates: List[Tuple[float, float]]
    loop_lag_max_ms: float
    gc_pause_max_ms: float
    logs: Dict[int, DeliveryLog]
    dests_of: Dict[MessageId, FrozenSet[int]]
    backlog: bool
    #: Submissions posted (every one of them should be in ``dests_of``).
    posted: int
    #: Peak resident KiB at the workload's memory reading point.
    rss_kb: int
    #: The box's speed through the run (see bench/speed.py).
    ticker: speed.Ticker
    #: A closed loop's rate is set by the CPU, an open loop's by its plan.
    closed: bool
    config: Any = field(repr=False, default=None)


async def measure(cluster: Cluster, workload: Workload, seed: int, seconds: float,
                  n_segments: int, tracer: Optional[Tracer] = None) -> Measured:
    """Warm up, measure ``n_segments`` equal segments over ``seconds``,
    drain, collect.

    The heap grows with every message (delivery logs, the checker's
    inputs), and a full collection over it costs up to 0.8 s by the end
    of a saturated run — a stall of all six nodes that belongs to the
    run's length, not to the program. ``gc.freeze()`` at every segment
    boundary takes what exists out of the collector's reach, so a full
    collection inside a segment scans that segment's objects only; the
    young generations run as always.
    """
    loop = asyncio.get_running_loop()
    tracker = Tracker(cluster, workload.rss_at_msgs)
    horizon = WARMUP_S + seconds
    if workload.loop == "open":
        load: Any = OpenLoad(cluster, tracker, workload, seed, horizon)
    else:
        load = ClosedLoad(cluster, tracker, workload, seed)

    marks: List[Sample] = []
    finished: "asyncio.Future[None]" = loop.create_future()

    def boundary(k: int) -> None:
        gc.freeze()
        marks.append(Sample(time.perf_counter(), time.process_time(), cluster.counters(),
                            tracer.snapshot() if tracer else None))
        if k == n_segments:
            load.stop()
            finished.set_result(None)

    lag = {"expected": 0.0, "max": 0.0, "on": True}

    def tick() -> None:
        now = loop.time()
        if marks and not finished.done():
            lag["max"] = max(lag["max"], now - lag["expected"])
        if lag["on"]:
            lag["expected"] = now + LAG_TICK_S
            loop.call_at(lag["expected"], tick)

    gc_pause = {"start": 0.0, "max": 0.0}

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        if info["generation"] == 2 and marks and not finished.done():
            if phase == "start":
                gc_pause["start"] = time.perf_counter()
            elif gc_pause["start"]:
                gc_pause["max"] = max(gc_pause["max"], time.perf_counter() - gc_pause["start"])
                gc_pause["start"] = 0.0

    gc.collect()
    ticker = speed.Ticker()
    t0_loop = loop.time() + 0.05
    t0_perf = time.perf_counter() + 0.05
    for k in range(n_segments + 1):
        loop.call_at(t0_loop + WARMUP_S + seconds * k / n_segments, boundary, k)
    lag["expected"] = t0_loop
    loop.call_at(t0_loop, tick)
    gc.callbacks.append(on_gc)
    try:
        load.start(t0_loop, t0_perf)
        await finished
        deadline = time.perf_counter() + DRAIN_S
        while len(tracker.done) < tracker.posted and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
    finally:
        gc.callbacks.remove(on_gc)
        gc.unfreeze()
        lag["on"] = False
        load.stop()
        ticker.stop()
    return Measured(
        segments=list(zip(marks, marks[1:])),
        done=tracker.done,
        lates=load.lates,
        loop_lag_max_ms=lag["max"] * 1000.0,
        gc_pause_max_ms=gc_pause["max"] * 1000.0,
        logs=cluster.logs(),
        dests_of=tracker.dests_of,
        backlog=load.backlog,
        posted=tracker.posted,
        rss_kb=tracker.rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        ticker=ticker,
        closed=workload.loop == "closed",
        config=cluster.config,
    )


def segment_metrics(m: Measured, start: Sample, end: Sample) -> Optional[Dict[str, float]]:
    """End-to-end and count metrics of one segment (messages are
    attributed to the segment in which their last destination delivered).
    Times are scaled to the reference speed, and so is a closed loop's
    rate; the ``driver.`` values describe the run and stay as measured.
    None if no message completed in it (the box stalled right through)."""
    rows = [row for row in m.done if start.t <= row[0] < end.t]
    n = len(rows)
    if n == 0:
        return None
    wall = end.t - start.t
    cpu = end.cpu - start.cpu
    c = end.counters - start.counters  # Counter subtraction drops zero counts
    ref = m.ticker.speed(start.t, end.t)
    all_ms = [row[1] for row in rows]
    lates = [late * 1000.0 for due, late in m.lates if start.t <= due < end.t]
    out = {
        "deliver_all_p50_ms": percentile(all_ms, 50) * ref,
        "cpu_ms_per_msg": cpu * 1000.0 / n * ref,
        "msgs_per_s": n / wall / (ref if m.closed else 1.0),
        "driver.speed": ref,
        "driver.cpu_ms_per_msg_raw": cpu * 1000.0 / n,
        "driver.deliver_all_p90_ms": percentile(all_ms, 90),
        "driver.deliver_all_p99_ms": percentile(all_ms, 99),
        "driver.deliver_self_p50_ms": percentile([row[2] for row in rows], 50),
        "driver.cpu_util": cpu / wall,
        "driver.late_p99_ms": percentile(lates, 99) if lates else 0.0,
        "transport.frames_per_msg": c["frames"] / n,
        "transport.writes_per_msg": c["writes"] / n,
        "transport.frames_per_write": c["frames"] / c["writes"] if c["writes"] else 0.0,
        "transport.bytes_per_msg": c["bytes"] / n,
        "codec.bytes_per_frame": c["bytes"] / c["frames"] if c["frames"] else 0.0,
        "transport.reconnects": c["reconnects"],
        "transport.overload_events": c["overload_events"],
        "transport.cross_group_frames": c["cross_group_frames"],
        "host.sched_events_per_msg": c["sched_events"] / n,
        "rmcast.envelopes_per_batch": (
            c["batched_payloads"] / c["batches"] if c["batches"] else 0.0
        ),
        "core.epoch_changes": c["epoch_changes"],
        "election.suspicions": c["suspicions"],
    }
    if end.trace is not None:
        out.update(_trace_metrics(start, end, n, wall, cpu, ref))
    return out


def _trace_metrics(start: Sample, end: Sample, n: int, wall: float, cpu: float,
                   ref: float) -> Dict[str, float]:
    totals, counts = window_totals(start.trace, end.trace)
    totals = at_speed(totals, ref)
    encodes = totals.get("codec.encode", [0])[0]
    # Every staged frame is a protocol frame (encoded once) or a heartbeat.
    hb_frames = totals.get("transport.send", [0])[0] - encodes
    out = protocol_metrics(totals, n, cpu * ref)
    out.update({
        "codec.encode_self_us_per_msg": self_us(totals, "codec.encode", n),
        "codec.decode_self_us_per_msg": self_us(totals, "codec.decode", n),
        "codec.encode_calls_per_msg": encodes / n,
        "transport.send_self_us_per_msg": self_us(totals, "transport.send", n),
        "transport.write_self_us_per_msg": self_us(totals, "transport.write", n),
        "host.drain_self_us_per_msg": self_us(totals, "host.drain", n),
        "host.transmit_self_us_per_msg": self_us(totals, "host.transmit", n),
        "core.acks_per_msg": counts.get("ack", 0) / n,
        "core.bumps_per_msg": counts.get("bump", 0) / n,
        "rmcast.payload_copies_per_msg": counts.get("payload_copies", 0) / n,
        "election.hb_frames_per_s": hb_frames / wall,
        "asyncio.loop_self_us_per_msg": self_us(totals, "asyncio.loop", n),
        "asyncio.sock_write_self_us_per_msg": self_us(totals, "asyncio.sock_write", n),
        "asyncio.sock_read_self_us_per_msg": self_us(totals, "asyncio.sock_read", n),
    })
    return out
