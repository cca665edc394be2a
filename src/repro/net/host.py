"""The asyncio adapter: unmodified protocol processes on a real event loop.

The protocol core consumes the substrate exclusively through the
:class:`~repro.net.runtime.SchedulerAPI` / ``TransportAPI`` seam. This
module implements both halves over asyncio:

* :class:`NetScheduler` — time is ``(loop.time() - t0) * 1000`` ms
  (monotonic, per-node), read once per drain and standing still inside
  it; ``call_after`` arms a real ``loop.call_later``
  timer; the seam's allocation-free heap (``_heap`` / ``_seq``) is a
  real heap that :meth:`NetScheduler.drain` runs to empty after every
  external stimulus. With the zero-cost CPU model every entry the
  process pushes is due immediately, so draining preserves the exact
  *relative* order the sim would execute — and because the drain loop
  runs each callback to completion on the single-threaded event loop,
  per-process **handler atomicity** (the RACE202 standing-proposal
  contract, DESIGN.md §10/§12) holds exactly as it does on the
  simulator's event loop.
* :class:`TransportFacade` — ``transmit`` delivers self-addressed
  messages synchronously (the sim's zero-latency self-channel) and
  encodes everything else onto the per-peer TCP connection
  (:mod:`repro.net.transport`); per-channel FIFO comes from TCP.

:class:`NetNode` assembles one protocol process with its facades,
heartbeat oracle, delivery log and workload driver — one node per OS
process under the cluster launcher (:mod:`repro.net.cluster`), or many
nodes on one loop in the in-process differential tests.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from collections import Counter

from ..core.config import GroupConfig
from ..core.process import PrimCastProcess
from ..sim.costs import CostModel
from ..sim.rng import child_rng
from .codec import encode_hb_frame, encode_msg_frame
from .election import DEFAULT_HB_INTERVAL_MS, DEFAULT_SUSPECT_MS, HeartbeatOmega
from .runtime import Runtime, SchedulerAPI, TransportAPI
from .transport import Transport
from .workload import (
    expected_count,
    make_client_plans,
    make_workload,
    plans_expected_count,
)

#: Node exit codes (the launcher interprets these).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 3


class _LoopTimerHandle:
    """Cancellable handle over ``loop.call_later`` (TimerHandle shape)."""

    __slots__ = ("_handle", "cancelled")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._handle.cancel()


class NetScheduler:
    """SchedulerAPI over an asyncio loop with a monotonic ms clock.

    Processes push service events into ``_heap`` (the seam's fast
    path); :meth:`drain` pops and runs them in ``(time, seq)`` order.
    Under the zero-cost CPU model every pushed entry is due at ``now``,
    so a drain runs the node's whole causal cascade — receive, handle,
    transmit — to quiescence before the event loop regains control,
    which is precisely the sim's run-to-completion discipline.

    Time stands still inside a drain, as it does inside a simulator
    event: :meth:`drain` reads ``loop.time()`` once and :attr:`now`
    returns that reading until the drain ends, so the whole cascade —
    every ``busy_until``, submit and delivery stamp in it — sees one
    instant (and pays one clock read, not one per handler). Timers do
    not go through ``now``: ``call_after`` hands its delay to
    ``loop.call_later``, which measures it on the real loop clock.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._t0 = loop.time()
        self._heap: List[Tuple[float, int, Any, Any]] = []
        self._seq = 0
        #: The running drain's reading of the clock; None between drains.
        self._drain_now: Optional[float] = None
        #: Heap entries executed (parity with Scheduler.events_processed).
        self.events_processed = 0
        #: Set by NetNode.kill(): a dead scheduler runs nothing, which
        #: silences the node completely (in-process crash injection).
        self.dead = False

    @property
    def now(self) -> float:
        """Milliseconds since this node's runtime started (monotonic);
        constant for the length of a drain."""
        frozen = self._drain_now
        if frozen is not None:
            return frozen
        return (self._loop.time() - self._t0) * 1000.0

    # -- seam surface ----------------------------------------------------

    def schedule(
        self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...] = ()
    ) -> None:
        heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1
        self.kick()

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> _LoopTimerHandle:
        delay = time - self.now
        return self.call_after(delay if delay > 0.0 else 0.0, fn, *args)

    def call_after(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> _LoopTimerHandle:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        handle = self._loop.call_later(delay / 1000.0, self._fire, fn, args)
        return _LoopTimerHandle(handle)

    # -- execution -------------------------------------------------------

    def _fire(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        if self.dead:
            return
        fn(*args)
        self.drain()

    def kick(self) -> None:
        """Run the heap to quiescence unless a drain is already active
        higher up the stack (re-entrant pushes just extend that drain)."""
        if self._drain_now is None:
            self.drain()

    def drain(self) -> None:
        if self._drain_now is not None or self.dead:
            return
        now = self._drain_now = (self._loop.time() - self._t0) * 1000.0
        heap = self._heap
        try:
            while heap:
                entry = heap[0]
                due = entry[0] - now
                if due > 0.5:
                    # Genuinely future work (a non-zero cost model):
                    # hand it to the loop instead of busy-waiting.
                    self._loop.call_later(due / 1000.0, self.kick)
                    break
                heappop(heap)
                self.events_processed += 1
                entry[2](*entry[3])
        finally:
            self._drain_now = None


class TransportFacade:
    """TransportAPI over the per-peer connection manager.

    Self-addressed messages are delivered synchronously (the sim's
    zero-latency self-channel); remote messages are framed once per
    destination and staged for that peer's TCP connection. The framing
    is cheap: the codec walks an ``Envelope`` once per process and
    splices its bytes into every later frame or ``Batch`` that carries
    it (``Envelope.wire``, DESIGN.md §13 "Once per frame").
    """

    def __init__(self, scheduler: NetScheduler, binary: bool = False) -> None:
        self._scheduler = scheduler
        self._transport: Optional[Transport] = None
        self.processes: Dict[int, Any] = {}
        #: Encode wire messages in the binary fast-path format instead
        #: of canonical JSON (the receiver auto-detects per frame).
        self.binary = binary
        #: Wire messages by kind (mirrors Network.counts_by_kind).
        self.counts_by_kind: Counter[str] = Counter()
        self.messages_sent = 0

    def bind(self, transport: Transport) -> None:
        self._transport = transport

    def register(self, proc: Any) -> None:
        if proc.pid in self.processes:
            raise ValueError(f"duplicate pid {proc.pid}")
        self.processes[proc.pid] = proc

    def transmit(self, src: int, dst: int, msg: Any, depart_time: float) -> None:
        self.messages_sent += 1
        kind = getattr(msg, "kind", msg.__class__.__name__)
        self.counts_by_kind[kind] += 1
        local = self.processes.get(dst)
        if local is not None:
            local.enqueue_message(src, msg)
            self._scheduler.kick()
            return
        if self._transport is None:
            raise RuntimeError("transport not bound yet (node still starting)")
        self._transport.send_frame_bytes(
            dst, encode_msg_frame(src, msg, binary=self.binary)
        )


class AsyncioRuntime(Runtime):
    """The net backend's Runtime: facade pair over one asyncio loop."""

    backend = "net"

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        binary: bool = False,
    ) -> None:
        super().__init__()
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._scheduler = NetScheduler(self._loop)
        self._transport_facade = TransportFacade(self._scheduler, binary=binary)

    @property
    def scheduler(self) -> SchedulerAPI:
        sched: SchedulerAPI = self._scheduler
        return sched

    @property
    def transport(self) -> TransportAPI:
        facade: TransportAPI = self._transport_facade
        return facade

    @property
    def net_scheduler(self) -> NetScheduler:
        return self._scheduler

    @property
    def transport_facade(self) -> TransportFacade:
        return self._transport_facade

    def run(self, until: float) -> float:
        """Pump the loop until runtime time reaches ``until`` ms. Only
        usable from outside the loop (driver-style code); nodes under a
        running loop are driven by their own coroutines instead."""
        if self._loop.is_running():
            raise RuntimeError("run() cannot be called from inside the event loop")
        remaining = (until - self._scheduler.now) / 1000.0
        if remaining > 0:
            self._loop.run_until_complete(asyncio.sleep(remaining))
        return self._scheduler.now


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------


@dataclass
class Topology:
    """A cluster description, JSON-serializable for the launcher."""

    groups: List[List[int]]
    addresses: Dict[int, Tuple[str, int]]
    seed: int = 1
    n_messages: int = 16
    driver_pid: int = 0
    extra_group_p: float = 0.5
    hb_interval_ms: float = DEFAULT_HB_INTERVAL_MS
    suspect_ms: float = DEFAULT_SUSPECT_MS
    #: Startup grace before a silent peer may be suspected (None: the
    #: oracle defaults it to ``suspect_ms``).
    hb_grace_ms: Optional[float] = None
    run_timeout_s: float = 60.0
    linger_ms: float = 250.0
    #: Fault-injection sync point: the driver pauses its submission
    #: chain after delivering this many of its own messages and resumes
    #: only once a ``RELEASE`` file appears in the rundir (the
    #: coordinator writes it right after performing the kill). ``None``
    #: means never pause.
    hold_after: Optional[int] = None
    #: Wire encoding: ``"json"`` (canonical, PR-9 format) or
    #: ``"binary"`` (struct-packed fast path). Received frames are
    #: auto-detected, so mixed-codec clusters interoperate.
    codec: str = "json"
    #: Stage outgoing frames per peer and write once per event-loop
    #: drain (transport.py); off = one write per frame.
    coalesce: bool = True
    #: rmcast ack/bump batching window (§7.1) in ms; 0 disables.
    batching_ms: float = 0.0
    #: Workload driver: ``"seq"`` (one driver node, one outstanding,
    #: exact differential) or ``"open"`` (concurrent clients on every
    #: node, statistical verification).
    driver_mode: str = "seq"
    #: Open-loop client count (spread round-robin over the nodes).
    clients: int = 4
    #: Per-client outstanding-message window.
    window: int = 4
    #: Per-client Poisson arrival rate (msgs/sec); 0 = closed loop
    #: (clients keep their window full).
    rate_hz: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["groups"] = [list(g) for g in self.groups]
        data["addresses"] = {
            str(pid): [h, p] for pid, (h, p) in self.addresses.items()
        }
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Topology":
        # Absent keys take the field defaults, which keeps PR-9 topology
        # files valid.
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        kwargs["groups"] = [list(g) for g in data["groups"]]
        kwargs["addresses"] = {
            int(pid): (hp[0], int(hp[1])) for pid, hp in data["addresses"].items()
        }
        return cls(**kwargs)

    def make_config(self) -> GroupConfig:
        return GroupConfig(self.groups)

    def workload(self) -> List[FrozenSet[int]]:
        return make_workload(
            len(self.groups), self.n_messages, self.seed, self.extra_group_p
        )

    def client_plans(self) -> List[List[FrozenSet[int]]]:
        # Client cid runs on pids[cid % n] (see _start_clients); its
        # home group is pinned into every destination set so the
        # submitter observes its own deliveries — the window-freeing
        # signal of the open-loop driver.
        config = self.make_config()
        pids = sorted(config.group_of)
        home_gids = [
            config.group_of[pids[cid % len(pids)]] for cid in range(self.clients)
        ]
        return make_client_plans(
            len(self.groups),
            self.n_messages,
            self.clients,
            self.seed,
            self.extra_group_p,
            home_gids=home_gids,
        )

    def expected_for(self, gid: int) -> int:
        """Messages a member of ``gid`` must deliver under this
        topology's driver mode (a pure function of the config)."""
        if self.driver_mode == "open":
            return plans_expected_count(self.client_plans(), gid)
        return expected_count(self.workload(), gid)


# ----------------------------------------------------------------------
# node
# ----------------------------------------------------------------------


@dataclass
class NodeResult:
    """What one node reports at exit (also written to summary JSON)."""

    pid: int
    gid: int
    exit_code: int
    delivered: List[Tuple[Tuple[int, int], int]] = field(default_factory=list)
    expected: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    wall_ms: float = 0.0
    transport: Dict[str, Any] = field(default_factory=dict)
    epochs_seen: int = 0


class _OpenClient:
    """One open-loop client's live state (hosted on one node)."""

    __slots__ = ("cid", "plan", "next", "outstanding", "backlog", "rng")

    def __init__(self, cid: int, plan: List[FrozenSet[int]], rng: Any) -> None:
        self.cid = cid
        self.plan = plan
        self.next = 0  # next plan index to submit
        self.outstanding = 0  # submitted, not yet self-delivered
        self.backlog = 0  # arrived (Poisson) but window-blocked
        self.rng = rng


class NetNode:
    """One protocol process on one event loop, with its substrate.

    Lifecycle (files under ``rundir`` are the coordination protocol the
    launcher shares — it works identically across OS processes and for
    many nodes on one loop):

    1. bind server, write ``ready-<pid>``;
    2. wait for ``GO``, dial all peers and, once every outgoing link
       is up, write ``up-<pid>`` (the launcher kills a node only after
       every ``up-*`` exists, so no survivor is left dialing a dead
       listener; a dial timeout exits 1 naming the unreachable peers on
       stderr), start heartbeats;
    3. run the seeded workload — either the sequential driver (one
       driver node, one outstanding, gated on its own delivery) or the
       open-loop driver (``driver_mode="open"``: this node's share of
       the concurrent clients, each with an outstanding window and
       Poisson arrivals);
    4. on delivering everything addressed to this group, write
       ``done-<pid>`` and keep serving (acks + heartbeats for
       stragglers);
    5. on ``STOP``, flush queues, linger ``linger_ms``, close, write
       ``summary-<pid>.json`` and exit 0 (3 on watchdog timeout).

    Every submission is appended to ``submit-<pid>.jsonl`` (mid +
    destination set + time): under the open-loop driver the
    interleaving of mids is timing-dependent, so the statistical
    verifier reconstructs the ground-truth message set from these logs
    instead of deriving it from the seed.
    """

    def __init__(self, topology: Topology, pid: int, rundir: Path) -> None:
        self.topology = topology
        self.pid = pid
        self.rundir = Path(rundir)
        self.config = topology.make_config()
        self.gid = self.config.group_of[pid]
        self.open_mode = topology.driver_mode == "open"
        self.workload = [] if self.open_mode else topology.workload()
        self.expected = topology.expected_for(self.gid)
        self.is_driver = pid == topology.driver_pid and not self.open_mode
        self.runtime: Optional[AsyncioRuntime] = None
        self.proc: Optional[PrimCastProcess] = None
        self.omega: Optional[HeartbeatOmega] = None
        self._transport: Optional[Transport] = None
        self._delivered = 0
        self._next_submit = 0
        self._submitted = 0
        self._first_submit_ms: Optional[float] = None
        self._last_deliver_ms: Optional[float] = None
        self._submit_times: Dict[int, float] = {}
        self._clients: List[_OpenClient] = []
        #: open mode: mid -> (client, submit time) for window release.
        self._inflight: Dict[Tuple[int, int], Tuple[_OpenClient, float]] = {}
        self._latencies: List[float] = []
        self._epochs_seen = 0
        self._hold_task: Optional["asyncio.Task[None]"] = None
        self._done = asyncio.Event()
        self._log_fh: Optional[Any] = None
        self._submit_fh: Optional[Any] = None
        self._flush_scheduled = False

    # -- lifecycle -------------------------------------------------------

    async def run(self) -> NodeResult:
        try:
            return await asyncio.wait_for(
                self._run(), timeout=self.topology.run_timeout_s
            )
        except asyncio.TimeoutError:
            return self._result(EXIT_TIMEOUT)
        finally:
            for fh_attr in ("_log_fh", "_submit_fh"):
                fh = getattr(self, fh_attr)
                if fh is not None:
                    fh.close()
                    setattr(self, fh_attr, None)

    async def _run(self) -> NodeResult:
        topo = self.topology
        runtime = self.runtime = AsyncioRuntime(binary=topo.codec == "binary")
        sched = runtime.net_scheduler
        facade = runtime.transport_facade
        proc = self.proc = PrimCastProcess(
            self.pid,
            self.config,
            sched,
            facade,
            CostModel(),  # zero-cost CPU: every handler is due immediately
            batching_ms=topo.batching_ms,  # §7.1 ack/bump coalescing
        )
        transport = self._transport = Transport(
            self.pid,
            topo.addresses,
            on_frame=self._on_frame,
            probe=runtime.probe,
            coalesce=topo.coalesce,
        )
        facade.bind(transport)
        self._log_fh = open(self.rundir / f"delivery-{self.pid}.jsonl", "w")
        self._submit_fh = open(self.rundir / f"submit-{self.pid}.jsonl", "w")
        proc.add_deliver_hook(self._on_deliver)
        proc.add_probe_hook(self._on_probe)

        await transport.start()
        (self.rundir / f"ready-{self.pid}").write_text("ready\n")
        await self._wait_for_file(self.rundir / "GO")
        try:
            await transport.connect_all()
        except ConnectionError as exc:
            print(f"node {self.pid}: {exc}; giving up", file=sys.stderr, flush=True)
            await transport.close()
            return self._result(EXIT_ERROR)
        (self.rundir / f"up-{self.pid}").write_text("up\n")
        members = self.config.members(self.gid)
        omega = self.omega = HeartbeatOmega(
            self.gid,
            members,
            self.pid,
            sched,
            self._send_heartbeats,
            hb_interval_ms=topo.hb_interval_ms,
            suspect_ms=topo.suspect_ms,
            grace_ms=topo.hb_grace_ms,
        )
        proc.omega = omega
        omega.subscribe(proc._on_omega_output)
        omega.start()

        if self.open_mode:
            self._start_clients()
        elif self.is_driver:
            proc.post_job(self._submit_next)
        if self.expected == 0:
            self._done.set()
        await self._done.wait()
        (self.rundir / f"done-{self.pid}").write_text("done\n")
        await self._wait_for_file(self.rundir / "STOP")
        omega.stop()
        await transport.flush()
        await asyncio.sleep(self.topology.linger_ms / 1000.0)
        await transport.close()
        result = self._result(EXIT_OK)
        self._write_summary(result)
        return result

    async def _wait_for_file(self, path: Path, poll_s: float = 0.02) -> None:
        while not path.exists():
            await asyncio.sleep(poll_s)

    # -- frame handling (event-loop context) -----------------------------

    def _on_frame(self, src: int, frame: Dict[str, Any]) -> None:
        t = frame.get("t")
        if t == "m":
            assert self.proc is not None and self.runtime is not None
            if self.omega is not None:
                self.omega.heard_from(src)
            self.proc.enqueue_message(int(frame.get("src", src)), frame["msg"])
            self.runtime.net_scheduler.kick()
        elif t == "hb":
            if self.omega is not None:
                self.omega.heard_from(int(frame["pid"]))

    def _send_heartbeats(self) -> None:
        transport = self._transport
        if transport is None:
            return
        data = encode_hb_frame(self.pid, binary=self.topology.codec == "binary")
        for pid in self.config.members(self.gid):
            if pid != self.pid and pid in transport.peers:
                transport.send_frame_bytes(pid, data)

    # -- workload (shared) -----------------------------------------------

    def _log_submit(self, mid: Tuple[int, int], dests: FrozenSet[int], now: float) -> None:
        self._submitted += 1
        if self._first_submit_ms is None:
            self._first_submit_ms = now
        if self._submit_fh is not None:
            # Hand-formatted JSON line (hot path: one line per
            # submission) — every field is an int or a round()ed float,
            # so this is valid JSON.
            dest = ", ".join(map(str, sorted(dests)))
            self._submit_fh.write(
                f'{{"mid": [{mid[0]}, {mid[1]}], "dest": [{dest}], '
                f'"t": {round(now, 3)}}}\n'
            )
            self._flush_logs_soon()

    def _flush_logs_soon(self) -> None:
        """Flush both logs once, on the next loop iteration: every line
        written before then rides the same ``write``. A SIGKILL can lose
        the lines of the iteration in progress, never earlier ones — a
        killed node's log is a prefix, which is what the verifiers
        assume of it."""
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_logs)

    def _flush_logs(self) -> None:
        self._flush_scheduled = False
        for fh in (self._log_fh, self._submit_fh):
            if fh is not None:
                fh.flush()

    # -- workload (sequential driver) ------------------------------------

    def _submit_next(self) -> None:
        i = self._next_submit
        if i >= len(self.workload):
            return
        self._next_submit += 1
        assert self.proc is not None and self.runtime is not None
        now = self.runtime.net_scheduler.now
        self._submit_times[i] = now
        mc = self.proc.a_multicast(self.workload[i], payload={"i": i})
        self._log_submit(mc.mid, self.workload[i], now)

    # -- workload (open-loop driver) -------------------------------------

    def _start_clients(self) -> None:
        """Create this node's share of the clients and start arrivals.

        Client ``c`` lives on node ``pids[c % n]``; its destination
        plan comes from the seeded plans (every node derives the same
        assignment). With ``rate_hz`` set, arrivals follow a per-client
        Poisson process; with 0 the client runs closed-loop, keeping
        its window full from the start.
        """
        topo = self.topology
        pids = sorted(self.config.group_of)
        plans = topo.client_plans()
        assert self.runtime is not None
        sched = self.runtime.net_scheduler
        for cid, plan in enumerate(plans):
            if pids[cid % len(pids)] != self.pid or not plan:
                continue
            client = _OpenClient(
                cid, plan, child_rng(topo.seed, f"net-arrival-{cid}")
            )
            self._clients.append(client)
            if topo.rate_hz > 0:
                gap_ms = client.rng.expovariate(topo.rate_hz) * 1000.0
                sched.call_after(gap_ms, self._client_arrival, client)
            else:
                client.backlog = len(plan)
                self._schedule_pump(client)

    def _client_arrival(self, client: _OpenClient) -> None:
        client.backlog += 1
        # next + backlog = arrivals so far; the rest of the plan still
        # needs an arrival scheduled.
        if len(client.plan) - (client.next + client.backlog) > 0:
            assert self.runtime is not None
            gap_ms = client.rng.expovariate(self.topology.rate_hz) * 1000.0
            self.runtime.net_scheduler.call_after(
                gap_ms, self._client_arrival, client
            )
        self._schedule_pump(client)

    def _schedule_pump(self, client: _OpenClient, delay: float = 0.0) -> None:
        """Queue a pump as its own job on the process CPU queue.

        Submissions must never run re-entrantly inside another handler
        (a deliver hook, a timer callback) — same handler-atomicity
        discipline the sequential driver keeps via ``post_job``.
        """
        assert self.proc is not None
        self.proc.post_job(lambda: self._pump_client(client), delay)

    def _pump_client(self, client: _OpenClient) -> None:
        """Submit backlog while the window (and the transport) allow."""
        assert self.proc is not None and self.runtime is not None
        sched = self.runtime.net_scheduler
        transport = self._transport
        while client.backlog > 0 and client.outstanding < self.topology.window:
            if transport is not None and transport.overloaded():
                # Backpressure: retry once the send queues drain a bit.
                self._schedule_pump(client, 5.0)
                return
            dests = client.plan[client.next]
            mc = self.proc.a_multicast(
                dests, payload={"c": client.cid, "i": client.next}
            )
            now = sched.now
            self._inflight[mc.mid] = (client, now)
            self._log_submit(mc.mid, dests, now)
            client.next += 1
            client.backlog -= 1
            client.outstanding += 1

    def _on_deliver(self, proc: Any, multicast: Any, final_ts: int) -> None:
        mid = multicast.mid
        if self.runtime is not None:
            self._last_deliver_ms = self.runtime.net_scheduler.now
        if self._log_fh is not None:
            assert self.runtime is not None
            # Hand-formatted JSON line (hot path: one line per local
            # delivery).
            self._log_fh.write(
                f'{{"mid": [{mid[0]}, {mid[1]}], "final": {final_ts}, '
                f'"t": {round(self.runtime.net_scheduler.now, 3)}}}\n'
            )
            self._flush_logs_soon()
        self._delivered += 1
        if self.open_mode and mid[0] == self.pid:
            entry = self._inflight.pop(mid, None)
            if entry is not None:
                client, submitted = entry
                assert self.runtime is not None
                self._latencies.append(self.runtime.net_scheduler.now - submitted)
                client.outstanding -= 1
                self._schedule_pump(client)
        if self.is_driver and mid[0] == self.pid:
            submitted = self._submit_times.pop(mid[1], None)
            if submitted is not None:
                assert self.runtime is not None
                self._latencies.append(self.runtime.net_scheduler.now - submitted)
            if mid[1] + 1 == self._next_submit:
                if (
                    self.topology.hold_after is not None
                    and mid[1] + 1 == self.topology.hold_after
                ):
                    # Fault-injection sync point: pause the submission
                    # chain until the coordinator has performed the kill
                    # and written RELEASE — without this, a fast workload
                    # can finish before the coordinator's file poll
                    # notices it reached the kill mark.
                    self._hold_task = asyncio.get_running_loop().create_task(
                        self._hold_for_release()
                    )
                else:
                    # Sequential, one outstanding: our own delivery of
                    # message i releases message i+1.
                    proc.post_job(self._submit_next)
        if self._delivered >= self.expected:
            self._done.set()

    async def _hold_for_release(self) -> None:
        await self._wait_for_file(self.rundir / "RELEASE")
        assert self.proc is not None and self.runtime is not None
        self.proc.post_job(self._submit_next)
        self.runtime.net_scheduler.kick()

    def _on_probe(self, proc: Any, event: str, data: Any) -> None:
        if event == "epoch_change":
            self._epochs_seen += 1

    # -- crash injection (in-process clusters) ---------------------------

    async def kill(self) -> None:
        """Silence this node completely: the in-process stand-in for
        SIGKILL. The scheduler is marked dead (no callback ever runs
        again), the oracle stops, and all sockets close."""
        if self.omega is not None:
            self.omega.stop()
        if self.runtime is not None:
            self.runtime.net_scheduler.dead = True
        if self._transport is not None:
            await self._transport.close()
        for fh_attr in ("_log_fh", "_submit_fh"):
            fh = getattr(self, fh_attr)
            if fh is not None:
                fh.close()
                setattr(self, fh_attr, None)

    # -- reporting -------------------------------------------------------

    def _result(self, exit_code: int) -> NodeResult:
        transport_stats = self._transport.stats() if self._transport else {}
        delivered = []
        if self.proc is not None:
            delivered = [(mid, final) for mid, final, _ in self.proc.delivery_log]
        return NodeResult(
            pid=self.pid,
            gid=self.gid,
            exit_code=exit_code,
            delivered=delivered,
            expected=self.expected,
            latencies_ms=[round(l, 3) for l in self._latencies],
            wall_ms=self.runtime.net_scheduler.now if self.runtime else 0.0,
            transport=transport_stats,
            epochs_seen=self._epochs_seen,
        )

    def _write_summary(self, result: NodeResult) -> None:
        workload_ms = 0.0
        if self._first_submit_ms is not None and self._last_deliver_ms is not None:
            workload_ms = self._last_deliver_ms - self._first_submit_ms
        payload = {
            "pid": result.pid,
            "gid": result.gid,
            "exit_code": result.exit_code,
            "delivered": [[list(mid), final] for mid, final in result.delivered],
            "expected": result.expected,
            "latencies_ms": result.latencies_ms,
            "wall_ms": round(result.wall_ms, 3),
            #: first submission to last local delivery (driver node only)
            "workload_ms": round(workload_ms, 3),
            "submitted": self._submitted,
            "first_submit_ms": (
                round(self._first_submit_ms, 3)
                if self._first_submit_ms is not None
                else None
            ),
            "last_deliver_ms": (
                round(self._last_deliver_ms, 3)
                if self._last_deliver_ms is not None
                else None
            ),
            "codec": self.topology.codec,
            "driver_mode": self.topology.driver_mode,
            "transport": result.transport,
            "message_counts": (
                dict(self.runtime.transport_facade.counts_by_kind)
                if self.runtime is not None
                else {}
            ),
            "events": (
                self.runtime.net_scheduler.events_processed
                if self.runtime is not None
                else 0
            ),
            "epochs_seen": result.epochs_seen,
            "backend": "net",
        }
        (self.rundir / f"summary-{self.pid}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def run_node(topology: Topology, pid: int, rundir: Path) -> int:
    """Blocking entry point for one node OS process."""
    node = NetNode(topology, pid, Path(rundir))
    result = asyncio.run(node.run())
    return result.exit_code
