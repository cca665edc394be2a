"""The asyncio adapter: unmodified protocol processes on a real event loop.

The protocol core consumes the substrate exclusively through the
:class:`~repro.net.runtime.SchedulerAPI` / ``TransportAPI`` seam. This
module implements both halves over asyncio:

* :class:`NetScheduler` — time is ``(loop.time() - t0) * 1000`` ms
  (monotonic, per-node, ``t0`` on the loop clock's
  :data:`~repro.election.omega.HB_INTERVAL_MS` grid), read once per
  stimulus — a received frame, a timer — and standing still until the
  drain that ends it; ``call_at`` / ``call_after`` arm real
  ``loop.call_at`` / ``loop.call_later`` timers (a zero delay is
  ``loop.call_soon``); the seam's
  allocation-free heap (``_heap`` / ``_seq``) is a real heap that
  :meth:`NetScheduler.drain` runs to empty after every external
  stimulus. With the zero-cost CPU model every entry the
  process pushes is due immediately, so draining preserves the exact
  *relative* order the sim would execute — and because the drain loop
  runs each callback to completion on the single-threaded event loop,
  per-process **handler atomicity** (the contract the standing-proposal
  sites rely on, DESIGN.md §10/§12) holds exactly as it does on the
  simulator's event loop.
* :class:`TransportFacade` — ``transmit`` delivers self-addressed
  messages synchronously (the sim's zero-latency self-channel) and
  stages everything else for the per-peer TCP connection
  (:mod:`repro.net.transport`), an envelope as one frame shared by all
  its destinations; per-channel FIFO comes from TCP.

:class:`NetNode` assembles one protocol process with its facades,
heartbeat oracle, state-GC daemon (:mod:`repro.core.gc`), logs and its
share of the workload's clients
(:class:`~repro.net.workload.PlanClient`) — one node per OS
process under the cluster launcher (:mod:`repro.net.cluster`), or many
nodes on one loop in the in-process differential tests.

A serving node wakes only for work and for one housekeeping grid. Its
periodic timers — the Ω round (:data:`HB_INTERVAL_MS`), which also
looks for ``STOP`` once the node is done, and the GC tick (250 ms) —
fire at multiples of their period on a scheduler clock whose epoch is
itself a multiple of :data:`HB_INTERVAL_MS` on the loop clock, so every
node on one loop shares each wakeup. A heartbeat goes out only on a
link that carried no write since the previous round: under load there
are none.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..core.config import GroupConfig, uniform_groups
from ..core.gc import CompactionDaemon, attach_compaction, next_grid_time
from ..core.process import PrimCastProcess
from ..election.omega import DEFAULT_SUSPECT_MS, HB_INTERVAL_MS, HeartbeatOmega
from ..sim.costs import CostModel
from ..sim.rng import child_rng
from .codec import encode_hb_frame, encode_msg_frame
from .transport import Transport
from .workload import PlanClient, make_client_plans, plans_expected_count

#: Node exit codes (the launcher interprets these).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 3


def _wake(future: "asyncio.Future[None]") -> None:
    if not future.done():
        future.set_result(None)


class NetScheduler:
    """SchedulerAPI over an asyncio loop with a monotonic ms clock.

    Processes push service events into ``_heap`` (the seam's fast
    path); :meth:`drain` pops and runs them in ``(time, seq)`` order.
    Under the zero-cost CPU model every pushed entry is due at ``now``,
    so a drain runs the node's whole causal cascade — receive, handle,
    transmit — to quiescence before the event loop regains control,
    which is precisely the sim's run-to-completion discipline.

    Time stands still for one stimulus, as it does inside a simulator
    event. A stimulus is a received frame (``NetNode._on_frame``) or a
    timer: it reads ``loop.time()`` once (:meth:`begin`), and
    :attr:`now` returns that reading until the :meth:`drain` that ends
    the stimulus, so Ω's receipt stamp, the enqueue and the whole
    cascade — every ``busy_until``, submit and delivery stamp in it —
    see one instant (and pay one clock read, not one per handler). A
    drain outside any stimulus reads the clock itself. Timers do not
    go through ``now``: ``call_at`` converts its time to the loop clock
    exactly, and ``call_after`` hands its delay to ``loop.call_later``,
    which measures it on the real loop clock (a zero delay is
    ``loop.call_soon``: no timer-heap entry).

    The epoch ``t0`` is the loop time rounded down to a multiple of
    :data:`HB_INTERVAL_MS`, so ``now`` starts in ``[0, HB_INTERVAL_MS)``
    and a grid point of one node's clock is a grid point of every other
    node's on the same loop: their periodic timers share one wakeup.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        grid_s = HB_INTERVAL_MS / 1000.0
        self._t0 = math.floor(loop.time() / grid_s) * grid_s
        self._heap: List[Tuple[float, int, Any, Any]] = []
        self._seq = 0
        #: The open stimulus's reading of the clock; None between them.
        self._now: Optional[float] = None
        #: True while drain() runs the heap: its re-entrance guard.
        self._draining = False
        #: Heap entries executed (parity with Scheduler.events_processed).
        self.events_processed = 0
        #: Set by NetNode.kill(): a dead scheduler runs nothing, which
        #: silences the node completely (in-process crash injection).
        self.dead = False

    @property
    def now(self) -> float:
        """Milliseconds since this node's runtime started (monotonic);
        constant from a stimulus's :meth:`begin` to the end of its drain."""
        now = self._now
        if now is not None:
            return now
        return (self._loop.time() - self._t0) * 1000.0

    def begin(self) -> None:
        """Open a stimulus: read the clock once; :attr:`now` holds that
        reading, and pushes wait for the :meth:`drain` that must end the
        stimulus."""
        self._now = (self._loop.time() - self._t0) * 1000.0

    # -- seam surface ----------------------------------------------------

    def schedule(
        self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...] = ()
    ) -> None:
        heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1
        self.kick()

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> asyncio.Handle:
        return self._loop.call_at(self._loop_time(time), self._fire, fn, args)

    def call_after(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> asyncio.Handle:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if delay == 0:
            return self._loop.call_soon(self._fire, fn, args)
        return self._loop.call_later(delay / 1000.0, self._fire, fn, args)

    async def sleep_until(self, time: float) -> None:
        """Suspend the calling task until node time ``time``, in the
        same loop wakeup as every timer armed for that instant."""
        future = self._loop.create_future()
        handle = self._loop.call_at(self._loop_time(time), _wake, future)
        try:
            await future
        finally:
            handle.cancel()

    def _loop_time(self, time: float) -> float:
        return self._t0 + time / 1000.0

    # -- execution -------------------------------------------------------

    def _fire(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        if self.dead:
            return
        self.begin()
        try:
            fn(*args)
        finally:
            self.drain()

    def kick(self) -> None:
        """Run the heap to quiescence unless a stimulus or a drain is
        open higher up the stack (its drain runs the push)."""
        if self._now is None:
            self.drain()

    def drain(self) -> None:
        """Run the heap to quiescence at the open stimulus's instant (or
        at a fresh clock reading), and close the stimulus."""
        if self._draining:
            return
        if self.dead:
            self._now = None
            return
        now = self._now
        if now is None:
            now = self._now = (self._loop.time() - self._t0) * 1000.0
        heap = self._heap
        self._draining = True
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
            self._draining = False
            self._now = None


class TransportFacade:
    """TransportAPI over the per-peer connection manager.

    Self-addressed messages are delivered synchronously (the sim's
    zero-latency self-channel); remote messages are framed per
    destination and staged for that peer's TCP connection. The framing
    is cheap: the codec builds an ``Envelope``'s frame once and hands
    the same ``bytes`` to every destination (``Envelope.frame``), and
    splices its body into every ``Batch`` that carries it
    (``Envelope.wire``, DESIGN.md §13 "Once per envelope").
    """

    def __init__(self, scheduler: NetScheduler, binary: bool = False) -> None:
        self._scheduler = scheduler
        self._transport: Optional[Transport] = None
        self.processes: Dict[int, Any] = {}
        #: Encode wire messages in the binary fast-path format instead
        #: of canonical JSON (the receiver auto-detects per frame).
        self.binary = binary

    def bind(self, transport: Transport) -> None:
        self._transport = transport

    def register(self, proc: Any) -> None:
        if proc.pid in self.processes:
            raise ValueError(f"duplicate pid {proc.pid}")
        self.processes[proc.pid] = proc

    def transmit(self, src: int, dst: int, msg: Any, depart_time: float) -> None:
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


class AsyncioRuntime:
    """One node's substrate on the running loop: the scheduler and the
    transport facade its process is built with."""

    def __init__(self, binary: bool = False) -> None:
        self.net_scheduler = NetScheduler(asyncio.get_running_loop())
        self.transport_facade = TransportFacade(self.net_scheduler, binary=binary)


# ----------------------------------------------------------------------
# the cluster spec
# ----------------------------------------------------------------------

#: The pid client 0 runs on: in the sequential shape the only client,
#: whose delivery log the coordinator watches for the kill mark.
DRIVER_PID = 0

#: How long a node keeps serving stragglers after its shutdown flush
#: before it closes.
LINGER_MS = 250.0

#: How often a node looks for ``GO`` and ``RELEASE`` (``STOP`` is looked
#: for by Ω's round).
FILE_POLL_MS = 20.0


@dataclass
class ClusterSpec:
    """A cluster: uniform groups and their addresses, a seeded workload,
    an optional kill. The one description of a run: the launcher writes
    it to ``topology.json``, every node and the sim reference read it.
    :func:`repro.net.cluster.make_topology` validates a spec and binds
    its ports."""

    n_groups: int = 2
    group_size: int = 3
    n_messages: int = 16
    seed: int = 1
    #: SIGKILL this pid once the driver has delivered ``kill_after``
    #: messages. Must not be the driver, and its group must keep a
    #: quorum without it.
    kill_pid: Optional[int] = None
    kill_after: int = 4
    suspect_ms: float = DEFAULT_SUSPECT_MS
    run_timeout_s: float = 60.0
    #: Wire encoding: ``"json"`` (canonical) or ``"binary"``
    #: (struct-packed fast path). Received frames are auto-detected, so
    #: mixed-codec clusters interoperate.
    codec: str = "json"
    #: Stage outgoing frames per peer and write once per event-loop
    #: drain (transport.py); off = one write per frame.
    coalesce: bool = True
    #: rmcast ack/bump batching window (§7.1) in ms; 0 disables.
    batching_ms: float = 0.0
    #: "seq" names the sequential shape — one client, one outstanding,
    #: closed loop: the exact differential — whatever the three fields
    #: below say (``make_topology`` spells it out); "open" runs the
    #: shape they describe (statistical verification unless it is the
    #: sequential one). Client 0 runs on :data:`DRIVER_PID`, the rest
    #: follow round-robin over the nodes.
    driver_mode: str = "seq"
    clients: int = 4
    #: Per-client outstanding-message window.
    window: int = 4
    #: Per-client Poisson arrival rate (msgs/sec); 0 = closed loop
    #: (clients keep their window full).
    rate_hz: float = 0.0
    #: pid -> (host, port) of every node, bound by ``make_topology``.
    addresses: Dict[int, Tuple[str, int]] = field(default_factory=dict)

    @property
    def groups(self) -> List[List[int]]:
        """Consecutive pids: group ``g`` holds ``[g*size, (g+1)*size)``."""
        return self.make_config().groups

    @property
    def sequential(self) -> bool:
        return self.driver_mode == "seq" or (
            (self.clients, self.window, self.rate_hz) == (1, 1, 0.0)
        )

    @property
    def hold_after(self) -> Optional[int]:
        """The fault-injection sync point: with a kill configured, every
        client stops submitting once ``kill_after`` of its own messages
        have come back, and resumes only once a ``RELEASE`` file appears
        in the rundir (the coordinator writes it right after the kill) —
        so the kill lands at a deterministic point in the workload
        instead of racing the coordinator's file polling. ``None``
        means never pause."""
        return self.kill_after if self.kill_pid is not None else None

    def validate(self) -> None:
        if self.n_groups < 1 or self.group_size < 1:
            raise ValueError("need at least one group of at least one member")
        if self.codec not in ("json", "binary"):
            raise ValueError(f"unknown codec {self.codec!r}")
        if self.driver_mode not in ("seq", "open"):
            raise ValueError(f"unknown driver mode {self.driver_mode!r}")
        if self.n_messages < 0:
            raise ValueError(f"n_messages must be non-negative, got {self.n_messages}")
        if not self.rate_hz >= 0:
            raise ValueError(f"rate_hz must be non-negative, got {self.rate_hz}")
        # Ω and rmcast reject the first two at a node's start, too late
        # for exit 2. Each test is spelt so that NaN fails it.
        if not 0.0 < self.suspect_ms < math.inf:
            raise ValueError(f"suspect_ms must be positive and finite, got {self.suspect_ms}")
        if not 0.0 <= self.batching_ms < math.inf:
            raise ValueError(f"batching_ms must be finite and >= 0, got {self.batching_ms}")
        if not self.run_timeout_s > 0:
            raise ValueError(f"run_timeout_s must be positive, got {self.run_timeout_s}")
        if self.driver_mode == "open" and (self.clients < 1 or self.window < 1):
            raise ValueError("open-loop driver needs clients >= 1, window >= 1")
        if self.kill_pid is not None:
            if not self.sequential:
                raise ValueError(
                    "kill injection requires the sequential shape (the "
                    "kill point is defined by the driver's delivery count)"
                )
            if self.kill_pid == DRIVER_PID:
                raise ValueError(f"cannot kill the driver (pid {DRIVER_PID})")
            if not 0 <= self.kill_pid < self.n_groups * self.group_size:
                raise ValueError(f"kill_pid {self.kill_pid} not in the cluster")
            # The kill mark is the driver's kill_after-th delivery; it
            # delivers n_messages.
            if not 0 <= self.kill_after <= self.n_messages:
                raise ValueError(
                    f"kill_after must be in [0, n_messages={self.n_messages}], "
                    f"got {self.kill_after}"
                )
            if self.group_size < 3:
                raise ValueError(
                    "killing a node needs group_size >= 3 so the group "
                    "keeps a majority quorum"
                )

    def to_json(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["addresses"] = {
            str(pid): [h, p] for pid, (h, p) in self.addresses.items()
        }
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ClusterSpec":
        # Every field is required: only the launcher writes the file.
        kwargs = {f.name: data[f.name] for f in fields(cls)}
        kwargs["addresses"] = {
            int(pid): (hp[0], int(hp[1])) for pid, hp in data["addresses"].items()
        }
        return cls(**kwargs)

    def make_config(self) -> GroupConfig:
        return uniform_groups(self.n_groups, self.group_size)

    def client_hosts(self) -> List[int]:
        """The pid each client runs on: client 0 on the driver, the rest
        round-robin over the nodes."""
        n = self.n_groups * self.group_size
        return [(DRIVER_PID + cid) % n for cid in range(self.clients)]

    def client_plans(self) -> List[List[FrozenSet[int]]]:
        # A client's home group is pinned into every destination set so
        # the submitter observes its own deliveries — the window-freeing
        # signal.
        group_of = self.make_config().group_of
        return make_client_plans(
            self.n_groups,
            self.n_messages,
            self.seed,
            home_gids=[group_of[pid] for pid in self.client_hosts()],
        )

    def expected_for(self, gid: int) -> int:
        """Messages a member of ``gid`` must deliver under this
        spec's workload (a pure function of the spec)."""
        return plans_expected_count(self.client_plans(), gid)


# ----------------------------------------------------------------------
# node
# ----------------------------------------------------------------------


@dataclass
class NodeResult:
    """How one node's run ended; a clean exit also leaves
    ``summary-<pid>.json``."""

    pid: int
    exit_code: int


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
       stderr), start Ω's heartbeat rounds (every
       :data:`HB_INTERVAL_MS`; a heartbeat only on a link without a
       write since the previous round) and arm the state-GC daemon
       (``compact_delivered`` every ``DEFAULT_COMPACTION_INTERVAL_MS``),
       both on the housekeeping grid (module docstring);
    3. run this node's share of the seeded workload's clients (none,
       on most nodes of the sequential shape);
    4. on delivering everything addressed to this group, write
       ``done-<pid>`` and keep serving (acks + heartbeats for
       stragglers);
    5. on ``STOP`` (looked for by every Ω round from then on, on the
       grid; ``GO`` and ``RELEASE`` every :data:`FILE_POLL_MS`), flush
       queues, linger :data:`LINGER_MS`, close, write
       ``summary-<pid>.json`` and exit 0 (3 on watchdog timeout).

    However ``run()`` ends — exit, error, watchdog, cancellation — it
    ends in :meth:`close`: no listener, redial task or timer (Ω's round
    and the GC tick included) outlives the node.

    Every submission is appended to ``submit-<pid>.jsonl`` (mid +
    destination set + time): with concurrent clients the interleaving
    of mids is timing-dependent, so the statistical verifier
    reconstructs the ground-truth message set from these logs instead
    of deriving it from the seed. Every truncation of T is appended to
    ``truncate-<pid>.jsonl`` (mids + new ``t_base`` + time), which the
    verifier judges against the delivery logs.
    """

    def __init__(self, topology: ClusterSpec, pid: int, rundir: Path) -> None:
        self.topology = topology
        self.pid = pid
        self.rundir = Path(rundir)
        self.config = topology.make_config()
        self.gid = self.config.group_of[pid]
        self.expected = topology.expected_for(self.gid)
        self.runtime: Optional[AsyncioRuntime] = None
        self.proc: Optional[PrimCastProcess] = None
        self.omega: Optional[HeartbeatOmega] = None
        self.compaction: Optional[CompactionDaemon] = None
        self._transport: Optional[Transport] = None
        self._delivered = 0
        self._submitted = 0
        self._clients: List[PlanClient] = []
        self._epochs_seen = 0
        #: Heartbeat frames sent, and each group peer's ``writes`` as the
        #: previous heartbeat round saw it.
        self._heartbeats = 0
        self._hb_writes: Dict[int, int] = {}
        #: What every Ω round sends and looks for, built once.
        self._hb_frame = encode_hb_frame(pid, binary=topology.codec == "binary")
        self._stop_path = str(self.rundir / "STOP")
        self._hold_tasks: List["asyncio.Task[None]"] = []
        self._done = asyncio.Event()
        #: Set once ``done-<pid>`` is written; Ω's round sets it on STOP.
        self._stop: Optional[asyncio.Event] = None
        self._log_fh: Optional[Any] = None
        self._submit_fh: Optional[Any] = None
        self._truncate_fh: Optional[Any] = None
        self._truncate_lines: List[str] = []
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
            await self.close()

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
            self.pid, topo.addresses, on_frame=self._on_frame,
            held=proc.started.get, coalesce=topo.coalesce,
        )
        facade.bind(transport)
        self._log_fh = open(self.rundir / f"delivery-{self.pid}.jsonl", "w")
        self._submit_fh = open(self.rundir / f"submit-{self.pid}.jsonl", "w")
        self._truncate_fh = open(self.rundir / f"truncate-{self.pid}.jsonl", "w")
        proc.add_deliver_hook(self._on_deliver)
        proc.add_probe_hook(self._on_probe, ("epoch_change", "truncate"))

        await transport.start()
        (self.rundir / f"ready-{self.pid}").write_text("ready\n")
        await self._wait_for_file(self.rundir / "GO")
        try:
            await transport.connect_all()
        except ConnectionError as exc:
            print(f"node {self.pid}: {exc}; giving up", file=sys.stderr, flush=True)
            return self._result(EXIT_ERROR)
        (self.rundir / f"up-{self.pid}").write_text("up\n")
        members = self.config.members(self.gid)
        omega = self.omega = HeartbeatOmega(
            self.gid,
            members,
            self.pid,
            sched,
            self._omega_round,
            suspect_ms=topo.suspect_ms,
        )
        omega.subscribe(proc._on_omega_output)
        omega.start()
        self.compaction = attach_compaction(sched, {self.pid: proc})

        self._start_clients()
        if self.expected == 0:
            self._done.set()
        await self._done.wait()
        (self.rundir / f"done-{self.pid}").write_text("done\n")
        self._stop = asyncio.Event()
        await self._stop.wait()  # set by an Ω round that finds STOP
        omega.stop()
        await transport.flush()
        await asyncio.sleep(LINGER_MS / 1000.0)
        await self.close()
        self._write_summary()
        return self._result(EXIT_OK)

    async def _wait_for_file(self, path: Path) -> None:
        """Return once ``path`` exists, looking at every multiple of
        :data:`FILE_POLL_MS` of node time."""
        assert self.runtime is not None
        sched = self.runtime.net_scheduler
        while not path.exists():
            await sched.sleep_until(next_grid_time(sched.now, FILE_POLL_MS))

    # -- frame handling (event-loop context) -----------------------------

    def _on_frame(self, src: int, frame: Dict[str, Any]) -> None:
        """One received frame is one stimulus: Ω's receipt stamp, the
        enqueue and the drain share one clock reading. ``src`` is the
        connection's pid, which the transport holds every frame's own
        sender to (a message's ``src``, a heartbeat's ``pid``), so Ω
        credits the connection a frame came in on."""
        t = frame.get("t")
        if t == "m":
            assert self.proc is not None and self.runtime is not None
            sched = self.runtime.net_scheduler
            sched.begin()
            if self.omega is not None:
                self.omega.heard_from(src)
            self.proc.enqueue_message(src, frame["msg"])
            sched.drain()
        elif t == "hb":
            if self.omega is not None:
                self.omega.heard_from(src)

    def _omega_round(self) -> None:
        """The node's part of an Ω round. A heartbeat to each group peer
        whose link took no write since the previous round — any frame
        proves this node alive, so a busy link needs none; an idle link
        carries one every second round (the heartbeat is that link's
        write). And once the node is done, a look for ``STOP``."""
        stop = self._stop
        if stop is not None and not stop.is_set() and os.path.exists(self._stop_path):
            stop.set()
        transport = self._transport
        if transport is None:
            return
        data = self._hb_frame
        last = self._hb_writes
        for pid in self.config.members(self.gid):
            conn = transport.peers.get(pid)
            if conn is None:
                continue  # this node
            writes = conn.writes
            if last.get(pid, writes) == writes:
                transport.send_frame_bytes(pid, data)
                self._heartbeats += 1
            last[pid] = writes

    # -- workload ---------------------------------------------------------

    def _start_clients(self) -> None:
        """Start the clients this node hosts (every node derives the
        same assignment and plans from the topology)."""
        topo = self.topology
        assert self.proc is not None and self.runtime is not None
        assert self._transport is not None
        plans = topo.client_plans()
        for cid, host in enumerate(topo.client_hosts()):
            if host != self.pid or not plans[cid]:
                continue
            client = PlanClient(
                self.proc,
                self.runtime.net_scheduler,
                cid,
                plans[cid],
                window=topo.window,
                rate_hz=topo.rate_hz,
                rng=child_rng(topo.seed, f"net-arrival-{cid}"),
                # Backpressure: wait for the send queues to drain a bit.
                blocked=self._transport.overloaded,
                hold_after=topo.hold_after,
                on_hold=self._hold_for_release,
                on_submit=self._log_submit,
            )
            self._clients.append(client)
            client.start()

    def _hold_for_release(self, client: PlanClient) -> None:
        # Fault-injection sync point: the client stays paused until the
        # coordinator has performed the kill and written RELEASE —
        # without this, a fast workload can finish before the
        # coordinator's file poll notices it reached the kill mark.
        async def wait() -> None:
            await self._wait_for_file(self.rundir / "RELEASE")
            client.release()

        self._hold_tasks.append(asyncio.get_running_loop().create_task(wait()))

    def _log_submit(self, mid: Tuple[int, int], dests: FrozenSet[int], now: float) -> None:
        self._submitted += 1
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
        """Flush every log once, on the next loop iteration: every line
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
        # A truncate line is written only once the delivery lines it
        # rests on are with the OS, so a killed node's truncate log never
        # names a mid its delivery log lacks.
        if self._truncate_lines and self._truncate_fh is not None:
            self._truncate_fh.write("".join(self._truncate_lines))
            self._truncate_fh.flush()
            self._truncate_lines.clear()

    def _on_deliver(self, proc: Any, multicast: Any, final_ts: int) -> None:
        mid = multicast.mid
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
        if self._delivered >= self.expected:
            self._done.set()

    def _on_probe(self, proc: Any, event: str, data: Any) -> None:
        if event == "epoch_change":
            self._epochs_seen += 1
        elif event == "truncate":
            assert self.runtime is not None
            # Hand-formatted JSON line (data is the sorted tuple of
            # truncated mids), held until the next flush of the logs.
            mids = ", ".join(f"[{mid[0]}, {mid[1]}]" for mid in data)
            self._truncate_lines.append(
                f'{{"mids": [{mids}], "t_base": {proc._t_base}, '
                f'"t": {round(self.runtime.net_scheduler.now, 3)}}}\n'
            )
            self._flush_logs_soon()

    # -- shutdown and crash injection -----------------------------------

    async def close(self) -> None:
        """Silence this node completely and release what it holds: the
        scheduler is marked dead (no callback ever runs again), the
        oracle and the GC daemon stop, every socket and every log close.
        ``run()`` ends with it on every path; on a running node it is
        the in-process stand-in for SIGKILL. Idempotent."""
        for task in self._hold_tasks:
            task.cancel()
        if self.omega is not None:
            self.omega.stop()
        if self.compaction is not None:
            self.compaction.stop()
        if self.runtime is not None:
            self.runtime.net_scheduler.dead = True
        if self._transport is not None:
            await self._transport.close()
        self._flush_logs()  # writes the truncate lines still held
        for fh_attr in ("_log_fh", "_submit_fh", "_truncate_fh"):
            fh = getattr(self, fh_attr)
            if fh is not None:
                fh.close()
                setattr(self, fh_attr, None)

    # -- reporting -------------------------------------------------------

    def _result(self, exit_code: int) -> NodeResult:
        return NodeResult(pid=self.pid, exit_code=exit_code)

    def _write_summary(self) -> None:
        assert self.runtime is not None and self.proc is not None
        assert self._transport is not None and self.compaction is not None
        payload = {
            "pid": self.pid,
            "gid": self.gid,
            "delivered": self._delivered,
            "expected": self.expected,
            "latencies_ms": [
                round(l, 3) for client in self._clients for l in client.latencies
            ],
            "wall_ms": round(self.runtime.net_scheduler.now, 3),
            "submitted": self._submitted,
            "codec": self.topology.codec,
            "transport": self._transport.stats(),
            "events": self.runtime.net_scheduler.events_processed,
            "epochs_seen": self._epochs_seen,
            "heartbeats_sent": self._heartbeats,
            "compaction": {
                "runs": self.compaction.runs,
                "freed": self.compaction.freed,
                "t_base": self.proc._t_base,
            },
        }
        (self.rundir / f"summary-{self.pid}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def run_node(topology: ClusterSpec, pid: int, rundir: Path) -> int:
    """Blocking entry point for one node OS process."""
    node = NetNode(topology, pid, Path(rundir))
    result = asyncio.run(node.run())
    return result.exit_code
