"""Shared helpers for the test suite: mini system builders and drivers."""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.baselines import ClassicProcess
from repro.core import Multicast, uniform_groups
from repro.election import attach_omegas
from repro.harness.runner import make_processes
from repro.sim import (
    ConstantLatency,
    CostModel,
    FailureInjector,
    LatencyModel,
    Network,
    Scheduler,
    child_rng,
    make_clocks,
)
from repro.verify import Violation, collect_violations


def partition(
    network: Network, side_a: Iterable[int], side_b: Iterable[int], start: float, end: float
) -> None:
    """Cut every pair across ``side_a``/``side_b`` (both directions)
    during ``[start, end)``: a departure across the cut in the window
    leaves at ``end``, the GST. Traffic is delayed, not lost (§2.1), and
    the channel's FIFO clamp keeps its order. Windows compose in
    installation order."""
    a, b = frozenset(side_a), frozenset(side_b)

    def window(src: int, dst: int, msg: Any, depart_time: float) -> float:
        if start <= depart_time < end and (
            (src in a and dst in b) or (src in b and dst in a)
        ):
            return end
        return depart_time

    network.add_transmit_interceptor(window)


class MiniSystem:
    """A small deployment plus the multicasts submitted through it: the
    suite's one builder of a uniform-group deployment on one latency
    model. ``primcast-hc`` processes get clocks skewed within
    ``epsilon_ms``; ``suspect_ms`` attaches a heartbeat Ω to every
    PrimCast process, whose rounds keep the event heap busy, so such a
    system runs with :meth:`run`, never :meth:`run_to_quiescence`."""

    def __init__(
        self,
        protocol: str = "primcast",
        n_groups: int = 2,
        group_size: int = 3,
        latency: Optional[LatencyModel] = None,
        cost_model: Optional[CostModel] = None,
        seed: int = 1,
        epsilon_ms: float = 1.0,
        suspect_ms: Optional[float] = None,
    ):
        self.config = uniform_groups(n_groups, group_size)
        self.scheduler = Scheduler()
        self.network = Network(
            self.scheduler, latency or ConstantLatency(1.0), child_rng(seed, "net")
        )
        if protocol == "classic":
            # Outside the protocol table: only the tests build Classic.
            self.processes: Dict[int, Any] = {
                pid: ClassicProcess(
                    pid, self.config, self.scheduler, self.network, cost_model
                )
                for pid in self.config.all_pids
            }
        else:
            clocks = None
            if protocol == "primcast-hc":
                clocks = make_clocks(
                    self.scheduler, self.config.all_pids, epsilon_ms,
                    child_rng(seed, "skew"),
                )
            self.processes = make_processes(
                protocol, self.config, self.scheduler, self.network, cost_model, clocks
            )
        #: pid -> its Ω (``suspect_ms`` set only)
        self.oracles = (
            attach_omegas(self.processes, suspect_ms) if suspect_ms is not None else None
        )
        self.injector = FailureInjector(self.scheduler, self.processes)
        #: every multicast submitted through :meth:`multicast` or
        #: :func:`random_workload` — integrity's reference set
        self.multicasts: Dict[Any, Multicast] = {}

    # ------------------------------------------------------------------

    def multicast(self, sender_pid: int, dest: Set[int], payload: Any = None) -> Multicast:
        m = self.processes[sender_pid].a_multicast(dest, payload)
        self.multicasts[m.mid] = m
        return m

    def run(self, until: float = 1000.0) -> None:
        self.scheduler.run(until=until)

    def run_to_quiescence(self, max_time: float = 100000.0) -> None:
        """Run until no events remain (or max_time)."""
        self.scheduler.run(until=max_time)

    # ------------------------------------------------------------------
    # views for the property checkers
    # ------------------------------------------------------------------

    @property
    def deliveries(self) -> Dict[int, List[Tuple[Any, int, float]]]:
        """pid -> its ``delivery_log``, ``[(mid, final_ts, time)]``."""
        return {pid: proc.delivery_log for pid, proc in self.processes.items()}

    logs = deliveries

    def dest_pids_of(self) -> Dict[Any, Set[int]]:
        return {
            mid: set(self.config.dest_pids(m.dest))
            for mid, m in self.multicasts.items()
        }

    def correct_pids(self) -> Set[int]:
        return {
            pid for pid, proc in self.processes.items() if not proc.crashed
        }

    def violations(self, **extra: Any) -> List[Violation]:
        """Every §2.2 property over every process's log, Validity
        included, so call it once the run has quiesced; ``extra`` goes
        on to :func:`repro.verify.collect_violations`."""
        return collect_violations(
            self.logs, set(self.multicasts), self.dest_pids_of(), self.correct_pids(),
            validity=True, **extra,
        )


class LogHost(ClassicProcess):
    """A Classic member recording ``(slot, action, mid, time)`` for each
    group-log entry it applies."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.applied: List[Tuple[int, str, Any, float]] = []

    def _apply_entry(self, entry: Any) -> None:
        # The cursor has already moved past the slot being applied.
        slot = self._apply_cursor - 1
        self.applied.append((slot, entry.action, entry.multicast.mid, self.scheduler.now))
        super()._apply_entry(entry)

    def entries(self) -> List[Tuple[int, str, Any]]:
        """The applied entries without their application times."""
        return [(slot, action, mid) for slot, action, mid, _ in self.applied]


def build_log_hosts(
    n_groups: int = 1, group_size: int = 3, latency: Optional[LatencyModel] = None
) -> Tuple[Any, Scheduler, Network, Dict[int, LogHost]]:
    """A Classic deployment of :class:`LogHost` members."""
    config = uniform_groups(n_groups, group_size)
    sched = Scheduler()
    net = Network(sched, latency or ConstantLatency(1.0), child_rng(4, "log"))
    hosts = {pid: LogHost(pid, config, sched, net) for pid in config.all_pids}
    return config, sched, net, hosts


def random_workload(
    system: MiniSystem,
    n_messages: int,
    seed: int = 7,
    max_dest_groups: Optional[int] = None,
    spread_ms: float = 50.0,
) -> List[Multicast]:
    """Inject ``n_messages`` multicasts from random senders at random
    times with random destination sets."""
    rng = random.Random(seed)
    n_groups = system.config.n_groups
    max_d = max_dest_groups or n_groups
    sent = []
    all_pids = system.config.all_pids
    for _ in range(n_messages):
        sender = rng.choice(all_pids)
        n_dest = rng.randint(1, max_d)
        dest = set(rng.sample(range(n_groups), n_dest))
        when = rng.uniform(0, spread_ms)

        def issue(pid: int = sender, d: Set[int] = dest) -> None:
            sent.append(system.multicast(pid, d))

        system.scheduler.call_at(when, issue)
    return sent


# ----------------------------------------------------------------------
# a repro.net node without sockets
# ----------------------------------------------------------------------


class _Handle:
    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class CountingLoop:
    """Stands in for the event loop: counts clock reads (each moves the
    clock 1 ms) and keeps the callbacks it is handed instead of running
    them."""

    def __init__(self) -> None:
        self.reads = 0
        #: (delay s, fn, args) per ``call_later``
        self.timers: List[Tuple[float, Any, Tuple[Any, ...]]] = []
        #: (loop time, fn, args) per ``call_at``
        self.at: List[Tuple[float, Any, Tuple[Any, ...]]] = []
        #: (fn, args) per ``call_soon``
        self.soon: List[Tuple[Any, Tuple[Any, ...]]] = []

    def time(self) -> float:
        self.reads += 1
        return self.reads * 0.001

    def call_later(self, delay: float, fn: Any, *args: Any) -> _Handle:
        self.timers.append((delay, fn, args))
        return _Handle()

    def call_at(self, when: float, fn: Any, *args: Any) -> _Handle:
        self.at.append((when, fn, args))
        return _Handle()

    def call_soon(self, fn: Any, *args: Any) -> _Handle:
        self.soon.append((fn, args))
        return _Handle()


class RecordingTransport:
    """What a NetNode's facade stages, by destination, in order."""

    def __init__(self) -> None:
        self.sent: List[Tuple[int, bytes]] = []

    def send_frame_bytes(self, dst: int, data: bytes) -> None:
        self.sent.append((dst, data))


def serving_node(rundir: Any, loop: CountingLoop, pid: int = 0) -> Tuple[Any, RecordingTransport]:
    """Node ``pid`` of a 2x3 binary-codec cluster, assembled as
    ``NetNode._run`` assembles a serving node — PrimCast process, Ω
    started — but on ``loop`` and staging into a RecordingTransport."""
    from types import SimpleNamespace

    from repro.core import PrimCastProcess
    from repro.net.cluster import ClusterSpec, make_topology
    from repro.election import HeartbeatOmega
    from repro.net.host import NetNode, NetScheduler, TransportFacade

    node = NetNode(make_topology(ClusterSpec(n_groups=2, group_size=3, codec="binary")), pid, rundir)
    sched = NetScheduler(loop)  # type: ignore[arg-type]
    facade = TransportFacade(sched, binary=True)
    node.runtime = SimpleNamespace(net_scheduler=sched, transport_facade=facade)
    node.proc = PrimCastProcess(pid, node.config, sched, facade, CostModel())
    transport = RecordingTransport()
    facade.bind(transport)  # type: ignore[arg-type]
    omega = node.omega = HeartbeatOmega(
        node.gid, node.config.members(node.gid), pid, sched, lambda: None
    )
    omega.subscribe(node.proc._on_omega_output)
    omega.start()
    return node, transport
