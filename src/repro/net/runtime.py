"""The backend-agnostic runtime seam between protocol and substrate.

The protocol stack (:mod:`repro.core`, :mod:`repro.rmcast`,
:mod:`repro.election`) never talks to sockets or event loops directly —
every interaction with the outside world goes through exactly two
objects handed to a process at construction time:

* a **scheduler** — ``now`` plus timer scheduling (``call_after`` /
  ``call_at`` / ``schedule``) and the documented allocation-free fast
  path (``_heap`` / ``_seq``, see :class:`SchedulerAPI`);
* a **transport** — ``register`` + ``transmit``.

This module names that implicit seam: :class:`SchedulerAPI` and
:class:`TransportAPI` are structural protocols the discrete-event
classes (:class:`repro.sim.events.Scheduler`,
:class:`repro.sim.network.Network`) already satisfy verbatim, and that
the asyncio backend (:mod:`repro.net.host`) implements with facades
over a real event loop and real TCP connections. A protocol process is
backend-agnostic by construction: the *same* ``PrimCastProcess`` object
runs on either substrate.

:class:`Runtime` bundles one scheduler + transport pair with the
lifecycle operations drivers need (``now`` / ``call_after`` / ``run`` /
probe hooks). :class:`SimRuntime` is the
simulation adapter — a thin aggregate over an untouched ``Scheduler`` +
``Network`` pair, so the sim path's event schedule is bit-identical to
constructing the two directly (the goldens pin this).

Timer semantics shared by both backends: time is a float in
milliseconds, monotone non-decreasing, starting at 0.0 at runtime
creation. The sim reads it from the event heap; the asyncio backend
derives it from ``time.monotonic()``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Any,
    Callable,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

#: Runtime-level probe hooks observe substrate events (connection
#: established, reconnect, peer suspected, node ready, ...) the way
#: process-level probe hooks observe protocol steps:
#: ``hook(event, data)``.
RuntimeProbe = Callable[[str, Any], None]


@runtime_checkable
class TimerHandle(Protocol):
    """What ``call_at``/``call_after`` return: something cancellable."""

    def cancel(self) -> None: ...


@runtime_checkable
class SchedulerAPI(Protocol):
    """Structural contract of the scheduler half of the seam.

    Beyond the timer methods, two implementation attributes are part of
    the *public* contract, because the CPU-queue hot paths in
    :mod:`repro.sim.process` push service events through them without a
    method call (one heap push per protocol event):

    * ``_heap`` — a ``heapq`` list of ``(time, seq, fn, args)`` entries;
      callers may push entries with ``time >= now`` directly.
    * ``_seq`` — the insertion tie-breaker; callers pushing into
      ``_heap`` must consume and increment it.

    Any conforming scheduler must execute heap entries in ``(time,
    seq)`` order, run each callback to completion before the next
    (handler atomicity — the RACE202 standing-proposal contract,
    DESIGN.md §10/§12), and never run a callback concurrently with
    another of the same runtime.
    """

    _heap: List[Tuple[float, int, Any, Any]]
    _seq: int

    @property
    def now(self) -> float: ...

    def schedule(
        self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...] = ()
    ) -> None: ...

    def call_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle: ...

    def call_after(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle: ...


@runtime_checkable
class TransportAPI(Protocol):
    """Structural contract of the transport half of the seam.

    ``transmit`` must preserve per-``(src, dst)`` FIFO order — the
    rmcast watermark dedupe depends on it (the sim gives it via ordered
    channel queues, the net backend via one TCP connection per peer
    pair). ``depart_time`` is advisory: the sim uses it to model CPU
    completion, the net backend ships the frame immediately.
    """

    def register(self, proc: Any) -> None: ...

    def transmit(self, src: int, dst: int, msg: Any, depart_time: float) -> None: ...


@runtime_checkable
class LeaderOracle(Protocol):
    """Structural contract of Ω (§2.1) as the protocol consumes it.

    ``subscribe`` must invoke the callback immediately with the current
    output and again on every change, from scheduler context.
    Satisfied by :class:`repro.election.omega.OmegaOracle` (sim,
    crash-flag polling) and :class:`repro.net.election.HeartbeatOmega`
    (asyncio, heartbeat timeouts).
    """

    leader: int

    def subscribe(self, callback: Callable[[int, int], None]) -> None: ...


@runtime_checkable
class ProcessLike(Protocol):
    """What the sim oracle needs to observe of a process."""

    pid: int
    crashed: bool


class Runtime(ABC):
    """One substrate instance: a scheduler + transport pair plus
    lifecycle helpers.

    Protocol processes still take the two halves separately (their
    constructors predate this seam and the hot paths bind them
    directly); the runtime is the object *drivers* hold — apps, the
    harness and the cluster nodes construct processes from
    ``runtime.scheduler`` / ``runtime.transport`` and drive them through
    ``run`` / ``call_after``.
    """

    #: Backend tag recorded in results ("sim" or "net").
    backend: str = "sim"

    def __init__(self) -> None:
        self.probe_hooks: List[RuntimeProbe] = []

    @property
    @abstractmethod
    def scheduler(self) -> SchedulerAPI:
        """The scheduler half of the seam."""

    @property
    @abstractmethod
    def transport(self) -> TransportAPI:
        """The transport half of the seam."""

    @abstractmethod
    def run(self, until: float) -> float:
        """Advance this runtime until time ``until`` (ms); returns the
        time reached. Sim: drain the event heap. Net: pump the event
        loop for the corresponding wall-clock span."""

    def now(self) -> float:
        """Current time in milliseconds since runtime start."""
        return self.scheduler.now

    def call_after(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Schedule ``fn(*args)`` after ``delay`` ms of runtime time."""
        return self.scheduler.call_after(delay, fn, *args)

    def add_probe_hook(self, hook: RuntimeProbe) -> None:
        """Register ``hook(event, data)`` on substrate events."""
        self.probe_hooks.append(hook)

    def probe(self, event: str, data: Any = None) -> None:
        """Fire every registered probe hook."""
        for hook in self.probe_hooks:
            hook(event, data)


class SimRuntime(Runtime):
    """The simulation adapter: an untouched ``Scheduler`` + ``Network``
    pair behind the :class:`Runtime` surface.

    Pure aggregation — no call interposition, no wrapper objects on the
    event path — so a system built through a ``SimRuntime`` produces the
    exact event schedule of one wired by hand (goldens stay
    bit-identical).
    """

    backend = "sim"

    def __init__(self, scheduler: Any, network: Any) -> None:
        super().__init__()
        self._scheduler = scheduler
        self._network = network

    @classmethod
    def local(
        cls,
        latency: Optional[Any] = None,
        seed: int = 1,
        rng_label: str = "latency",
    ) -> "SimRuntime":
        """Build a fresh simulated substrate (1 ms constant latency by
        default), seeded like the harness does."""
        from ..sim.events import Scheduler
        from ..sim.latency import ConstantLatency
        from ..sim.network import Network
        from ..sim.rng import child_rng

        scheduler = Scheduler()
        network = Network(
            scheduler, latency or ConstantLatency(1.0), child_rng(seed, rng_label)
        )
        return cls(scheduler, network)

    @property
    def scheduler(self) -> SchedulerAPI:
        sched: SchedulerAPI = self._scheduler
        return sched

    @property
    def transport(self) -> TransportAPI:
        net: TransportAPI = self._network
        return net

    @property
    def network(self) -> Any:
        """The concrete :class:`~repro.sim.network.Network` (sim-only
        surface: trace hooks, partitions, message counts)."""
        return self._network

    def run(self, until: float) -> float:
        result: float = self._scheduler.run(until=until)
        return result
