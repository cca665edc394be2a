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

Timer semantics shared by both backends: time is a float in
milliseconds, monotone non-decreasing, starting at 0.0 when the
scheduler is created (the asyncio backend: in ``[0, 50)``, its epoch
rounded down onto the housekeeping grid). The sim reads it from the
event heap; the asyncio backend derives it from ``time.monotonic()``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Protocol, Tuple, runtime_checkable


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
