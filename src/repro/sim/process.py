"""Simulated processes with a single-server CPU queue.

Each process owns one logical CPU. Incoming messages and posted jobs wait
in a FIFO inbox; the CPU serves them one at a time. Serving a job costs
``recv_cost(msg) + sum(send_cost(m) for m sent by the handler)`` of CPU
time (see :mod:`repro.sim.costs`), and the messages the handler produced
leave the process when that work completes. Under overload the inbox
grows and end-to-end latency rises — this is what produces the hockey-
stick throughput/latency curves of the paper's evaluation (§7.3–7.5).

Protocol implementations subclass :class:`SimProcess` and override
:meth:`on_message`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from .costs import CostModel

if TYPE_CHECKING:
    from ..net.runtime import SchedulerAPI, TransportAPI


class SimProcess:
    """Base class for all simulated processes (replicas and clients).

    The substrate is consumed through the structural seam of
    :mod:`repro.net.runtime`: any ``SchedulerAPI`` / ``TransportAPI``
    pair works — the simulator's :class:`~repro.sim.events.Scheduler` /
    :class:`~repro.sim.network.Network` or the asyncio facades of
    :mod:`repro.net.host`. The hot paths below push directly into
    ``scheduler._heap`` / ``scheduler._seq``; that fast path is part of
    the seam contract (see ``SchedulerAPI``).

    Args:
        pid: globally unique process id.
        scheduler: shared event scheduler (``SchedulerAPI``).
        network: shared transport (``TransportAPI``; the process
            registers itself).
        cost_model: CPU cost model; ``None`` means zero-cost CPU.
    """

    def __init__(
        self,
        pid: int,
        scheduler: "SchedulerAPI",
        network: "TransportAPI",
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.pid = pid
        self.scheduler = scheduler
        self.network = network
        self.cost_model = cost_model or CostModel()
        self.crashed = False
        self.busy_until = 0.0
        self._inbox: Deque[Tuple[Any, ...]] = deque()
        self._serving = False
        # The current handler's sends, one ``(destinations, msg)`` entry
        # per send call: an r-multicast appends its whole destination
        # tuple once (``repro.rmcast.fifo``), a ``send`` a 1-tuple.
        self._outgoing: List[Tuple[Tuple[int, ...], Any]] = []
        self._in_handler = False
        # Pre-bound hot callbacks: the network and the event loop fetch
        # these without creating a fresh bound-method object per event
        # (they are scheduled a million times per load sweep). Stored
        # under *distinct* names, so the methods themselves stay plain
        # class attributes that nothing shadows. Most-derived overrides
        # are picked up because binding happens through ``self``.
        self._enqueue_cb: Callable[[int, Any], None] = self.enqueue_message
        self._serve_cb: Callable[[], None] = self._serve
        self._transmit_cb = network.transmit
        # The cost model's dicts, cached flat: ``_serve`` charges a recv
        # cost for every message and a send cost for every departure, so
        # the two attribute hops through ``self.cost_model`` are paid
        # once here instead of per event. The dicts are aliased live —
        # mutating ``cost_model.recv_costs[...]`` still takes effect —
        # only *rebinding* ``proc.cost_model`` after construction would
        # go stale (nothing in the repo does; the attribute is
        # constructor-only by convention).
        cm = self.cost_model
        self._recv_costs = cm.recv_costs
        self._send_costs = cm.send_costs
        self._default_recv = cm.default_recv
        self._default_send = cm.default_send
        network.register(self)

    # ------------------------------------------------------------------
    # API for subclasses
    # ------------------------------------------------------------------

    def on_message(self, src: int, msg: Any) -> None:
        """Handle a delivered message. Override in subclasses."""
        raise NotImplementedError

    def send(self, dst: int, msg: Any) -> None:
        """Queue ``msg`` for ``dst``; departs when the current job's CPU
        work completes (or immediately if called outside a handler)."""
        if self.crashed:
            return
        if self._in_handler:
            self._outgoing.append(((dst,), msg))
        else:
            # Sent from outside the CPU loop (e.g. test drivers): charge
            # the send cost and transmit right away.
            cost = self.cost_model.send_cost(msg)
            depart = max(self.scheduler.now, self.busy_until) + cost
            self.busy_until = depart
            self.network.transmit(self.pid, dst, msg, depart)

    def post_job(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        """Run ``fn`` on this process's CPU after ``delay`` ms.

        Used for timers and client actions; the job is queued like a
        message and charged any send costs it incurs.
        """
        self.scheduler.call_after(delay, self._enqueue_job, fn)

    def crash(self) -> None:
        """Crash the process: it stops sending and receiving forever."""
        self.crashed = True
        self._inbox.clear()

    # ------------------------------------------------------------------
    # CPU queue machinery
    # ------------------------------------------------------------------
    #
    # Inbox entries are ``(src, msg)`` for messages and ``(None, fn)``
    # for posted jobs; the hot functions below bind attributes to locals
    # and use the scheduler's allocation-free fast path, since one of
    # them runs for every event of every load sweep.

    def enqueue_message(self, src: int, msg: Any) -> None:
        """Called by the network when a message arrives."""
        if self.crashed:
            return
        self._inbox.append((src, msg))
        if not self._serving:
            self._serving = True
            sched = self.scheduler
            start = self.busy_until
            if start < sched.now:
                start = sched.now
            # start >= now, so the scheduler's past-check is elided.
            heappush(sched._heap, (start, sched._seq, self._serve_cb, ()))
            sched._seq += 1

    def _enqueue_job(self, fn: Callable[[], None]) -> None:
        if self.crashed:
            return
        self._inbox.append((None, fn))
        self._maybe_start_service()

    def _maybe_start_service(self) -> None:
        if self._serving or not self._inbox:
            return
        self._serving = True
        start = max(self.scheduler.now, self.busy_until)
        self.scheduler.schedule(start, self._serve_cb)

    def _serve(self) -> None:
        if self.crashed or not self._inbox:
            self._serving = False
            return
        src, payload = self._inbox.popleft()
        # One list reused across serves (an allocation per event adds
        # up); it still holds the previous handler's sends, so clear it.
        outgoing = self._outgoing
        if outgoing:
            outgoing.clear()
        self._in_handler = True
        try:
            if src is not None:
                # Inlined cost_model.recv_cost (no CostModel subclasses
                # exist; costs are keyed on the message kind by contract).
                try:
                    cost = self._recv_costs.get(payload.kind, self._default_recv)
                except AttributeError:
                    cost = self._default_recv
                self.on_message(src, payload)
            else:
                cost = 0.0
                payload()
        finally:
            self._in_handler = False
        if outgoing:
            send_costs = self._send_costs
            default_send = self._default_send
            for dsts, out_msg in outgoing:
                try:
                    each = send_costs.get(out_msg.kind, default_send)
                except AttributeError:
                    each = default_send
                # One addition per destination, in send order: the sum
                # rounds exactly as charging each copy on its own does
                # (``each * len(dsts)`` would not).
                for _ in dsts:
                    cost += each
        sched = self.scheduler
        completion = sched.now + cost
        self.busy_until = completion
        if not self.crashed:
            if outgoing:
                transmit = self._transmit_cb
                pid = self.pid
                for dsts, out_msg in outgoing:
                    for dst in dsts:
                        transmit(pid, dst, out_msg, completion)
            if self._inbox:
                # completion = now + cost >= now: past-check elided.
                heappush(sched._heap, (completion, sched._seq, self._serve_cb, ()))
                sched._seq += 1
            else:
                self._serving = False
        else:
            self._serving = False
            if self._inbox:
                self._maybe_start_service()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} pid={self.pid} {state}>"
