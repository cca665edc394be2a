"""Simulated message-passing network.

Channels are pairwise, reliable and FIFO (the paper's prototype relies on
TCP, §7.1): messages between a given ``(src, dst)`` pair are delivered in
send order even when sampled latencies would reorder them. Channels never
create, corrupt or duplicate messages. A crashed process neither sends
nor receives. Faults on the wire are transmit interceptors (below): a
partition before the GST is a window that holds each departure across
the cut until the window ends — traffic is delayed, not lost (§2.1).

The transport keeps one :class:`_Channel` object per directed pair,
created lazily on first use. A channel caches everything the hot path
needs — its receiver, the latency model's ``(mean, stddev, floor)``
sampling recipe and the FIFO arrival clamp — so delivering a message
costs one dict lookup instead of four (receiver, latency cache, arrival
clamp read, arrival clamp write). Every latency model is its
``pair_params``, so this inline draw is the only sampling path; it
consumes the RNG and performs float arithmetic **exactly** as
``LatencyModel.sample`` does, so the event schedule is bit-identical to
the per-call form (pinned by the golden determinism suite).

Only a channel's **head** — its earliest undelivered message — sits in
the scheduler's heap; the messages behind it wait in the channel's own
FIFO queue, each already stamped with its ``(arrival, seq)`` key (the
sequence number is taken at transmit time, as for any event). When the
head fires, the channel pushes its next entry, under that entry's
original key, before handing the message to the receiver. This is
exact, not an approximation: arrivals on a channel strictly increase
(the FIFO clamp), so each queue is sorted by ``(arrival, seq)`` and the
heap's minimum is always the minimum over every pending delivery. Events
run in the same order, with the same count, as if every message had its
own heap entry; the heap just holds one entry per busy channel (about
400 under the WAN load point) instead of one per message in flight
(about 16,000). :meth:`Scheduler.pending` still counts the held-back
messages, through :meth:`Network.held_back`.

The network also hosts the observability hooks used by the evaluation
harness and the verification layer:

* ``counts_by_kind`` — how many messages of each protocol kind were sent
  (drives the Table 1 message-complexity measurements). Counted in a
  plain dict: a ``Counter`` defines ``__delitem__`` in Python, which
  routes every item store through a Python-level slot (~4x the cost of
  a dict store, once per wire message).
* ``add_transmit_interceptor`` — the one transmit seam: callbacks that
  see every departure and may delay or swallow it (the chaos nemesis's
  delay spikes, a test's partition window). An observer is an
  interceptor that returns the departure time unchanged — the flight recorder of :mod:`.trace`,
  whose records the genuineness verdict of :mod:`repro.verify` judges.
  Replaces the historical pattern of assigning over
  ``network.transmit`` on the instance, which a slotted Network cannot
  support.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from heapq import heappush
from math import inf
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from .events import Scheduler
from .latency import LatencyModel

if TYPE_CHECKING:  # pragma: no cover
    from .process import SimProcess

#: An interceptor sees every departure before the transport does. It
#: returns the (possibly adjusted) departure time to let the message
#: proceed, or ``None`` to swallow it entirely (the interceptor then owns
#: re-injection, if any). Interceptors run in installation order.
TransmitInterceptor = Callable[[int, int, Any, float], Optional[float]]

#: Minimum spacing between two deliveries on one channel, used to preserve
#: FIFO order when jitter would reorder messages (models TCP in-order
#: delivery on one connection).
_FIFO_EPSILON = 1e-9

#: Directed pairs are keyed as ``src * _PID_STRIDE + dst`` — an int key
#: hashes faster than a tuple and allocates nothing. Pids must stay below
#: the stride (enforced at channel creation).
_PID_STRIDE = 1 << 20


#: A queued delivery: the heap entry the channel pushes when the message
#: becomes its head, ``(arrival, seq, channel.release, (src, msg))``.
_Entry = Tuple[float, int, Callable[[int, Any], None], Tuple[int, Any]]


class _Channel:
    """Cached hot-path state and delivery queue of one directed pair."""

    __slots__ = (
        "receiver", "heap", "mean", "stddev", "floor", "last", "is_self",
        "busy", "waiting", "release",
    )

    def __init__(
        self,
        receiver: "SimProcess",
        heap: List[Tuple[float, int, Any, Any]],
        is_self: bool,
        mean: float,
        stddev: float,
        floor: float,
    ) -> None:
        #: the receiving process; its ``_enqueue_cb`` is read at delivery
        #: time, so a callback rewritten later (``attach_omegas``) is used
        self.receiver = receiver
        #: the scheduler's heap list. Safe to keep: ``Scheduler._compact``
        #: rebuilds it in place and nothing rebinds ``Scheduler._heap``.
        self.heap = heap
        #: src == dst: zero latency, no FIFO clamp (not a wire)
        self.is_self = is_self
        #: the latency model's ``pair_params``, drawn inline per message
        self.mean = mean
        self.stddev = stddev
        self.floor = floor
        #: arrival of the last message queued here: the FIFO clamp, and
        #: for a self-send the queue's tail
        self.last = -inf
        #: True while the channel's head is in the heap
        self.busy = False
        #: entries behind the head, in ``(arrival, seq)`` order
        self.waiting: Deque[_Entry] = deque()
        # Bound once: every queued entry carries it.
        self.release: Callable[[int, Any], None] = self._release

    def _release(self, src: int, msg: Any) -> None:
        """The head fired: put the next entry in the heap, then deliver."""
        waiting = self.waiting
        if waiting:
            heappush(self.heap, waiting.popleft())
        else:
            self.busy = False
        self.receiver._enqueue_cb(src, msg)

    def deliver(self, src: int, msg: Any) -> None:
        """Deliver a message that bypassed the queue (a self-send an
        interceptor left ahead of the queue's tail, see ``transmit``)."""
        self.receiver._enqueue_cb(src, msg)


class Network:
    """Routes messages between registered processes.

    Args:
        scheduler: the shared discrete-event scheduler.
        latency: one-way latency model.
        rng: RNG used for latency sampling (derive via
            :func:`repro.sim.rng.child_rng` for determinism).
    """

    __slots__ = (
        "scheduler",
        "latency",
        "rng",
        "processes",
        "_kinds",
        "messages_sent",
        "_interceptors",
        "_channels",
        "_gauss",
    )

    def __init__(
        self, scheduler: Scheduler, latency: LatencyModel, rng: random.Random
    ) -> None:
        self.scheduler = scheduler
        self.latency = latency
        self.rng = rng
        # Bound once: the jitter draw happens for nearly every wire
        # message, and ``self.rng.gauss`` re-binds the method each time.
        self._gauss = rng.gauss
        self.processes: Dict[int, "SimProcess"] = {}
        self._kinds: Dict[str, int] = {}
        self.messages_sent = 0
        self._interceptors: List[TransmitInterceptor] = []
        # Directed pair -> channel, keyed by src * _PID_STRIDE + dst.
        self._channels: Dict[int, _Channel] = {}
        scheduler.count_held(self.held_back)

    def register(self, proc: "SimProcess") -> None:
        """Attach a process; its pid must be unique."""
        if proc.pid in self.processes:
            raise ValueError(f"duplicate pid {proc.pid}")
        self.processes[proc.pid] = proc

    @property
    def counts_by_kind(self) -> "Counter[str]":
        """Messages sent so far, by protocol kind (a snapshot)."""
        return Counter(self._kinds)

    def held_back(self) -> int:
        """Deliveries queued behind a channel head, outside the heap.
        O(channels); :meth:`Scheduler.pending` adds it to its count."""
        return sum(len(ch.waiting) for ch in self._channels.values())

    def add_transmit_interceptor(self, interceptor: TransmitInterceptor) -> None:
        """Register an interceptor on the transmit path (see
        :data:`TransmitInterceptor`). Used by the chaos nemesis (delay
        spikes), the flight recorder (:func:`.trace.record_flights`) and
        the tests' partition windows."""
        self._interceptors.append(interceptor)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _channel(self, src: int, dst: int, key: int) -> _Channel:
        """Build (and cache) the channel for one directed pair."""
        receiver = self.processes.get(dst)
        if receiver is None:
            raise KeyError(f"unknown destination pid {dst}")
        if not (0 <= src < _PID_STRIDE and 0 <= dst < _PID_STRIDE):
            raise ValueError(
                f"pids must be in [0, {_PID_STRIDE}) for channel keying, "
                f"got ({src}, {dst})"
            )
        heap = self.scheduler._heap
        if src == dst:
            ch = _Channel(receiver, heap, True, 0.0, 0.0, 0.0)
        else:
            mean, stddev, floor = self.latency.pair_params(src, dst)
            ch = _Channel(receiver, heap, False, mean, stddev, floor)
        self._channels[key] = ch
        return ch

    def transmit(self, src: int, dst: int, msg: Any, depart_time: float) -> None:
        """Send ``msg`` from src to dst, departing at ``depart_time``.

        Called by :class:`~repro.sim.process.SimProcess` once the sender's
        CPU has finished the handler that produced the message. Local
        (self) messages skip the network but still go through the
        receiver's inbox, so handling them costs CPU like any other.

        This is the hottest function of the substrate: every wire message
        of every protocol passes through it once. Interceptors only cost
        when installed; then the arrival is sampled and the message is
        queued on its channel.
        """
        if self._interceptors:
            for interceptor in self._interceptors:
                adjusted = interceptor(src, dst, msg, depart_time)
                if adjusted is None:
                    return
                depart_time = adjusted
        self.messages_sent += 1
        # All wire message classes carry a class-level ``kind`` (asserted
        # by the core/messages test suite); the try/except only triggers
        # for ad-hoc payloads injected by tests.
        try:
            kind = msg.kind
        except AttributeError:
            kind = None
        if kind is not None:
            kinds = self._kinds
            kinds[kind] = kinds.get(kind, 0) + 1
        try:
            ch = self._channels[src * _PID_STRIDE + dst]
        except KeyError:
            ch = self._channel(src, dst, src * _PID_STRIDE + dst)
        sched = self.scheduler
        if ch.is_self:
            arrival = depart_time
            if arrival < ch.last and ch.busy:
                # A self-send has no FIFO clamp, so an interceptor that
                # delayed an earlier departure can leave this one ahead
                # of the queue's tail. It cannot join the queue without
                # breaking its order; it takes a heap entry of its own.
                heappush(sched._heap, (arrival, sched._seq, ch.deliver, (src, msg)))
                sched._seq += 1
                return
        else:
            # Inlined LatencyModel.sample: same RNG consumption, same
            # float arithmetic (see latency.pair_params).
            stddev = ch.stddev
            if stddev != 0.0:
                value = self._gauss(ch.mean, stddev)
                floor = ch.floor
                arrival = depart_time + (value if value > floor else floor)
            else:
                arrival = depart_time + ch.mean
            # Enforce per-channel FIFO (TCP-like): never deliver before a
            # previously sent message on the same channel.
            if arrival <= ch.last:
                arrival = ch.last + _FIFO_EPSILON
        ch.last = arrival
        # arrival >= depart_time >= now by construction, so the
        # scheduler's past-check is elided.
        entry = (arrival, sched._seq, ch.release, (src, msg))
        sched._seq += 1
        if ch.busy:
            ch.waiting.append(entry)
        else:
            ch.busy = True
            heappush(sched._heap, entry)
