"""Simulated message-passing network.

Channels are pairwise, reliable and FIFO (the paper's prototype relies on
TCP, §7.1): messages between a given ``(src, dst)`` pair are delivered in
send order even when sampled latencies would reorder them. Channels never
create, corrupt or duplicate messages. A crashed process neither sends
nor receives.

The transport keeps one :class:`_Channel` object per directed pair,
created lazily on first use. A channel caches everything the hot path
needs — the receiver's enqueue callback, the latency model's
``(mean, stddev, floor)`` sampling recipe and the FIFO arrival clamp —
so delivering a message costs one dict lookup instead of four (receiver,
latency cache, arrival clamp read, arrival clamp write). The inline
sampling consumes the RNG and performs float arithmetic **exactly** as
``LatencyModel.sample`` does, so the event schedule is bit-identical to
the per-call form (pinned by the golden determinism suite).

The network also hosts the observability hooks used by the evaluation
harness and the verification layer:

* ``counts_by_kind`` — how many messages of each protocol kind were sent
  (drives the Table 1 message-complexity measurements).
* ``trace_hooks`` — callbacks invoked on every send, used by the
  genuineness checker to assert that only the sender and destinations of
  a multicast exchange messages for it.
* ``add_transmit_interceptor`` — callbacks that may delay or swallow a
  departure (fault injection, flight recording). Replaces the historical
  pattern of assigning over ``network.transmit`` on the instance, which
  a slotted Network cannot support.
"""

from __future__ import annotations

import random
from collections import Counter
from heapq import heappush
from math import inf
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from .events import Scheduler
from .latency import LatencyModel

if TYPE_CHECKING:  # pragma: no cover
    from .process import SimProcess

TraceHook = Callable[[int, int, Any, float], None]

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


class _Channel:
    """Cached hot-path state of one directed ``(src, dst)`` pair."""

    __slots__ = ("enqueue", "mean", "stddev", "floor", "last", "is_self", "direct")

    def __init__(
        self,
        enqueue: Callable[[int, Any], None],
        is_self: bool,
        direct: bool,
        mean: float,
        stddev: float,
        floor: float,
    ) -> None:
        #: the receiver's (pre-bound) enqueue_message callback
        self.enqueue = enqueue
        #: src == dst: zero latency, no FIFO clamp (not a wire)
        self.is_self = is_self
        #: latency params known — sample inline; else fall back to
        #: ``latency.sample`` per message (custom models)
        self.direct = direct
        self.mean = mean
        self.stddev = stddev
        self.floor = floor
        #: arrival time of the last message on this channel (FIFO clamp)
        self.last = -inf


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
        "counts_by_kind",
        "messages_sent",
        "trace_hooks",
        "_interceptors",
        "_channels",
        "_blocked_pairs",
        "_parked",
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
        self.counts_by_kind: "Counter[str]" = Counter()
        self.messages_sent = 0
        self.trace_hooks: List[TraceHook] = []
        self._interceptors: List[TransmitInterceptor] = []
        # Directed pair -> channel, keyed by src * _PID_STRIDE + dst.
        self._channels: Dict[int, _Channel] = {}
        # Directed pair -> number of active blocks. Refcounting (rather
        # than a plain set) makes overlapping partitions compose: a pair
        # blocked by two partitions stays blocked until *both* are
        # lifted, so healing one partition cannot prematurely release
        # parked traffic of the other (which would break channel FIFO
        # for messages parked behind the still-standing block).
        self._blocked_pairs: Dict[Tuple[int, int], int] = {}
        # Messages caught by a partition. Channels are reliable (§2.1):
        # before the GST traffic is *delayed*, not lost, so parked
        # messages are released when the pair heals.
        self._parked: List[Tuple[int, int, Any]] = []

    def register(self, proc: "SimProcess") -> None:
        """Attach a process; its pid must be unique."""
        if proc.pid in self.processes:
            raise ValueError(f"duplicate pid {proc.pid}")
        self.processes[proc.pid] = proc

    def add_trace_hook(self, hook: TraceHook) -> None:
        """Register ``hook(src, dst, msg, depart_time)`` on every send."""
        self.trace_hooks.append(hook)

    def add_transmit_interceptor(self, interceptor: TransmitInterceptor) -> None:
        """Register an interceptor on the transmit path (see
        :data:`TransmitInterceptor`). Used by the chaos nemesis (delay
        spikes) and the flight recorder."""
        self._interceptors.append(interceptor)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def block_pair(self, a: int, b: int) -> None:
        """Park all traffic between a and b (both directions): partition.

        Blocks are refcounted: blocking the same pair twice (e.g. via
        two overlapping :meth:`partition` calls) requires two unblocks
        before traffic flows again.
        """
        blocked = self._blocked_pairs
        blocked[(a, b)] = blocked.get((a, b), 0) + 1
        blocked[(b, a)] = blocked.get((b, a), 0) + 1

    def unblock_pair(self, a: int, b: int) -> None:
        """Drop one block on the pair; parked traffic is released once no
        block remains (and never sooner — see ``_blocked_pairs``)."""
        blocked = self._blocked_pairs
        for pair in ((a, b), (b, a)):
            count = blocked.get(pair, 0)
            if count > 1:
                blocked[pair] = count - 1
            elif count == 1:
                del blocked[pair]
        self._release_parked()

    def partition(self, side_a: List[int], side_b: List[int]) -> None:
        """Block all pairs across the two sides (traffic is delayed, not
        lost — the pre-GST asynchrony of §2.1)."""
        for a in side_a:
            for b in side_b:
                self.block_pair(a, b)

    def heal(self) -> None:
        """Remove all partitions and release parked traffic in order."""
        self._blocked_pairs.clear()
        self._release_parked()

    def _release_parked(self) -> None:
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        for src, dst, msg in parked:
            if (src, dst) in self._blocked_pairs:
                self._parked.append((src, dst, msg))
            else:
                self._deliver(src, dst, msg, self.scheduler.now)

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
        if src == dst:
            ch = _Channel(receiver._enqueue_cb, True, False, 0.0, 0.0, 0.0)
        else:
            params = self.latency.pair_params(src, dst)
            if params is None:
                ch = _Channel(receiver._enqueue_cb, False, False, 0.0, 0.0, 0.0)
            else:
                mean, stddev, floor = params
                ch = _Channel(receiver._enqueue_cb, False, True, mean, stddev, floor)
        self._channels[key] = ch
        return ch

    def transmit(self, src: int, dst: int, msg: Any, depart_time: float) -> None:
        """Send ``msg`` from src to dst, departing at ``depart_time``.

        Called by :class:`~repro.sim.process.SimProcess` once the sender's
        CPU has finished the handler that produced the message. Local
        (self) messages skip the network but still go through the
        receiver's inbox, so handling them costs CPU like any other.

        This is the hottest function of the substrate: every wire message
        of every protocol passes through it once. The body is the fast
        path — interceptors, trace hooks and fault injection only cost
        when actually in use, and delivery is inlined rather than
        delegated.
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
            self.counts_by_kind[kind] += 1
        if self.trace_hooks:
            for hook in self.trace_hooks:
                hook(src, dst, msg, depart_time)

        if self._blocked_pairs and (src, dst) in self._blocked_pairs:
            self._parked.append((src, dst, msg))
            return

        try:
            ch = self._channels[src * _PID_STRIDE + dst]
        except KeyError:
            ch = self._channel(src, dst, src * _PID_STRIDE + dst)
        if ch.is_self:
            arrival = depart_time
        else:
            if ch.direct:
                # Inlined LatencyModel.sample: same RNG consumption, same
                # float arithmetic (see latency.pair_params).
                stddev = ch.stddev
                if stddev != 0.0:
                    value = self._gauss(ch.mean, stddev)
                    floor = ch.floor
                    arrival = depart_time + (value if value > floor else floor)
                else:
                    arrival = depart_time + ch.mean
            else:
                arrival = depart_time + self.latency.sample(src, dst, self.rng)
            # Enforce per-channel FIFO (TCP-like): never deliver before a
            # previously sent message on the same channel.
            if arrival <= ch.last:
                arrival = ch.last + _FIFO_EPSILON
            ch.last = arrival
        # Equivalent to scheduler.schedule(...) with the past-check
        # elided: arrival >= depart_time >= now by construction.
        sched = self.scheduler
        heappush(sched._heap, (arrival, sched._seq, ch.enqueue, (src, msg)))
        sched._seq += 1

    def _deliver(self, src: int, dst: int, msg: Any, depart_time: float) -> None:
        """Slow-path delivery, used when parked traffic is released."""
        ch = self._channels.get(src * _PID_STRIDE + dst)
        if ch is None:
            ch = self._channel(src, dst, src * _PID_STRIDE + dst)
        if ch.is_self:
            arrival = depart_time
        else:
            if ch.direct:
                stddev = ch.stddev
                if stddev != 0.0:
                    value = self._gauss(ch.mean, stddev)
                    floor = ch.floor
                    arrival = depart_time + (value if value > floor else floor)
                else:
                    arrival = depart_time + ch.mean
            else:
                arrival = depart_time + self.latency.sample(src, dst, self.rng)
            if arrival <= ch.last:
                arrival = ch.last + _FIFO_EPSILON
            ch.last = arrival
        self.scheduler.schedule(arrival, ch.enqueue, (src, msg))
