"""FIFO non-uniform reliable multicast (§2.2).

PrimCast and the baselines communicate exclusively through
``r-multicast`` / ``r-deliver``. The properties required are Validity,
Integrity, Non-uniform agreement and FIFO order; non-uniformity permits
one-communication-step implementations [Hadzilacos & Toueg 94], which is
what the paper's latency arithmetic assumes.

Implementation notes:

* FIFO order comes from the per-pair FIFO channels of the simulated
  network (the prototype relies on TCP the same way, §7.1).
* Integrity (deliver at most once, only if multicast) is enforced with a
  per-origin sequence number and a duplicate filter. Because every
  channel is FIFO and each ``(origin, seq)`` envelope crosses a given
  channel exactly once, arrivals from one origin are strictly increasing
  in ``seq``, so the filter is a per-origin high watermark: one int per
  origin, O(origins) memory, not O(messages ever received).
* Non-uniform agreement: with reliable channels, direct per-destination
  sends suffice while the sender is correct; messages multicast by a
  process that crashes mid-send may be lost, which non-uniform agreement
  allows.

Receiving is one loop, :meth:`RMcastProcess.on_message`: it unwraps an
``Envelope`` or a ``Batch``, drops duplicates against the watermark and
hands each r-delivered payload to the handler its class maps to in the
process's ``_r_dispatch`` table. Instrumentation wraps entries of that
table; there is no other receive path.

Batching (opt-in, default off — §7.1's TCP message merging):

The paper's Rust prototype owes much of its throughput to batching the
small mergeable ``ack``/``bump`` messages on each TCP connection. The
endpoint reproduces that lever: with ``batching_ms > 0``, batchable
envelopes departing on the same ``(src, dst)`` channel within the flush
window are packed into a single :class:`Batch` wire message. Per-channel
FIFO is preserved — a non-batchable envelope flushes the channel's
pending batch before departing, so no envelope ever overtakes another on
one channel. With ``batching_ms == 0`` (the default) the layer is
completely inert and the wire trace is identical to the unbatched one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Type

from ..sim.costs import CostModel
from ..sim.process import SimProcess

if TYPE_CHECKING:
    from ..net.runtime import SchedulerAPI, TransportAPI

#: Payload kinds the batching layer may coalesce: PrimCast's small
#: mergeable acknowledgement traffic (§7.1). Everything else always
#: departs immediately.
BATCHABLE_KINDS = frozenset(("ack", "bump"))

#: An r-deliver handler: ``handler(origin, payload)``; what it returns
#: is ignored.
RHandler = Callable[[int, Any], object]


class Envelope:
    """Wire wrapper for an r-multicast payload.

    Exposes the payload's ``kind`` (precomputed at construction — the
    network and the cost model read it on every hop) so the CPU cost
    model charges for the actual protocol message being carried.

    An envelope and its payload are not mutated after ``r_multicast``:
    the simulator hands one object to every destination, and a wire
    backend may keep its encodings in ``wire`` and ``frame``.
    """

    __slots__ = ("origin", "seq", "payload", "dests", "kind", "wire", "frame")

    def __init__(self, origin: int, seq: int, payload: Any, dests: Tuple[int, ...]):
        self.origin = origin
        self.seq = seq
        self.payload = payload
        self.dests = dests
        try:
            self.kind = payload.kind
        except AttributeError:
            self.kind = "rm"
        #: The encoded body, and the whole frame its origin sends to
        #: every destination, set by the backend that serializes this
        #: envelope (``repro.net.codec``, on first encode) so a fan-out
        #: encodes it once; this layer and the simulator never read them.
        #: Sound only under the immutability contract above.
        self.wire: Optional[bytes] = None
        self.frame: Optional[bytes] = None

    @property
    def mid(self) -> Any:
        """Multicast id of the payload if it has one. The genuineness
        verdict reads it (``repro.sim.trace.record_flights``, one flight
        per envelope), and so does the bench tracer (``bench/trace.py``),
        both through ``getattr``: not every wire message is an envelope
        (a heartbeat is not)."""
        return getattr(self.payload, "mid", None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Envelope {self.origin}:{self.seq} {self.kind}>"


class Batch:
    """A coalesced train of envelopes on one ``(src, dst)`` channel.

    One wire message regardless of how many envelopes it carries — the
    simulated counterpart of the prototype merging consecutive small
    messages on a TCP connection (§7.1). Envelopes are unwrapped in
    send order at the receiver, preserving channel FIFO.
    """

    __slots__ = ("envelopes",)
    kind = "batch"

    def __init__(self, envelopes: Tuple[Envelope, ...]):
        self.envelopes = envelopes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Batch of {len(self.envelopes)}>"


class FifoReliableMulticast:
    """Per-process endpoint of the reliable multicast layer.

    Args:
        owner: the process this endpoint belongs to.
        batching_ms: flush window for ack/bump coalescing; 0 disables
            batching entirely (the default — wire-identical to the
            unbatched protocol).
    """

    def __init__(self, owner: SimProcess, batching_ms: float = 0.0):
        if batching_ms < 0:
            raise ValueError(f"batching_ms must be non-negative, got {batching_ms}")
        self.owner = owner
        self.batching_ms = batching_ms
        self._next_seq = 0
        # Dedupe watermark: origin -> highest seq delivered. Arrivals on
        # the origin->self channel are strictly increasing in seq
        # (per-channel FIFO, one transmission per (origin, seq, dst)), so
        # ``seq <= high`` means duplicate. O(origins), not O(history).
        # Read and advanced by RMcastProcess.on_message.
        self._dedupe_high: Dict[int, int] = {}
        # Per-destination coalescing buffers (only used when batching).
        self._pending: Dict[int, List[Envelope]] = {}
        self._armed: Set[int] = set()
        #: Batches actually sent / payloads they carried (perf reporting).
        self.batches_sent = 0
        self.batched_payloads = 0

    def multicast(self, payload: Any, dests: Iterable[int]) -> None:
        """r-multicast ``payload`` to process ids ``dests``.

        The sender delivers its own message too when it is a destination
        (self-channel, zero latency).
        """
        dests = tuple(dests)
        owner = self.owner
        env = Envelope(owner.pid, self._next_seq, payload, dests)
        self._next_seq += 1
        send = owner.send
        if self.batching_ms > 0.0:
            own_pid = owner.pid
            if env.kind in BATCHABLE_KINDS:
                for dst in dests:
                    # The self-channel is not a wire; deliver directly.
                    if dst == own_pid:
                        send(dst, env)
                    else:
                        self._enqueue_batched(dst, env)
                return
            # Non-batchable: flush any pending batch on each channel
            # first so envelopes never overtake each other (FIFO).
            pending = self._pending
            for dst in dests:
                if pending.get(dst):
                    self._flush(dst)
                send(dst, env)
            return
        if owner._in_handler and not owner.crashed:
            # Fast path: sends from inside a handler only append to the
            # owner's outgoing queue — skip the per-destination
            # ``send()`` frame (this loop runs for every multicast of
            # every protocol).
            append = owner._outgoing.append
            for dst in dests:
                append((dst, env))
            return
        for dst in dests:
            send(dst, env)

    # ------------------------------------------------------------------
    # batching internals
    # ------------------------------------------------------------------

    def _enqueue_batched(self, dst: int, env: Envelope) -> None:
        buf = self._pending.get(dst)
        if buf is None:
            buf = self._pending[dst] = []
        buf.append(env)
        if dst not in self._armed:
            self._armed.add(dst)
            self.owner.scheduler.call_after(self.batching_ms, self._flush_timer, dst)

    def _flush_timer(self, dst: int) -> None:
        self._armed.discard(dst)
        self._flush(dst)

    def _flush(self, dst: int) -> None:
        buf = self._pending.get(dst)
        if not buf:
            return
        self._pending[dst] = []
        if len(buf) == 1:
            self.owner.send(dst, buf[0])
        else:
            self.batches_sent += 1
            self.batched_payloads += len(buf)
            self.owner.send(dst, Batch(tuple(buf)))


class RMcastProcess(SimProcess):
    """A simulated process that communicates via reliable multicast.

    Subclasses fill :attr:`_r_dispatch`, payload class -> handler
    ``(origin, payload)``; :meth:`on_message` is the one receive path.

    Args:
        batching_ms: opt-in ack/bump coalescing window (see
            :class:`FifoReliableMulticast`); 0 = off.
    """

    def __init__(
        self,
        pid: int,
        scheduler: "SchedulerAPI",
        network: "TransportAPI",
        cost_model: Optional[CostModel] = None,
        batching_ms: float = 0.0,
    ):
        super().__init__(pid, scheduler, network, cost_model)
        self.rm = FifoReliableMulticast(self, batching_ms=batching_ms)
        #: r-deliver dispatch by exact payload class: one dict lookup per
        #: r-delivery. Instrumentation wraps entries of this table.
        self._r_dispatch: Dict[Type[Any], RHandler] = {}

    def r_multicast(self, payload: Any, dests: Iterable[int]) -> None:
        """r-multicast ``payload`` to the given process ids."""
        self.rm.multicast(payload, dests)

    def on_message(self, src: int, msg: Any) -> None:
        """r-deliver every new envelope of an ``Envelope`` or ``Batch``.

        Duplicate detection is watermark-based: any arriving seq at or
        below ``_dedupe_high[origin]`` was already delivered — when seq
        ``h`` arrived, channel FIFO guarantees every seq below ``h``
        addressed to us had arrived before it. Anything else on the wire,
        or a payload class without a handler, is a ``TypeError``.
        """
        cls = msg.__class__
        if cls is Envelope:
            envelopes: Tuple[Envelope, ...] = (msg,)
        elif cls is Batch:
            envelopes = msg.envelopes
        else:
            raise TypeError(f"{type(self).__name__} got a non-rmcast message: {msg!r}")
        high = self.rm._dedupe_high
        dispatch = self._r_dispatch
        for env in envelopes:
            origin = env.origin
            seq = env.seq
            try:
                if seq <= high[origin]:
                    continue
            except KeyError:
                pass
            high[origin] = seq
            payload = env.payload
            try:
                handler = dispatch[payload.__class__]
            except KeyError:
                raise TypeError(
                    f"{type(self).__name__} has no handler for r-delivered {payload!r}"
                ) from None
            handler(origin, payload)
