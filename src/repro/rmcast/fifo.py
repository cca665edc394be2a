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
  per-origin sequence number and a duplicate filter. The filter is
  *compacted*: because every channel is FIFO and (without relaying) each
  ``(origin, seq)`` envelope crosses a given channel exactly once,
  arrivals from one origin are strictly increasing in ``seq``, so a
  per-origin high watermark (one int per origin, O(origins) memory)
  replaces the historical ``(origin, seq)`` set that grew with every
  message ever received. In relay mode, copies of one envelope arrive
  over several channels and are not monotone; seqs above the
  direct-channel watermark are tracked in a sparse per-origin overflow
  set that drains as the watermark advances, bounding the filter by the
  out-of-order window instead of the run length.
* Non-uniform agreement: with reliable channels, direct per-destination
  sends suffice while the sender is correct; messages multicast by a
  process that crashes mid-send may be lost, which non-uniform agreement
  allows. An optional *relay* mode re-forwards every first delivery to
  the remaining destinations, making delivery resilient to sender crashes
  at the cost of redundant traffic.

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

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set, Tuple

from ..sim.costs import CostModel
from ..sim.process import SimProcess

if TYPE_CHECKING:
    from ..net.runtime import SchedulerAPI, TransportAPI

#: Payload kinds the batching layer may coalesce: PrimCast's small
#: mergeable acknowledgement traffic (§7.1). Everything else always
#: departs immediately.
BATCHABLE_KINDS = frozenset(("ack", "bump"))


class Envelope:
    """Wire wrapper for an r-multicast payload.

    Exposes the payload's ``kind`` (precomputed at construction — the
    network and the cost model read it on every hop) so the CPU cost
    model charges for the actual protocol message being carried.

    An envelope and its payload are not mutated after ``r_multicast``:
    the simulator hands one object to every destination, and a wire
    backend may keep its encoding in ``wire``.
    """

    __slots__ = ("origin", "seq", "payload", "dests", "relayed", "kind", "wire")

    def __init__(self, origin: int, seq: int, payload: Any, dests: Tuple[int, ...], relayed: bool = False):
        self.origin = origin
        self.seq = seq
        self.payload = payload
        self.dests = dests
        self.relayed = relayed
        try:
            self.kind = payload.kind
        except AttributeError:
            self.kind = "rm"
        #: The encoded body, set by the backend that serializes this
        #: envelope (``repro.net.codec``, on first encode) so a fan-out
        #: encodes it once; this layer and the simulator never read it.
        #: Sound only under the immutability contract above.
        self.wire: Optional[bytes] = None

    @property
    def mid(self) -> Any:
        """Multicast id of the payload if it has one (for tracing)."""
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
        relay: enable crash-resilient relaying of first deliveries.
        batching_ms: flush window for ack/bump coalescing; 0 disables
            batching entirely (the default — wire-identical to the
            unbatched protocol).
        batch_kinds: payload kinds eligible for coalescing.
    """

    def __init__(
        self,
        owner: SimProcess,
        relay: bool = False,
        batching_ms: float = 0.0,
        batch_kinds: frozenset = BATCHABLE_KINDS,
    ):
        if batching_ms < 0:
            raise ValueError(f"batching_ms must be non-negative, got {batching_ms}")
        self.owner = owner
        self.relay = relay
        self.batching_ms = batching_ms
        self.batch_kinds = batch_kinds
        self._next_seq = 0
        # Dedupe watermark: origin -> highest seq delivered. Arrivals on
        # the direct origin->self channel are strictly increasing in seq
        # (per-channel FIFO, one transmission per (origin, seq, dst)), so
        # ``seq <= high`` means duplicate. O(origins), not O(history).
        self._dedupe_high: Dict[int, int] = {}
        # Relay mode only: seqs delivered via a relayed copy before the
        # direct copy arrived (they sit above the watermark). Drained as
        # the direct channel catches up, so the size is bounded by the
        # out-of-order window, not the run length.
        self._overflow: Dict[int, Set[int]] = {}
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
            if env.kind in self.batch_kinds:
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

    def flush_all(self) -> None:
        """Flush every pending batch immediately (e.g. before shutdown)."""
        for dst in list(self._pending):
            self._flush(dst)

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------

    def handle(self, src: int, env: Envelope) -> Optional[Tuple[int, Any]]:
        """Process an incoming envelope.

        Returns ``(origin, payload)`` exactly once per multicast (the
        r-delivery), or ``None`` for duplicates.

        Duplicate detection is watermark-based: any arriving seq at or
        below ``_dedupe_high[origin]`` was already delivered — when the
        direct copy of seq ``h`` arrived, channel FIFO guarantees every
        direct seq below ``h`` addressed to us had arrived before it.
        Without relaying that is the whole filter; with relaying, seqs
        above the watermark delivered out of order (via a relayed copy)
        live in the sparse ``_overflow`` set until the watermark passes
        them.
        """
        origin = env.origin
        seq = env.seq
        if seq <= self._dedupe_high.get(origin, -1):
            return None
        if not self.relay:
            self._dedupe_high[origin] = seq
            return origin, env.payload
        buf = self._overflow.get(origin)
        if env.relayed:
            if buf is not None and seq in buf:
                return None
            if buf is None:
                buf = self._overflow[origin] = set()
            buf.add(seq)
            return origin, env.payload
        # Direct copy: advance the watermark and drain overflow entries
        # the watermark has now passed.
        self._dedupe_high[origin] = seq
        duplicate = False
        if buf:
            duplicate = seq in buf
            remaining = {q for q in buf if q > seq}
            if remaining:
                self._overflow[origin] = remaining
            else:
                del self._overflow[origin]
        if duplicate:
            return None
        if origin != self.owner.pid:
            fwd = Envelope(origin, seq, env.payload, env.dests, relayed=True)
            own_pid = self.owner.pid
            for dst in env.dests:
                if dst != own_pid and dst != origin:
                    self.owner.send(dst, fwd)
        return origin, env.payload


class RMcastProcess(SimProcess):
    """A simulated process that communicates via reliable multicast.

    Subclasses implement :meth:`on_r_deliver`; everything arriving over
    the network is unwrapped and deduplicated by the rmcast endpoint.

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
        relay: bool = False,
        batching_ms: float = 0.0,
    ):
        super().__init__(pid, scheduler, network, cost_model)
        self.rm = FifoReliableMulticast(self, relay=relay, batching_ms=batching_ms)

    def r_multicast(self, payload: Any, dests: Iterable[int]) -> None:
        """r-multicast ``payload`` to the given process ids."""
        self.rm.multicast(payload, dests)

    def on_message(self, src: int, msg: Any) -> None:
        cls = msg.__class__
        if cls is Envelope:
            result = self.rm.handle(src, msg)
            if result is not None:
                self.on_r_deliver(result[0], result[1])
        elif cls is Batch:
            handle = self.rm.handle
            on_r_deliver = self.on_r_deliver
            for env in msg.envelopes:
                result = handle(src, env)
                if result is not None:
                    on_r_deliver(result[0], result[1])
        elif isinstance(msg, Envelope):
            result = self.rm.handle(src, msg)
            if result is not None:
                self.on_r_deliver(result[0], result[1])
        else:
            self.on_raw_message(src, msg)

    def on_r_deliver(self, origin: int, payload: Any) -> None:
        """Handle an r-delivered payload. Override in subclasses."""
        raise NotImplementedError

    def on_raw_message(self, src: int, msg: Any) -> None:
        """Handle a non-rmcast message (e.g. client requests)."""
        raise NotImplementedError(
            f"{type(self).__name__} got unexpected raw message {msg!r}"
        )
