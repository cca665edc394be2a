"""Span tracing from outside the program: wrap entry points, time them.

The traced run replaces each layer's entry point by a wrapper *before*
nodes are built (several hot paths cache bound methods at construction)
and restores it afterwards. A span is ``(name, start_ns, end_ns, parent
index, mid)``; spans go into a preallocated list and are written out
when the run ends. Every wrapped call runs to completion on the one
benchmark thread, so spans nest properly and a single stack gives each
span its parent and each layer its *self* time: duration minus the part
its child spans cover.

Besides the repo's own layers the event loop itself is wrapped
(``asyncio.events.Handle._run`` and the selector transport's socket
``write`` / ``_read_ready``), because on small frames the loop and the
socket calls are a large share of the CPU and would otherwise be
invisible; these three are private asyncio names and are skipped when
the running Python does not have them.
"""

from __future__ import annotations

import asyncio.events
import asyncio.selector_events
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.net.host
from repro.core.process import PrimCastProcess
from repro.net.codec import FrameDecoder
from repro.net.host import NetScheduler, TransportFacade
from repro.net.transport import PeerConnection, Transport
from repro.rmcast.fifo import Batch, FifoReliableMulticast
from repro.sim.events import Scheduler
from repro.sim.network import Network

Span = Tuple[str, int, int, int, Optional[Tuple[int, int]]]

#: Spans kept for the trace file; later ones still count in the totals.
SPAN_CAPACITY = 2_000_000


def _mid_of(msg: Any) -> Optional[Tuple[int, int]]:
    return getattr(msg, "mid", None)


def _payload_kinds(msg: Any) -> List[str]:
    if msg.__class__ is Batch:
        return [env.kind for env in msg.envelopes]
    return [getattr(msg, "kind", "other")]


class Tracer:
    """Wrappers, the span buffer and per-name totals of one traced run."""

    def __init__(self, capacity: int = SPAN_CAPACITY) -> None:
        self.spans: List[Optional[Span]] = [None] * capacity
        self.n = 0
        #: name -> [calls, self ns, inclusive ns]
        self.totals: Dict[str, List[int]] = {}
        #: Counts taken where the work happens (wire copies by payload kind).
        self.counts: Dict[str, int] = {}
        self._stack: List[List[int]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        label: Optional[Callable[[tuple, Any], Tuple[str, Any]]] = None,
    ) -> Callable[..., Any]:
        """``label(args, result)`` may refine the span name and supply
        the message id; without it the span is ``(name, None)``."""
        spans, stack, totals = self.spans, self._stack, self.totals
        capacity = len(spans)
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.n
            self.n = index + 1
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                span_name, mid = label(args, result) if label else (name, None)
                total = totals.get(span_name)
                if total is None:
                    total = totals[span_name] = [0, 0, 0]
                total[0] += 1
                total[1] += duration - frame[1]
                total[2] += duration
                if index < capacity:
                    spans[index] = (span_name, start, end, parent, mid)

        return traced

    def _patch(self, owner: Any, attr: str, name: str, label: Any = None) -> None:
        original = getattr(owner, attr, None)
        if original is None:  # a private asyncio name this Python lacks
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, label))

    def _count_transmit(self, args: tuple, _result: Any) -> Tuple[str, Any]:
        # TransportFacade.transmit(self, src, dst, msg, depart_time): every
        # wire message incl. the self-channel, so this is where acks,
        # bumps and remote payload copies are counted.
        _, src, dst, msg = args[:4]
        counts = self.counts
        for kind in _payload_kinds(msg):
            counts[kind] = counts.get(kind, 0) + 1
            if dst != src and kind in ("start", "ack"):
                counts["payload_copies"] = counts.get("payload_copies", 0) + 1
        return "host.transmit", _mid_of(msg)

    def install(self) -> None:
        """Wrap every layer's entry point. Call before building nodes."""
        patch = self._patch
        patch(PrimCastProcess, "a_multicast", "core.a_multicast",
              lambda args, result: ("core.a_multicast", _mid_of(result)))
        patch(PrimCastProcess, "on_message", "core.on_message",
              lambda args, _: (f"core.on_message.{getattr(args[2], 'kind', 'other')}",
                               _mid_of(args[2])))
        patch(FifoReliableMulticast, "multicast", "rmcast.multicast",
              lambda args, _: ("rmcast.multicast", _mid_of(args[1])))
        patch(TransportFacade, "transmit", "host.transmit", self._count_transmit)
        # host.py imported the function by name: rebind it there.
        patch(repro.net.host, "encode_msg_frame", "codec.encode",
              lambda args, _: ("codec.encode", _mid_of(args[1])))
        patch(Transport, "send_frame_bytes", "transport.send")
        patch(PeerConnection, "send_bytes", "transport.write")
        patch(FrameDecoder, "feed", "codec.decode")
        patch(NetScheduler, "drain", "host.drain")
        patch(Scheduler, "run", "sim.run")
        patch(Network, "transmit", "sim.transmit",
              lambda args, _: ("sim.transmit", _mid_of(args[3])))
        patch(asyncio.events.Handle, "_run", "asyncio.loop")
        sock = asyncio.selector_events._SelectorSocketTransport
        patch(sock, "write", "asyncio.sock_write")
        patch(sock, "_read_ready", "asyncio.sock_read")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> Tuple[Dict[str, List[int]], Dict[str, int], int]:
        """Totals so far (copies), to difference across a measured window
        — a window starts and ends inside an open ``asyncio.loop`` span,
        so the buffer cannot simply be cleared."""
        return {k: list(v) for k, v in self.totals.items()}, dict(self.counts), self.n

    def dump(self, path: Path, first: int = 0) -> int:
        """Write spans ``first..`` as JSON lines; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        last = min(self.n, len(self.spans))
        with open(path, "w") as fh:
            for index in range(first, last):
                span = self.spans[index]
                if span is None:  # still open when the run ended
                    continue
                name, start, end, parent, mid = span
                fh.write(json.dumps({"i": index, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "mid": list(mid) if mid else None}) + "\n")
        return max(0, last - first)


def window_totals(
    before: Tuple[Dict[str, List[int]], Dict[str, int], int],
    after: Tuple[Dict[str, List[int]], Dict[str, int], int],
) -> Tuple[Dict[str, List[int]], Dict[str, int]]:
    """Per-name [calls, self ns, inclusive ns] and counts between two
    :meth:`Tracer.snapshot` calls."""
    totals = {
        name: [v - before[0].get(name, [0, 0, 0])[i] for i, v in enumerate(values)]
        for name, values in after[0].items()
    }
    counts = {k: v - before[1].get(k, 0) for k, v in after[1].items()}
    return totals, counts


def at_speed(totals: Dict[str, List[int]], factor: float) -> Dict[str, List[float]]:
    """``totals`` with its times taken to the reference speed (bench/speed.py)."""
    return {name: [calls, own * factor, incl * factor] for name, (calls, own, incl) in totals.items()}


def self_us(totals: Dict[str, List[int]], name: str, n: int) -> float:
    """Self time of layer ``name`` in µs per ``n`` (messages or events)."""
    return totals.get(name, [0, 0, 0])[1] / 1000.0 / n


def mean_us(totals: Dict[str, List[int]], name: str) -> float:
    """Mean inclusive duration of one ``name`` call in µs."""
    calls, _, inclusive = totals.get(name, [0, 0, 0])
    return inclusive / 1000.0 / calls if calls else 0.0


def protocol_metrics(totals: Dict[str, List[int]], n: int, cpu_s: float) -> Dict[str, float]:
    """The traced metrics both backends share: ``core``, ``rmcast`` and
    the share of the window's CPU that lies inside some span."""
    handlers = [k for k in totals if k.startswith("core.on_message.")]
    return {
        "core.on_message_calls_per_msg": sum(totals[k][0] for k in handlers) / n,
        "core.on_message_self_us_per_msg": sum(self_us(totals, k, n) for k in handlers),
        "core.on_message_us.start": mean_us(totals, "core.on_message.start"),
        "core.on_message_us.ack": mean_us(totals, "core.on_message.ack"),
        "core.on_message_us.bump": mean_us(totals, "core.on_message.bump"),
        "core.on_message_us.batch": mean_us(totals, "core.on_message.batch"),
        "core.a_multicast_us": mean_us(totals, "core.a_multicast"),
        "rmcast.multicast_self_us_per_msg": self_us(totals, "rmcast.multicast", n),
        "driver.trace_coverage": sum(v[1] for v in totals.values()) / 1e9 / cpu_s,
    }
