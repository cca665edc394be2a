"""Message-flight tracing and textual space-time diagrams.

Opt-in recording of every wire message's (src, dst, kind, mid, depart,
arrival), plus a renderer producing a chronological message-exchange
listing — the textual equivalent of the paper's Figure 1 space-time
diagram. The recorder is a transmit interceptor that returns each
departure unchanged. :func:`repro.verify.check_genuineness` judges its
flights in every chaos case, and the Figure 1 bench renders them.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional, Sequence

from .network import Network


class Flight(NamedTuple):
    """One protocol message's trip across the network (a ``Batch`` is
    one flight per envelope it carries)."""

    src: int
    dst: int
    kind: str
    mid: Any
    depart: float
    arrival: float


def record_flights(network: Network) -> List[Flight]:
    """Attach a flight log to ``network``; returns the live list.

    Arrival times are reconstructed from the latency model's mean —
    exact on constant-latency networks, which is what diagrams use
    (jittered runs get mean-latency arrivals, still useful for reading
    an execution).
    """
    flights: List[Flight] = []
    latency = network.latency

    def intercept(src: int, dst: int, msg: Any, depart_time: float) -> float:
        arrival = depart_time if src == dst else depart_time + latency.mean(src, dst)
        # A Batch (repro.rmcast.fifo) has no mid of its own.
        carried = msg.envelopes if getattr(msg, "kind", None) == "batch" else (msg,)
        for one in carried:
            kind = getattr(one, "kind", type(one).__name__)
            flights.append(Flight(src, dst, kind, getattr(one, "mid", None), depart_time, arrival))
        return depart_time

    network.add_transmit_interceptor(intercept)
    return flights


def render_exchanges(
    flights: Sequence[Flight],
    include: Optional[Callable[[Flight], bool]] = None,
    label_of: Optional[Callable[[int], str]] = None,
) -> str:
    """Chronological message-exchange listing (textual Figure 1).

    Self-sends (a process's own r-multicast delivery) are omitted: they
    take no network trip and would only add noise.

    Args:
        include: extra filter predicate.
        label_of: process labels (default ``p<pid>``).
    """
    label = label_of or (lambda pid: f"p{pid}")
    lines = []
    for flight in sorted(flights, key=lambda f: (f.depart, f.arrival, f.src, f.dst)):
        if flight.src == flight.dst:
            continue
        if include is not None and not include(flight):
            continue
        lines.append(
            f"t={flight.depart:6.2f} -> t={flight.arrival:6.2f}  "
            f"{label(flight.src):>4} -> {label(flight.dst):<4}  {flight.kind}"
        )
    return "\n".join(lines)
