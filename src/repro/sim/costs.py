"""Per-message CPU cost model.

Throughput saturation in the paper is a function of how much work each
replica does per multicast: FastCast runs a fast *and* a slow path (more
consensus messages), White-Box funnels acks through primaries, and
PrimCast exchanges many — but tiny and mergeable — acknowledgements
(§7.1). We model this with per-message *receive* and *send* CPU costs,
charged to a process's single logical CPU (``busy_until``). A saturated
process queues work and its delivery latency explodes, exactly the shape
of the paper's throughput/latency curves.

Costs are keyed on the message's ``kind`` attribute (a short string every
protocol message carries). Payload-bearing kinds cost more than small
control messages; this encodes the paper's observation that PrimCast's
quadratic-but-tiny ack traffic is cheap.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class CostModel:
    """Maps protocol messages to CPU time (ms) on sender and receiver.

    Args:
        recv_costs: per-kind receive cost in ms.
        send_costs: per-kind send cost in ms.
        default_recv: receive cost for kinds not listed.
        default_send: send cost for kinds not listed.
    """

    __slots__ = ("recv_costs", "send_costs", "default_recv", "default_send")

    def __init__(
        self,
        recv_costs: Optional[Dict[str, float]] = None,
        send_costs: Optional[Dict[str, float]] = None,
        default_recv: float = 0.0,
        default_send: float = 0.0,
    ) -> None:
        self.recv_costs: Dict[str, float] = dict(recv_costs or {})
        self.send_costs: Dict[str, float] = dict(send_costs or {})
        self.default_recv = default_recv
        self.default_send = default_send

    def recv_cost(self, msg: Any) -> float:
        """CPU time the receiver spends handling ``msg``."""
        # Wire message classes expose a class-level ``kind``; the
        # exception path only triggers for kindless test payloads.
        try:
            kind = msg.kind
        except AttributeError:
            return self.default_recv
        return self.recv_costs.get(kind, self.default_recv)

    def send_cost(self, msg: Any) -> float:
        """CPU time the sender spends serializing/writing ``msg``."""
        try:
            kind = msg.kind
        except AttributeError:
            return self.default_send
        return self.send_costs.get(kind, self.default_send)


def zero_cost_model() -> CostModel:
    """Free CPU: used for pure latency-geometry experiments (Table 1)."""
    return CostModel()


#: CPU cost (ms) of handling one payload-bearing protocol message.
#: Calibrated so an 8-group x 3-replica LAN deployment saturates in the
#: tens of thousands of msg/s — the paper's absolute numbers depend on its
#: testbed CPUs, ours on this constant; only the ratios matter (DESIGN.md).
PAYLOAD_COST_MS = 0.040

#: CPU cost (ms) of handling one small control message (ack/bump/2b...).
#: An order of magnitude below payload cost: these messages are a few
#: dozen bytes and the Rust prototype merges consecutive ones (§7.1).
CONTROL_COST_MS = 0.008


def default_cost_model() -> CostModel:
    """The calibrated cost model used by the paper-reproduction benches.

    Kinds:
        * ``start`` carries the application payload → expensive.
        * PrimCast ``ack``/``bump`` are tiny and merged → cheap.
        * White-Box ``accept`` carries the payload proposal, its ``ack``
          and ``deliver`` are small.
        * FastCast ``soft``/``hard``/``2a`` carry proposals, ``2b`` is an
          acknowledgement.

    Every other kind costs one control message.
    """
    payload = PAYLOAD_COST_MS
    control = CONTROL_COST_MS
    recv = {
        "start": payload,
        # PrimCast
        "ack": control,
        "bump": control,
        # White-Box
        "wb-accept": payload,
        "wb-ack": control,
        "wb-deliver": control,
        # FastCast
        "fc-soft": payload,
        "fc-hard": payload,
        "fc-2a": payload,
        "fc-2b": control,
        # a coalesced ack/bump batch (rmcast batching layer): one wire
        # message regardless of contents — the §7.1 merge amortization.
        "batch": control,
    }
    send = {kind: cost / 2.0 for kind, cost in recv.items()}
    return CostModel(recv, send, default_recv=control, default_send=control / 2.0)
