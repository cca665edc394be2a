"""Unit tests for FIFO non-uniform reliable multicast."""

import pytest

from helpers import MiniSystem
from repro.rmcast.fifo import Envelope, RMcastProcess
from repro.sim.events import Scheduler
from repro.sim.latency import ConstantLatency, JitteredLatency
from repro.sim.network import Network
from repro.sim.rng import child_rng


class Payload:
    __slots__ = ("kind", "tag", "mid")

    def __init__(self, tag, kind="test", mid=None):
        self.tag = tag
        self.kind = kind
        self.mid = mid


class Endpoint(RMcastProcess):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delivered = []
        self._r_dispatch[Payload] = self._on_payload

    def _on_payload(self, origin, payload):
        self.delivered.append((origin, payload.tag, self.scheduler.now))


def build(n=4, latency=None):
    sched = Scheduler()
    net = Network(sched, latency or ConstantLatency(1.0), child_rng(3, "rm"))
    procs = [Endpoint(i, sched, net) for i in range(n)]
    return sched, net, procs


def test_validity_all_destinations_deliver():
    sched, net, procs = build()
    procs[0].r_multicast(Payload("a"), [1, 2, 3])
    sched.run()
    for p in procs[1:]:
        assert [(0, "a")] == [(o, t) for o, t, _ in p.delivered]


def test_one_communication_step():
    sched, net, procs = build(latency=ConstantLatency(7.0))
    procs[0].r_multicast(Payload("a"), [1])
    sched.run()
    assert procs[1].delivered[0][2] == 7.0


def test_sender_delivers_own_message_when_destination():
    sched, net, procs = build()
    procs[0].r_multicast(Payload("a"), [0, 1])
    sched.run()
    assert [(0, "a")] == [(o, t) for o, t, _ in procs[0].delivered]


def test_sender_not_in_dest_does_not_deliver():
    sched, net, procs = build()
    procs[0].r_multicast(Payload("a"), [1, 2])
    sched.run()
    assert procs[0].delivered == []


def test_fifo_order_per_sender():
    sched, net, procs = build(latency=JitteredLatency(5.0, 0.8))
    for i in range(30):
        procs[0].r_multicast(Payload(i), [1, 2])
    sched.run()
    for p in (procs[1], procs[2]):
        tags = [t for _, t, _ in p.delivered]
        assert tags == list(range(30))


def test_without_relay_partial_send_is_lost():
    # Non-uniform agreement: a sender that crashes mid-multicast may
    # reach only some destinations, and nothing re-forwards its envelope.
    sched, net, procs = build()
    env = Envelope(0, 0, Payload("a"), (1, 2, 3))
    procs[0].send(1, env)
    procs[0].crash()
    sched.run()
    assert len(procs[1].delivered) == 1
    assert procs[2].delivered == []


def test_envelope_exposes_payload_kind_and_mid():
    env = Envelope(0, 0, Payload("a", kind="ack", mid=(1, 2)), (1,))
    assert env.kind == "ack"
    assert env.mid == (1, 2)


def test_separate_seq_spaces_per_origin():
    sched, net, procs = build()
    procs[0].r_multicast(Payload("a"), [2])
    procs[1].r_multicast(Payload("b"), [2])
    sched.run()
    assert len(procs[2].delivered) == 2


def test_dedupe_state_is_per_origin_watermark_not_per_message():
    """The dedupe structure must stay O(origins), not O(messages ever
    received): per-channel FIFO makes a contiguous high watermark sound,
    so a long stream from one origin costs one dict entry."""
    sched, net, procs = build()
    for i in range(200):
        procs[0].r_multicast(Payload(i), [1])
    sched.run()
    assert len(procs[1].delivered) == 200
    assert procs[1].rm._dedupe_high == {0: 199}


class Unregistered:
    kind = "start"


@pytest.mark.parametrize("protocol", ["primcast", "whitebox", "fastcast", "classic"])
def test_unregistered_payloads_and_bare_messages_raise(protocol):
    """One receive path for every protocol: a payload class missing from
    the dispatch table, or anything on the wire that is not an Envelope
    or a Batch, is a TypeError rather than a silent drop."""
    proc = MiniSystem(protocol=protocol).processes[1]
    with pytest.raises(TypeError, match="no handler"):
        proc.on_message(0, Envelope(0, 0, Unregistered(), (1,)))
    with pytest.raises(TypeError, match="non-rmcast"):
        proc.on_message(0, Unregistered())
