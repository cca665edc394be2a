"""Every wire message class must declare a class-level ``kind``.

The substrate's hot paths (network accounting, the CPU cost model, the
batching layer) read ``msg.kind`` on every hop and rely on it being a
class attribute — no per-instance storage, no property dispatch. This
test pins that contract for every protocol's wire messages so a new
message class cannot silently fall back to the slow/kindless path.
"""

from repro.baselines.classic import (
    ClAccept,
    ClAccepted,
    ClStart,
    ClTimestamp,
)
from repro.baselines.fastcast import (
    Fc2A,
    Fc2B,
    FcHard,
    FcSoft,
    FcStart,
)
from repro.baselines.whitebox import (
    WbAccept,
    WbAck,
    WbDeliver,
    WbStart,
)
from repro.core.messages import (
    Ack,
    AcceptEpoch,
    Bump,
    EpochPromise,
    Multicast,
    NewEpoch,
    NewState,
    Start,
)
from repro.rmcast.fifo import BATCHABLE_KINDS, Batch, Envelope
from repro.sim.costs import default_cost_model

PRIMCAST_CLASSES = (Start, Ack, Bump, NewEpoch, EpochPromise, NewState, AcceptEpoch)
WHITEBOX_CLASSES = (WbStart, WbAccept, WbAck, WbDeliver)
FASTCAST_CLASSES = (FcStart, FcSoft, FcHard, Fc2A, Fc2B)
CLASSIC_CLASSES = (ClStart, ClTimestamp, ClAccept, ClAccepted)

ALL_WIRE_CLASSES = (
    PRIMCAST_CLASSES
    + WHITEBOX_CLASSES
    + FASTCAST_CLASSES
    + CLASSIC_CLASSES
    + (Batch,)
)


def test_every_wire_class_declares_class_level_kind():
    for cls in ALL_WIRE_CLASSES:
        assert "kind" in vars(cls), f"{cls.__name__} must define kind on the class"
        assert isinstance(cls.kind, str) and cls.kind, cls.__name__
        # kind must not be shadowed per instance (it would defeat the
        # class-attribute fast path and __slots__ forbids it anyway).
        slots = vars(cls).get("__slots__")
        if slots is not None:
            assert "kind" not in slots, f"{cls.__name__} stores kind per instance"


def test_envelope_mirrors_payload_kind():
    env = Envelope(0, 0, Ack(Multicast((0, 0), frozenset({0})), 0, None, 1, 0), (0,))
    assert env.kind == "ack"
    assert Envelope(0, 1, object(), (0,)).kind == "rm"  # kindless payload


def test_batchable_kinds_are_priced_by_the_default_cost_model():
    model = default_cost_model()
    for kind in BATCHABLE_KINDS | {Batch.kind}:
        assert kind in model.recv_costs, kind
        assert kind in model.send_costs, kind
    # A batch must cost one control message, not the sum of its contents
    # (the §7.1 merge amortization).
    assert model.recv_costs[Batch.kind] == model.recv_costs["ack"]
