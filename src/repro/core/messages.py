"""PrimCast wire messages (the tuples of Algorithms 1–3).

Every message carries a short ``kind`` string used by the CPU cost model
(:mod:`repro.sim.costs`) and, where applicable, the multicast id ``mid``
judged by the genuineness check. ``start`` and ``ack`` both carry the
:class:`Multicast`, payload included (a remote ack doubles as a start,
Algorithm 2 line 47) — so on a real wire every ack still carries a
payload copy, which the simulator, sharing one object and charging by
kind, never sees. What that copy costs a receiver is one byte compare:
a wire backend keeps a multicast's encoding in its ``wire`` slot and
decodes a later copy of the same bytes to the object the node already
holds (``repro.net.codec``, DESIGN.md §13 "Once per multicast per
node"), so only the bytes and the sender's copy remain. Only ``bump``
is one of the small mergeable control messages §7.1 credits for
PrimCast's throughput today; header-only follower acks are ROADMAP
item 5, sized at wire bytes and sender copies. What an ack costs its
*receiver* is the other half of §7.1's argument, and it is paid per
decision, not per ack: a ``Batch`` of acks is handled in one loop
(``RMcastProcess.on_message``) and an ack that only moves a clock
re-attempts delivery only if the last attempt stopped at the delivery
queue's clock guard (``_order_blocked``, DESIGN.md §9).
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Optional, Tuple

from .epoch import Epoch

#: Delivered-prefix report piggybacked on acks and bumps for the state
#: GC watermark (see ``PrimCastProcess.compact_delivered``): (epoch the
#: report was made in, absolute count of leading T positions the sender
#: has a-delivered). Costless on the wire model (message kinds and
#: counts are unchanged) and ignored by receivers that predate it.
DpReport = Tuple[Epoch, int]

#: Multicast id: (origin pid, per-origin sequence number). Totally
#: ordered, used to break final-timestamp ties (Algorithm 1, line 30).
MessageId = Tuple[int, int]


class Multicast:
    """An application message submitted via a-multicast.

    Attributes:
        mid: unique, totally ordered id.
        dest: destination *group* ids (``m.dest`` in the paper).
        payload: opaque application payload.

    A multicast is not mutated once submitted: every process of the
    simulator shares the one object, and a wire backend may keep its
    encoding in ``wire``.
    """

    __slots__ = ("mid", "dest", "payload", "wire")

    def __init__(self, mid: MessageId, dest: FrozenSet[int], payload: Any = None) -> None:
        if not dest:
            raise ValueError("a multicast needs at least one destination group")
        self.mid = mid
        self.dest = frozenset(dest)
        self.payload = payload
        #: The encoded dest list and payload, set by the backend that
        #: serializes this multicast (``repro.net.codec``, on first
        #: encode or decode) so that every later ack carrying it is
        #: spliced, and decoded, by a byte compare; the protocol and the
        #: simulator never read it. Sound only under the immutability
        #: contract above.
        self.wire: Optional[bytes] = None

    @property
    def is_local(self) -> bool:
        """True when addressed to a single group (§2.2)."""
        return len(self.dest) == 1

    def __repr__(self) -> str:
        return f"<Multicast {self.mid} dest={sorted(self.dest)}>"


class Start:
    """⟨start, m⟩ — carries the payload to every destination process."""

    __slots__ = ("multicast",)
    kind = "start"

    def __init__(self, multicast: Multicast) -> None:
        self.multicast = multicast

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid


class Ack:
    """⟨ack, m, h, E, ts, q⟩ — process ``q`` of group ``h`` acknowledges
    local timestamp ``ts`` for ``m``, proposed in epoch ``E``.

    Carries the multicast object so a remote ack also acts as a start
    tuple (Algorithm 2, line 47).
    """

    __slots__ = ("multicast", "group", "epoch", "ts", "sender", "dp")
    kind = "ack"

    def __init__(
        self,
        multicast: Multicast,
        group: int,
        epoch: Epoch,
        ts: int,
        sender: int,
        dp: Optional[DpReport] = None,
    ) -> None:
        self.multicast = multicast
        self.group = group
        self.epoch = epoch
        self.ts = ts
        self.sender = sender
        self.dp = dp

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid

    def __repr__(self) -> str:
        return (
            f"<Ack m={self.multicast.mid} g={self.group} {self.epoch} "
            f"ts={self.ts} from={self.sender}>"
        )


class Bump:
    """⟨bump, E, ts, q⟩ — clock value propagation inside a group
    (Algorithm 2, line 50). ``E`` is the sender's *promised* epoch, so a
    process promised to a newer epoch cannot influence quorum-clock()
    computations of older epochs (§5.2.4)."""

    __slots__ = ("epoch", "ts", "sender", "dp")
    kind = "bump"

    def __init__(
        self, epoch: Epoch, ts: int, sender: int, dp: Optional[DpReport] = None
    ) -> None:
        self.epoch = epoch
        self.ts = ts
        self.sender = sender
        self.dp = dp


class NewEpoch:
    """⟨new-epoch, E⟩ — a candidate announces epoch E (Algorithm 3)."""

    __slots__ = ("epoch",)
    kind = "new-epoch"

    def __init__(self, epoch: Epoch) -> None:
        self.epoch = epoch


class EpochPromise:
    """⟨promise, E, p, clock, E_cur, T⟩ — a member promises epoch E and
    reports its state to the candidate (Algorithm 3, line 64).

    ``t_seq`` is the live *suffix* of the sender's T: everything below
    absolute position ``t_base`` was truncated by state GC, which is
    only legal once every group member delivered it — so the candidate
    can reconstruct nothing it could ever need from the prefix. Payload
    size is O(undelivered), not O(history)."""

    __slots__ = ("epoch", "sender", "clock", "e_cur", "t_seq", "t_base")
    kind = "promise"

    def __init__(
        self,
        epoch: Epoch,
        sender: int,
        clock: int,
        e_cur: Epoch,
        t_seq: List[Tuple[Epoch, Multicast, int]],
        t_base: int = 0,
    ) -> None:
        self.epoch = epoch
        self.sender = sender
        self.clock = clock
        self.e_cur = e_cur
        self.t_seq = t_seq
        self.t_base = t_base


class NewState:
    """⟨new-state, E, T, ts⟩ — the candidate installs the chosen state
    (Algorithm 3, line 69). ``t_seq`` starts at absolute position
    ``t_base`` (the winning promise's truncation watermark)."""

    __slots__ = ("epoch", "t_seq", "ts", "t_base")
    kind = "new-state"

    def __init__(
        self,
        epoch: Epoch,
        t_seq: List[Tuple[Epoch, Multicast, int]],
        ts: int,
        t_base: int = 0,
    ) -> None:
        self.epoch = epoch
        self.t_seq = t_seq
        self.ts = ts
        self.t_base = t_base


class AcceptEpoch:
    """⟨accept, E, p⟩ — a member confirms it installed epoch E
    (Algorithm 3, line 74)."""

    __slots__ = ("epoch", "sender")
    kind = "accept-epoch"

    def __init__(self, epoch: Epoch, sender: int) -> None:
        self.epoch = epoch
        self.sender = sender
