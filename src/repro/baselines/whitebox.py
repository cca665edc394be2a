"""White-Box atomic multicast [Gotsman, Lefort, Chockler — DSN'19] (§4.2).

The stronger of the paper's two baselines: collision-free/failure-free
latency of 3/5 steps at group *primaries* and 4/6 at followers. Unlike
PrimCast, followers cannot deliver on their own — they follow explicit
``deliver`` messages from their primary, which is where the extra
communication step comes from, and both primaries and followers must wait
for quorums before forwarding information (the behaviour §7.5 blames for
White-Box's convoy sensitivity).

Protocol (failure-free path, the one the paper's evaluation exercises):

1. The sender sends ``m`` to the primary of each group in ``m.dest``.
2. Each primary picks a local timestamp from its clock and sends it as an
   ``accept`` to every process in every destination group.
3. A process that has the accept from *every* primary in ``m.dest``
   stores its group's proposal, bumps its clock to the largest proposal,
   and acks to each primary in ``m.dest``.
4. A primary with all accepts and a quorum of acks *from each
   destination group* fixes the final timestamp (max of proposals),
   a-delivers in final-timestamp order, and sends ``deliver`` to its
   followers.
5. Followers a-deliver in the order of the primary's deliver messages.

Message complexity per multicast to k groups of n (Table 1):
``k + k²n + k²n + kn``.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from ..core.endpoint import GroupProtocolProcess
from ..core.messages import MessageId, Multicast


class WbStart:
    """Step 1: sender → destination primaries."""

    __slots__ = ("multicast",)
    kind = "start"

    def __init__(self, multicast: Multicast):
        self.multicast = multicast

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid


class WbAccept:
    """Step 2: primary's local-timestamp proposal, to all dest processes."""

    __slots__ = ("multicast", "group", "ts", "sender")
    kind = "wb-accept"

    def __init__(self, multicast: Multicast, group: int, ts: int, sender: int):
        self.multicast = multicast
        self.group = group
        self.ts = ts
        self.sender = sender

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid


class WbAck:
    """Step 3: destination process → each destination primary."""

    __slots__ = ("mid", "group", "sender")
    kind = "wb-ack"

    def __init__(self, mid: MessageId, group: int, sender: int):
        self.mid = mid
        self.group = group
        self.sender = sender


class WbDeliver:
    """Step 4→5: primary → followers, delivery order inside the group."""

    __slots__ = ("multicast", "final_ts")
    kind = "wb-deliver"

    def __init__(self, multicast: Multicast, final_ts: int):
        self.multicast = multicast
        self.final_ts = final_ts

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid


class WhiteBoxProcess(GroupProtocolProcess):
    """One group member of the White-Box protocol (stable primaries)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.is_primary = self.config.initial_leader(self.gid) == self.pid
        self.clock = 0
        # shared: accepts seen per message (gid -> ts)
        self._accepts: Dict[MessageId, Dict[int, int]] = {}
        self._multicasts: Dict[MessageId, Multicast] = {}
        self._acked: Set[MessageId] = set()
        # primary-only state
        self._my_ts: Dict[MessageId, int] = {}
        self._acks: Dict[MessageId, Dict[int, Set[int]]] = {}
        self._final: Dict[MessageId, int] = {}
        self._r_dispatch.update({
            WbAccept: self._on_accept,
            WbAck: self._on_ack,
            WbStart: self._on_start,
            WbDeliver: self._on_deliver_msg,
        })

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def a_multicast_m(self, multicast: Multicast) -> None:
        """Step 1: to the primary of each destination group."""
        primaries = [self.config.initial_leader(g) for g in sorted(multicast.dest)]
        self.r_multicast(WbStart(multicast), primaries)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _on_start(self, origin: int, start: WbStart) -> None:
        """Step 2 (primaries only receive starts)."""
        if not self.is_primary:
            raise AssertionError("start reached a follower")
        multicast = start.multicast
        mid = multicast.mid
        if mid in self._my_ts or mid in self.delivered:
            return
        self._multicasts[mid] = multicast
        self.clock += 1
        self._my_ts[mid] = self.clock
        self.queue.add_pending(mid)
        accept = WbAccept(multicast, self.gid, self.clock, self.pid)
        self.r_multicast(accept, self.config.dest_pids(multicast.dest))

    def _on_accept(self, origin: int, msg: WbAccept) -> None:
        """Step 3, plus final-timestamp tracking at primaries."""
        mid = msg.mid
        self._multicasts.setdefault(mid, msg.multicast)
        accepts = self._accepts.setdefault(mid, {})
        accepts[msg.group] = msg.ts
        multicast = msg.multicast
        if len(accepts) == len(multicast.dest):
            highest = max(accepts.values())
            if highest > self.clock:
                self.clock = highest
            if mid not in self._acked:
                self._acked.add(mid)
                ack = WbAck(mid, self.gid, self.pid)
                for gid in sorted(multicast.dest):
                    self.r_multicast(ack, [self.config.initial_leader(gid)])
            if self.is_primary:
                self._final[mid] = highest
                self._maybe_commit(mid)
                self._deliver_ready(self.clock)

    def _on_ack(self, origin: int, msg: WbAck) -> None:
        if not self.is_primary:
            return
        self._acks.setdefault(msg.mid, {}).setdefault(msg.group, set()).add(msg.sender)
        self._maybe_commit(msg.mid)
        self._deliver_ready(self.clock)

    def _on_deliver_msg(self, origin: int, msg: WbDeliver) -> None:
        """Step 5: followers deliver in the primary's order (FIFO link)."""
        if self.is_primary:
            return
        if msg.mid not in self.delivered:
            self._record_delivery(msg.multicast, msg.final_ts)

    # ------------------------------------------------------------------
    # primary delivery logic
    # ------------------------------------------------------------------

    def _maybe_commit(self, mid: MessageId) -> None:
        """Step 4 commit check: all accepts (final known) plus a quorum
        of acks from every destination group."""
        if self.queue.is_committed(mid) or mid not in self.queue.pending:
            return
        final = self._final.get(mid)
        if final is None:
            return
        multicast = self._multicasts[mid]
        acks = self._acks.get(mid, {})
        for gid in multicast.dest:
            if not self.config.has_quorum(gid, acks.get(gid, ())):
                return
        self.queue.commit(mid, final)

    def _min_bound(self, mid: MessageId) -> int:
        """Lower bound on the final timestamp of a pending message: the
        largest proposal known for it (at least our own local ts). The
        queue runs at ``self.clock``: new messages get ts > clock >=
        final."""
        accepts = self._accepts.get(mid)
        bound = self._my_ts.get(mid, 0)
        if accepts:
            bound = max(bound, max(accepts.values()))
        return bound

    def _deliver(self, mid: MessageId, final: int) -> None:
        multicast = self._multicasts[mid]
        self._record_delivery(multicast, final)
        followers = [p for p in self.group_members if p != self.pid]
        self.r_multicast(WbDeliver(multicast, final), followers)
