"""Classic consensus-based genuine atomic multicast (§4.3, [19][23]).

The protocol family PrimCast descends from (Fritzke et al. '98 /
Guerraoui & Schiper '01): each group runs atomic broadcast — here a
:class:`~repro.consensus.ReplicatedLog` — and uses it *both* to maintain
the group's logical clock and to timestamp messages:

1. The sender sends ``m`` to the leader of each destination group.
2. The leader appends a PROPOSE entry; when the group log applies it,
   every member deterministically assigns the local timestamp
   ``clock + 1`` and the leader sends it to the other destination
   groups' leaders.
3. Once a leader holds local timestamps from every destination group it
   appends a COMMIT entry with the final timestamp (the max); applying
   it raises the group clock and makes ``m`` deliverable in final-
   timestamp order.

Collision-free latency: 1 (start) + 2 (propose consensus) + 1 (timestamp
exchange) + 2 (commit consensus) = **6 steps**; clock-update latency is
another 6, giving the failure-free **12 steps** the paper quotes — the
gap PrimCast's 3/5 is measured against. Not part of the paper's §7
evaluation; provided for the related-work comparison and as the
reference consumer of the consensus substrate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..consensus.log import ReplicatedLog
from ..consensus.paxos import Accept, Accepted, Prepare, Promise
from ..core.config import GroupConfig
from ..core.messages import MessageId, Multicast
from ..sim.costs import CostModel
from ..sim.events import Scheduler
from ..sim.network import Network
from .base import GroupProtocolProcess
from .delivery import DeliveryQueue


class ClStart:
    """Step 1: sender → destination group leaders."""

    __slots__ = ("multicast",)
    kind = "start"

    def __init__(self, multicast: Multicast):
        self.multicast = multicast

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid


class ClTimestamp:
    """Step 2→3: a group's decided local timestamp, leader to leaders."""

    __slots__ = ("multicast", "group", "ts")
    kind = "cl-ts"

    def __init__(self, multicast: Multicast, group: int, ts: int):
        self.multicast = multicast
        self.group = group
        self.ts = ts

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid


class _LogEntry:
    """A group-log command: PROPOSE or COMMIT for one multicast."""

    __slots__ = ("action", "multicast", "final_ts")

    def __init__(self, action: str, multicast: Multicast, final_ts: Optional[int] = None):
        self.action = action
        self.multicast = multicast
        self.final_ts = final_ts


CLASSIC_KINDS = ("start", "cl-ts", "paxos-2a", "paxos-2b")


class ClassicProcess(GroupProtocolProcess):
    """One group member of the classic consensus-based multicast."""

    def __init__(
        self,
        pid: int,
        config: GroupConfig,
        scheduler: Scheduler,
        network: Network,
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(pid, config, scheduler, network, cost_model)
        self.is_leader = config.initial_leader(self.gid) == pid
        self.clock = 0
        self._multicasts: Dict[MessageId, Multicast] = {}
        self._proposed: Set[MessageId] = set()  # leader-side dedup
        self._committed_appended: Set[MessageId] = set()
        self._local_ts: Dict[MessageId, int] = {}  # this group's ts
        self._remote_ts: Dict[MessageId, Dict[int, int]] = {}
        self._finals: Dict[MessageId, int] = {}  # committed finals
        self._queue = DeliveryQueue(self._min_bound)
        self.log = ReplicatedLog(
            pid,
            config.members(self.gid),
            send_fn=self._send_all,
            on_apply=self._apply_entry,
        )
        paxos = self.log.handle
        self._r_dispatch.update({
            ClStart: self._on_start,
            ClTimestamp: self._on_timestamp,
            Prepare: paxos, Promise: paxos, Accept: paxos, Accepted: paxos,
        })

    # ------------------------------------------------------------------
    # transport plumbing
    # ------------------------------------------------------------------

    def _send_all(self, pids: List[int], msg: Any) -> None:
        self.r_multicast(msg, pids)

    def a_multicast_m(self, multicast: Multicast) -> None:
        leaders = [self.config.initial_leader(g) for g in sorted(multicast.dest)]
        self.r_multicast(ClStart(multicast), leaders)

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------

    def _on_start(self, origin: int, start: ClStart) -> None:
        if not self.is_leader:
            raise AssertionError("start reached a non-leader")
        multicast = start.multicast
        mid = multicast.mid
        if mid in self._proposed or mid in self.delivered:
            return
        self._proposed.add(mid)
        self._multicasts[mid] = multicast
        self.log.append(_LogEntry("propose", multicast))

    def _on_timestamp(self, origin: int, msg: ClTimestamp) -> None:
        """Leaders collect every destination group's local timestamp."""
        mid = msg.mid
        self._multicasts.setdefault(mid, msg.multicast)
        self._remote_ts.setdefault(mid, {})[msg.group] = msg.ts
        self._maybe_append_commit(mid)

    def _maybe_append_commit(self, mid: MessageId) -> None:
        if not self.is_leader or mid in self._committed_appended:
            return
        multicast = self._multicasts.get(mid)
        if multicast is None or mid not in self._local_ts:
            return
        known = self._remote_ts.get(mid, {})
        others = [g for g in multicast.dest if g != self.gid]
        if not all(g in known for g in others):
            return
        final = max([self._local_ts[mid]] + [known[g] for g in others])
        self._committed_appended.add(mid)
        self.log.append(_LogEntry("commit", multicast, final))

    def _apply_entry(self, slot: int, entry: _LogEntry) -> None:
        """Deterministic application of the group log, at every member."""
        mid = entry.multicast.mid
        self._multicasts.setdefault(mid, entry.multicast)
        if entry.action == "propose":
            self.clock += 1
            self._local_ts[mid] = self.clock
            if mid not in self.delivered:
                self._queue.add_pending(mid)
            if self.is_leader:
                # Inform the other destination groups (their leaders).
                others = [
                    self.config.initial_leader(g)
                    for g in sorted(entry.multicast.dest)
                    if g != self.gid
                ]
                ts_msg = ClTimestamp(entry.multicast, self.gid, self.clock)
                if others:
                    self.r_multicast(ts_msg, others)
                self._maybe_append_commit(mid)
        else:  # commit
            final = entry.final_ts
            self._finals[mid] = final
            if final > self.clock:
                self.clock = final
            self._queue.add_pending(mid)  # no-op if already pending
            self._queue.commit(mid, final)
        self._try_deliver()

    def _min_bound(self, mid: MessageId) -> int:
        """Pending lower bound: the exact final once committed, else the
        group's own local timestamp (the final is the max over groups,
        hence at least the local one). The bound must tighten to the
        final at commit, or a committed high-final message would block
        smaller-final ones behind its stale local timestamp."""
        final = self._finals.get(mid)
        if final is not None:
            return final
        return self._local_ts.get(mid, 0)

    def _try_deliver(self) -> None:
        while True:
            popped = self._queue.pop_deliverable(self.clock)
            if popped is None:
                return
            mid, final = popped
            self._record_delivery(self._multicasts[mid], final)
