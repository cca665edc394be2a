"""Classic consensus-based genuine atomic multicast (§4.3, [19][23]).

The protocol family PrimCast descends from (Fritzke et al. '98 /
Guerraoui & Schiper '01): each group runs atomic broadcast — here a
stable-leader group log — and uses it *both* to maintain the group's
logical clock and to timestamp messages:

1. The sender sends ``m`` to the leader of each destination group.
2. The leader appends a PROPOSE entry; when the group log applies it,
   every member deterministically assigns the local timestamp
   ``clock + 1`` and the leader sends it to the other destination
   groups' leaders.
3. Once a leader holds local timestamps from every destination group it
   appends a COMMIT entry with the final timestamp (the max); applying
   it raises the group clock and makes ``m`` deliverable in final-
   timestamp order.

The group log is phase-2 Paxos under a stable leader: the leader sends
``ClAccept(slot, entry)`` to the members, every member sends
``ClAccepted(slot, entry)`` to every member, and a slot is decided by a
quorum of those and applied in slot order. There is no leader change.

Collision-free latency: 1 (start) + 2 (propose consensus) + 1 (timestamp
exchange) + 2 (commit consensus) = **6 steps**; clock-update latency is
another 6, giving the failure-free **12 steps** the paper quotes — the
gap PrimCast's 3/5 is measured against. Not part of the paper's §7
evaluation; provided for the related-work comparison.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from ..core.endpoint import GroupProtocolProcess
from ..core.messages import MessageId, Multicast


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


class ClAccept:
    """Group log, phase 2a: the leader proposes ``entry`` for ``slot``."""

    __slots__ = ("slot", "entry")
    kind = "paxos-2a"

    def __init__(self, slot: int, entry: _LogEntry):
        self.slot = slot
        self.entry = entry


class ClAccepted:
    """Group log, phase 2b, sent to all members (all learn in one step)."""

    __slots__ = ("slot", "entry")
    kind = "paxos-2b"

    def __init__(self, slot: int, entry: _LogEntry):
        self.slot = slot
        self.entry = entry


CLASSIC_KINDS = ("start", "cl-ts", "paxos-2a", "paxos-2b")


class ClassicProcess(GroupProtocolProcess):
    """One group member of the classic consensus-based multicast."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.is_leader = self.config.initial_leader(self.gid) == self.pid
        self.clock = 0
        self._multicasts: Dict[MessageId, Multicast] = {}
        self._proposed: Set[MessageId] = set()  # leader-side dedup
        self._committed_appended: Set[MessageId] = set()
        self._local_ts: Dict[MessageId, int] = {}  # this group's ts
        self._remote_ts: Dict[MessageId, Dict[int, int]] = {}
        self._finals: Dict[MessageId, int] = {}  # committed finals
        # --- group log ---
        self._next_slot = 0  # leader: next slot to assign
        self._votes: Dict[int, Set[int]] = {}  # slot -> ClAccepted senders
        self._decided: Dict[int, _LogEntry] = {}  # decided, not yet applied
        self._apply_cursor = 0  # next slot to apply
        self._r_dispatch.update({
            ClStart: self._on_start,
            ClTimestamp: self._on_timestamp,
            ClAccept: self._on_accept,
            ClAccepted: self._on_accepted,
        })

    def a_multicast_m(self, multicast: Multicast) -> None:
        leaders = [self.config.initial_leader(g) for g in sorted(multicast.dest)]
        self.r_multicast(ClStart(multicast), leaders)

    # ------------------------------------------------------------------
    # group log
    # ------------------------------------------------------------------

    def _append(self, entry: _LogEntry) -> None:
        """Leader: propose ``entry`` for the next slot."""
        slot = self._next_slot
        self._next_slot += 1
        self.r_multicast(ClAccept(slot, entry), self.group_members)

    def _on_accept(self, origin: int, msg: ClAccept) -> None:
        self.r_multicast(ClAccepted(msg.slot, msg.entry), self.group_members)

    def _on_accepted(self, origin: int, msg: ClAccepted) -> None:
        """Decide a slot on a quorum of votes; apply in slot order."""
        slot = msg.slot
        if slot < self._apply_cursor or slot in self._decided:
            return
        voters = self._votes.setdefault(slot, set())
        voters.add(origin)
        if not self.config.has_quorum(self.gid, voters):
            return
        del self._votes[slot]
        self._decided[slot] = msg.entry
        while self._apply_cursor in self._decided:
            entry = self._decided.pop(self._apply_cursor)
            self._apply_cursor += 1
            self._apply_entry(entry)

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
        self._append(_LogEntry("propose", multicast))

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
        self._append(_LogEntry("commit", multicast, final))

    def _apply_entry(self, entry: _LogEntry) -> None:
        """Deterministic application of the group log, at every member."""
        mid = entry.multicast.mid
        self._multicasts.setdefault(mid, entry.multicast)
        if entry.action == "propose":
            self.clock += 1
            self._local_ts[mid] = self.clock
            if mid not in self.delivered:
                self.queue.add_pending(mid)
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
            self.queue.add_pending(mid)  # no-op if already pending
            self.queue.commit(mid, final)
        self._deliver_ready(self.clock)

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

    def _deliver(self, mid: MessageId, final: int) -> None:
        self._record_delivery(self._multicasts[mid], final)
