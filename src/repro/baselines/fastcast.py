"""FastCast [Coelho, Schiper, Pedone — DSN'17] (§4.1).

Genuine atomic multicast with collision-free/failure-free latency of 4/8
communication steps. Each group runs consensus twice per message — once
to fix its local timestamp, once on the optimistic final timestamp — and
group leaders exchange *soft* (pre-consensus) and *hard* (post-consensus)
timestamp notifications with every destination process:

1. The sender sends ``m`` to all destination processes (``start``).
2. The leader of each destination group assigns a local timestamp and
   (a) sends it as a **soft** notification to every destination process,
   (b) proposes it through round-1 consensus in its group.
3. When round-1 decides, the leader sends the **hard** notification to
   every destination process.
4. A leader holding softs from all destination leaders proposes their
   maximum — the optimistic final timestamp — through round-2 consensus.
5. Fast path: when the optimistic timestamp (decided by round 2) equals
   the final timestamp (max of all hards), the message is deliverable in
   final-timestamp order — 4 steps end to end. Otherwise a third,
   sequential consensus round on the true final timestamp is run (the
   slow path; with stable leaders soft and hard values coincide, so the
   paper's evaluation always rides the fast path — but both rounds'
   message cost is always paid, which is why FastCast saturates first).

Message complexity per multicast to k groups of n (Table 1):
``kn + 2k²n + 2kn + 2kn²``.

Consensus here is phase-2 Paxos under a stable leader, carried by this
module's own ``Fc2A`` / ``Fc2B`` messages; there is no leader change —
the paper's evaluation (and ours) runs the failure-free path.
"""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

from ..core.endpoint import GroupProtocolProcess
from ..core.messages import MessageId, Multicast

# Consensus round ids.
ROUND_LOCAL = 1  # decide the group's local timestamp
ROUND_OPT = 2  # decide the optimistic final timestamp
ROUND_FINAL = 3  # slow path: decide the true final timestamp


class FcStart:
    __slots__ = ("multicast",)
    kind = "start"

    def __init__(self, multicast: Multicast):
        self.multicast = multicast

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid


class FcSoft:
    """Leader's pre-consensus timestamp proposal (step 2a)."""

    __slots__ = ("multicast", "group", "ts")
    kind = "fc-soft"

    def __init__(self, multicast: Multicast, group: int, ts: int):
        self.multicast = multicast
        self.group = group
        self.ts = ts

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid


class FcHard:
    """Leader's decided local timestamp (step 3)."""

    __slots__ = ("multicast", "group", "ts")
    kind = "fc-hard"

    def __init__(self, multicast: Multicast, group: int, ts: int):
        self.multicast = multicast
        self.group = group
        self.ts = ts

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid


class Fc2A:
    """Paxos phase 2a inside a group (stable-leader ballot)."""

    __slots__ = ("multicast", "round", "ts")
    kind = "fc-2a"

    def __init__(self, multicast: Multicast, round_id: int, ts: int):
        self.multicast = multicast
        self.round = round_id
        self.ts = ts

    @property
    def mid(self) -> MessageId:
        return self.multicast.mid


class Fc2B:
    """Paxos phase 2b, sent to all group members (all learn in 1 step)."""

    __slots__ = ("mid", "round", "ts", "sender")
    kind = "fc-2b"

    def __init__(self, mid: MessageId, round_id: int, ts: int, sender: int):
        self.mid = mid
        self.round = round_id
        self.ts = ts
        self.sender = sender


FASTCAST_KINDS = ("start", "fc-soft", "fc-hard", "fc-2a", "fc-2b")


class FastCastProcess(GroupProtocolProcess):
    """One group member of FastCast (stable leaders)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.is_leader = self.config.initial_leader(self.gid) == self.pid
        self.clock = 0
        self._multicasts: Dict[MessageId, Multicast] = {}
        self._proposed: Set[MessageId] = set()  # leader: round-1 started
        self._softs: Dict[MessageId, Dict[int, int]] = {}
        self._hards: Dict[MessageId, Dict[int, int]] = {}
        self._local_ts: Dict[MessageId, int] = {}  # own-group proposal (2a r1)
        # (mid, round) -> {sender: ts}
        self._votes: Dict[Tuple[MessageId, int], Dict[int, int]] = {}
        self._decided: Dict[Tuple[MessageId, int], int] = {}
        self._final: Dict[MessageId, int] = {}
        self._opt_proposed: Set[MessageId] = set()
        self._slow_proposed: Set[MessageId] = set()
        self._r_dispatch.update({
            Fc2B: self._on_2b,
            Fc2A: self._on_2a,
            FcSoft: self._on_soft,
            FcHard: self._on_hard,
            FcStart: self._on_start,
        })

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def a_multicast_m(self, multicast: Multicast) -> None:
        self.r_multicast(FcStart(multicast), self.config.dest_pids(multicast.dest))

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _on_start(self, origin: int, start: FcStart) -> None:
        multicast = start.multicast
        mid = multicast.mid
        self._multicasts.setdefault(mid, multicast)
        if self.is_leader and mid not in self._proposed:
            self._proposed.add(mid)
            self.clock += 1
            soft = FcSoft(multicast, self.gid, self.clock)
            self.r_multicast(soft, self.config.dest_pids(multicast.dest))
            self.r_multicast(Fc2A(multicast, ROUND_LOCAL, self.clock), self.group_members)

    def _on_2a(self, origin: int, msg: Fc2A) -> None:
        """Accept the leader's proposal and vote (all-to-all 2b)."""
        mid = msg.mid
        self._multicasts.setdefault(mid, msg.multicast)
        if msg.round == ROUND_LOCAL:
            self._local_ts[mid] = msg.ts
            if mid not in self.delivered:
                self.queue.add_pending(mid)
            if msg.ts > self.clock:
                self.clock = msg.ts
        self.r_multicast(Fc2B(mid, msg.round, msg.ts, self.pid), self.group_members)

    def _on_2b(self, origin: int, msg: Fc2B) -> None:
        key = (msg.mid, msg.round)
        if key in self._decided:
            return
        votes = self._votes.setdefault(key, {})
        votes[msg.sender] = msg.ts
        if not self.config.has_quorum(self.gid, votes.keys()):
            return
        self._decided[key] = msg.ts
        del self._votes[key]
        multicast = self._multicasts.get(msg.mid)
        if msg.round == ROUND_LOCAL:
            # Local timestamp fixed: the leader publishes the hard value.
            if self.is_leader and multicast is not None:
                hard = FcHard(multicast, self.gid, msg.ts)
                self.r_multicast(hard, self.config.dest_pids(multicast.dest))
        elif msg.round in (ROUND_OPT, ROUND_FINAL):
            if msg.ts > self.clock:
                self.clock = msg.ts
            self._maybe_commit(msg.mid)
            self._deliver_ready(self.clock)

    def _on_soft(self, origin: int, msg: FcSoft) -> None:
        mid = msg.mid
        self._multicasts.setdefault(mid, msg.multicast)
        softs = self._softs.setdefault(mid, {})
        softs[msg.group] = msg.ts
        multicast = msg.multicast
        # §4.1: the optimistic path doubles as the group's early clock
        # update — the leader must never propose below a soft it has
        # seen, or a later local message could undercut an already
        # decided optimistic final timestamp.
        if self.is_leader and msg.ts > self.clock:
            self.clock = msg.ts
        if (
            self.is_leader
            and self.gid in multicast.dest
            and len(softs) == len(multicast.dest)
            and mid not in self._opt_proposed
        ):
            # Step 4: propose the optimistic final timestamp.
            self._opt_proposed.add(mid)
            opt = max(softs.values())
            self.r_multicast(Fc2A(multicast, ROUND_OPT, opt), self.group_members)

    def _on_hard(self, origin: int, msg: FcHard) -> None:
        mid = msg.mid
        self._multicasts.setdefault(mid, msg.multicast)
        hards = self._hards.setdefault(mid, {})
        hards[msg.group] = msg.ts
        multicast = msg.multicast
        if len(hards) == len(multicast.dest):
            self._final[mid] = max(hards.values())
            self._maybe_commit(mid)
            self._deliver_ready(self.clock)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def _maybe_commit(self, mid: MessageId) -> None:
        """Fast path: optimistic decision equals the final timestamp.
        Slow path: a ROUND_FINAL decision matching the final timestamp.
        The leader starts the slow path on a fast-path mismatch."""
        if mid in self.delivered or self.queue.is_committed(mid):
            return
        final = self._final.get(mid)
        if final is None:
            return
        opt = self._decided.get((mid, ROUND_OPT))
        if opt == final or self._decided.get((mid, ROUND_FINAL)) == final:
            self.queue.commit(mid, final)
            return
        if opt is not None and opt != final and self.is_leader:
            if mid not in self._slow_proposed:
                self._slow_proposed.add(mid)
                multicast = self._multicasts[mid]
                self.r_multicast(
                    Fc2A(multicast, ROUND_FINAL, final), self.group_members
                )

    def _min_bound(self, mid: MessageId) -> int:
        """Lower bound on another pending message's final timestamp: the
        largest proposal seen for it from any source."""
        bound = self._local_ts.get(mid, 0)
        softs = self._softs.get(mid)
        if softs:
            bound = max(bound, max(softs.values()))
        hards = self._hards.get(mid)
        if hards:
            bound = max(bound, max(hards.values()))
        return bound

    def _deliver(self, mid: MessageId, final: int) -> None:
        self._record_delivery(self._multicasts[mid], final)
