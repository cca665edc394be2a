"""Heartbeat-based leader oracle Ω for the asyncio backend (§2.1).

The simulation's :class:`~repro.election.omega.OmegaOracle` reads each
process's ``crashed`` flag — local knowledge that does not exist across
OS processes. The net backend implements the same oracle abstraction
with the classic partially-synchronous construction [Aguilera et al.,
DISC'01]: a peer not heard from within the suspicion timeout is
suspected; the output is the first non-suspected member in preference
order. Both implementations satisfy
:class:`repro.net.runtime.LeaderOracle`, so the protocol process cannot
tell them apart.

Any frame from a peer proves it alive, not only a heartbeat (Ω needs
eventual accuracy only): the node reports every frame it receives to
:meth:`HeartbeatOmega.heard_from`, which keeps the stamps of group
peers only, and a heartbeat round sends a heartbeat only on a link that
carried no write since the previous round (``NetNode._omega_round``).
A live peer is therefore never silent for more than two rounds,
``2 * HB_INTERVAL_MS``; a loaded link carries no heartbeats at all.

Startup matches the sim: the initial output is the group's first member
(the configured initial primary), and every peer counts as heard at
``start()``, so a slow first heartbeat does not trigger a spurious
election while the cluster is still wiring up. The round cadence is the
constant :data:`HB_INTERVAL_MS`, and rounds fall on its multiples of
scheduler time (the housekeeping grid, :func:`repro.core.gc.next_grid_time`),
so the rounds of every node on one loop share a wakeup. The suspicion
timeout travels in the cluster spec, so a bench can stretch it instead
of paying for false suspicions on a loaded loop.

Callbacks fire from scheduler context (the oracle's tick is a scheduler
timer), preserving the same serialisation the sim oracle provides.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..core.gc import next_grid_time
from .runtime import TimerHandle

LeaderCallback = Callable[[int, int], None]  # (group_id, leader_pid)

#: The heartbeat round, and the grid every periodic timer of a node
#: falls on. Tuned for localhost clusters: sub-second failover without
#: false suspicions under normal scheduling jitter.
HB_INTERVAL_MS = 50.0
DEFAULT_SUSPECT_MS = 500.0


class HeartbeatOmega:
    """Leader oracle for one group, driven by heartbeat receipt times.

    Args:
        group_id: the group this oracle serves.
        members: group member pids in preference order (first correct
            member wins — same rule as the sim oracle).
        own_pid: the hosting node's pid (never suspected locally).
        scheduler: the node's scheduler facade (timers + ``now``).
        on_round: the node's part of a round (its heartbeats to the
            group peers), run every :data:`HB_INTERVAL_MS` of scheduler
            time before the election.
        suspect_ms: silence threshold before a peer is suspected.
    """

    def __init__(
        self,
        group_id: int,
        members: List[int],
        own_pid: int,
        scheduler: Any,
        on_round: Callable[[], None],
        suspect_ms: float = DEFAULT_SUSPECT_MS,
    ) -> None:
        if not members:
            raise ValueError("group must have at least one member")
        if suspect_ms <= 0:
            raise ValueError("the suspicion timeout must be positive")
        self.group_id = group_id
        self.members = list(members)
        self.own_pid = own_pid
        self.scheduler = scheduler
        self.on_round = on_round
        self.suspect_ms = suspect_ms
        self.leader = members[0]
        self._subscribers: List[LeaderCallback] = []
        #: Group peer -> when last heard from; its keys are exactly the
        #: peers from start() on (this node and other groups never enter).
        self._last_heard: Dict[int, float] = {}
        #: The armed next tick; None before start() and after stop().
        self._handle: Optional[TimerHandle] = None

    # -- oracle interface (LeaderOracle) ---------------------------------

    def subscribe(self, callback: LeaderCallback) -> None:
        """Register ``callback(group_id, leader_pid)``; fires immediately
        with the current output (Ω always has an output)."""
        self._subscribers.append(callback)
        callback(self.group_id, self.leader)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Count every peer as heard now and start the heartbeat/suspect
        timer: a silent peer is suspected ``suspect_ms`` after start."""
        if self._handle is not None:
            return
        now = self.scheduler.now
        for pid in self.members:
            if pid != self.own_pid:
                self._last_heard[pid] = now
        self._arm()

    def stop(self) -> None:
        """Cancel the armed tick, so no round runs after this. Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def heard_from(self, pid: int) -> None:
        """Record a heartbeat (or any frame) from ``pid`` if it is a group
        peer; anyone else is no business of this group's Ω."""
        last_heard = self._last_heard
        if pid in last_heard:
            last_heard[pid] = self.scheduler.now

    def suspected(self, pid: int) -> bool:
        """True when ``pid`` is currently suspected by this node."""
        if pid == self.own_pid:
            return False
        last = self._last_heard.get(pid)
        if last is None:
            return True
        return (self.scheduler.now - last) > self.suspect_ms

    # -- internals -------------------------------------------------------

    def _elect(self) -> int:
        for pid in self.members:
            if not self.suspected(pid):
                return pid
        # Everyone suspected (e.g. total partition): keep the previous
        # output, matching the sim oracle's all-crashed behaviour.
        return self.leader

    def _arm(self) -> None:
        due = next_grid_time(self.scheduler.now, HB_INTERVAL_MS)
        self._handle = self.scheduler.call_at(due, self._tick)

    def _tick(self) -> None:
        self.on_round()
        new_leader = self._elect()
        if new_leader != self.leader:
            self.leader = new_leader
            for callback in self._subscribers:
                callback(self.group_id, new_leader)
        self._arm()
