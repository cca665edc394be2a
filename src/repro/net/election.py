"""Heartbeat-based leader oracle Ω for the asyncio backend (§2.1).

The simulation's :class:`~repro.election.omega.OmegaOracle` reads each
process's ``crashed`` flag — local knowledge that does not exist across
OS processes. The net backend implements the same oracle abstraction
with the classic partially-synchronous construction [Aguilera et al.,
DISC'01]: every node heartbeats its group peers at a fixed interval; a
peer not heard from within the suspicion timeout is suspected; the
output is the first non-suspected member in preference order. Both
implementations satisfy :class:`repro.net.runtime.LeaderOracle`, so the
protocol process cannot tell them apart.

Startup matches the sim: the initial output is the group's first member
(the configured initial primary), and every peer counts as heard at
``start()``, so a slow first heartbeat does not trigger a spurious
election while the cluster is still wiring up. The heartbeat cadence is
the constant :data:`HB_INTERVAL_MS`; the suspicion timeout travels in
the cluster spec, so a bench can stretch it instead of paying for false
suspicions on a loaded loop.

Callbacks fire from scheduler context (the oracle's tick is a scheduler
timer), preserving the same serialisation the sim oracle provides.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

LeaderCallback = Callable[[int, int], None]  # (group_id, leader_pid)

#: Tuned for localhost clusters: sub-second failover without false
#: suspicions under normal scheduling jitter.
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
        send_heartbeat: callback emitting one heartbeat round to the
            group peers (wired to the node's transport).
        suspect_ms: silence threshold before a peer is suspected.
    """

    def __init__(
        self,
        group_id: int,
        members: List[int],
        own_pid: int,
        scheduler: Any,
        send_heartbeat: Callable[[], None],
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
        self.send_heartbeat = send_heartbeat
        self.suspect_ms = suspect_ms
        self.leader = members[0]
        self._subscribers: List[LeaderCallback] = []
        self._last_heard: Dict[int, float] = {}
        self._running = False

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
        if self._running:
            return
        self._running = True
        now = self.scheduler.now
        for pid in self.members:
            if pid != self.own_pid:
                self._last_heard[pid] = now
        self.scheduler.call_after(HB_INTERVAL_MS, self._tick)

    def stop(self) -> None:
        self._running = False

    def heard_from(self, pid: int) -> None:
        """Record a heartbeat (or any frame) from a group member."""
        self._last_heard[pid] = self.scheduler.now

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

    def _tick(self) -> None:
        if not self._running:
            return
        self.send_heartbeat()
        new_leader = self._elect()
        if new_leader != self.leader:
            self.leader = new_leader
            for callback in self._subscribers:
                callback(self.group_id, new_leader)
        self.scheduler.call_after(HB_INTERVAL_MS, self._tick)
