"""The leader oracle Ω (§2.1): one per process, on both backends.

Ω outputs a member of the group at every process, and eventually every
correct process is given the same correct leader; before that, its
output may differ per process. :class:`HeartbeatOmega` is the classic
partially-synchronous construction [Aguilera et al., DISC'01]: a peer
not heard from within the suspicion timeout is suspected, and the output
is the first non-suspected member in preference order. So a partition
or a slow link can depose a live primary, and safety must hold anyway.

Any frame from a peer proves it alive, not only a heartbeat: the host
reports every arrival to :meth:`HeartbeatOmega.heard_from`, which keeps
the stamps of group peers only. The initial output is the group's first
member, and every peer counts as heard at ``start()``, so a slow first
heartbeat triggers no election. Rounds fall on multiples of
:data:`HB_INTERVAL_MS` of scheduler time (the housekeeping grid,
:func:`repro.core.gc.next_grid_time`), and callbacks fire from that
timer, between two handlers, never inside one.

The hosts: ``NetNode`` on the asyncio backend (a heartbeat only on a
link without a write since the previous round), and on the simulator
:func:`attach_omegas`, whose rounds send :data:`HEARTBEAT` through the
sim network, so partitions and delay windows silence it. Stable-leader
runs attach no Ω, and their event schedule is untouched.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

from ..core.gc import next_grid_time

if TYPE_CHECKING:
    from ..core.process import PrimCastProcess
    from ..net.runtime import TimerHandle

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
        members: group member pids in preference order (first
            non-suspected member wins).
        own_pid: the hosting node's pid (never suspected locally).
        scheduler: the node's scheduler facade (timers + ``now``).
        on_round: the node's part of a round (its heartbeats to the
            group peers), run every :data:`HB_INTERVAL_MS` of scheduler
            time before the election.
        suspect_ms: silence threshold before a peer is suspected;
            positive and finite (a NaN threshold would never suspect).
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
        if not 0.0 < suspect_ms < math.inf:
            raise ValueError(f"suspect_ms must be positive and finite, got {suspect_ms}")
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
        # output (no peer is left to tell us otherwise).
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


class _Heartbeat:
    """What a simulated Ω round sends: it has no ``mid``, so the
    genuineness check files it with the group's housekeeping."""

    __slots__ = ()
    kind = "heartbeat"


HEARTBEAT = _Heartbeat()


def attach_omegas(
    processes: Mapping[int, "PrimCastProcess"], suspect_ms: float
) -> Dict[int, HeartbeatOmega]:
    """Give every simulated process its own :class:`HeartbeatOmega`,
    subscribe the process and start the Ω; returns pid → Ω.

    The simulator's ``NetNode._omega_round`` plus ``_on_frame``: a round
    sends :data:`HEARTBEAT` to each group peer unless the process has
    crashed, and the process's receive callback is wrapped to stamp
    every arrival and drop heartbeats before the CPU queue (they cost no
    simulated CPU).
    """
    omegas: Dict[int, HeartbeatOmega] = {}
    for pid, proc in processes.items():
        omega = omegas[pid] = HeartbeatOmega(
            proc.gid,
            proc.group_members,
            pid,
            proc.scheduler,
            _heartbeat_round(proc),
            suspect_ms,
        )
        proc._enqueue_cb = _stamping(proc._enqueue_cb, omega.heard_from)
        omega.subscribe(proc._on_omega_output)
        omega.start()
    return omegas


def _heartbeat_round(proc: "PrimCastProcess") -> Callable[[], None]:
    pid, scheduler, transmit = proc.pid, proc.scheduler, proc.network.transmit
    peers = [peer for peer in proc.group_members if peer != pid]

    def send_heartbeats() -> None:
        if not proc.crashed:
            now = scheduler.now
            for peer in peers:
                transmit(pid, peer, HEARTBEAT, now)

    return send_heartbeats


def _stamping(
    enqueue: Callable[[int, Any], None], heard_from: Callable[[int], None]
) -> Callable[[int, Any], None]:
    def receive(src: int, msg: Any) -> None:
        heard_from(src)
        if msg is not HEARTBEAT:
            enqueue(src, msg)

    return receive
