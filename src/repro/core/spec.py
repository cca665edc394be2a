"""Literal, scan-based reference implementation of Algorithm 1.

:class:`~repro.core.process.PrimCastProcess` evaluates the paper's
predicates incrementally for performance. This module re-derives the same
values by brute-force scans over a literally recorded tuple set ``M``,
exactly as the pseudocode defines them. The test suite attaches a
:class:`SpecRecorder` to running processes and cross-checks the two
implementations on random executions (differential testing).

Known, deliberate deviations of the fast path (documented in DESIGN.md),
both delivery-conservative and excluded from the differential comparison:

1. own-group acks also store the carried multicast in ``started`` (the
   spec only adds ⟨start, m⟩ for *remote* acks, line 47) — the ack
   physically carries the payload, so this only widens when
   ``proposable`` can fire;
2. a process only delivers messages present in its T sequence, while the
   literal ``deliverable`` (line 26) would, in rare channel reorderings,
   allow delivery from ack quorums alone one event earlier.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..rmcast.fifo import RHandler
from .config import GroupConfig
from .epoch import Epoch
from .messages import Ack, Bump, MessageId, Multicast, Start
from .process import PrimCastProcess

# Literal M tuples.
AckTuple = Tuple[str, MessageId, int, Epoch, int, int]  # ack, m, h, E, ts, q
BumpTuple = Tuple[str, Epoch, int, int]  # bump, E, ts, q
StartTuple = Tuple[str, MessageId]  # start, m


class SpecRecorder:
    """Records every r-delivered tuple of one process into a literal M."""

    def __init__(self, proc: PrimCastProcess) -> None:
        self.proc = proc
        self.acks: List[AckTuple] = []
        self.bumps: List[BumpTuple] = []
        self.starts: Set[MessageId] = set()
        self.multicasts: Dict[MessageId, Multicast] = {}

    def record(self, origin: int, payload: object) -> None:
        if isinstance(payload, Ack):
            self.acks.append(
                ("ack", payload.mid, payload.group, payload.epoch, payload.ts, payload.sender)
            )
            self.multicasts[payload.mid] = payload.multicast
            if payload.group != self.proc.gid:
                self.starts.add(payload.mid)  # line 47
        elif isinstance(payload, Start):
            self.starts.add(payload.mid)
            self.multicasts[payload.mid] = payload.multicast
        elif isinstance(payload, Bump):
            self.bumps.append(("bump", payload.epoch, payload.ts, payload.sender))

    # ------------------------------------------------------------------
    # Algorithm 1, literal predicates
    # ------------------------------------------------------------------

    def local_ts(self, config: GroupConfig, mid: MessageId, group: int) -> Optional[int]:
        """Line 9: ts such that a quorum of ``group`` acked (m, E', ts)
        for a single epoch E'."""
        by_key: Dict[Tuple[Epoch, int], Set[int]] = {}
        for _, m, h, epoch, ts, q in self.acks:
            if m != mid or h != group:
                continue
            by_key.setdefault((epoch, ts), set()).add(q)
        for (epoch, ts), senders in sorted(by_key.items()):
            if config.has_quorum(group, senders):
                return ts
        return None

    def min_clock(self, config: GroupConfig, e_cur: Epoch, q: int) -> int:
        """Line 15: highest ts seen from ``q`` in own-group acks or bumps
        from epoch E_cur or earlier."""
        gid = self.proc.gid
        best = 0
        for _, _, h, epoch, ts, sender in self.acks:
            if h == gid and sender == q and epoch <= e_cur and ts > best:
                best = ts
        for _, epoch, ts, sender in self.bumps:
            if sender == q and epoch <= e_cur and ts > best:
                best = ts
        return best

    def quorum_clock(self, config: GroupConfig, e_cur: Epoch) -> int:
        """Line 17: max ts such that a quorum has min-clock ≥ ts."""
        gid = self.proc.gid
        clocks = {q: self.min_clock(config, e_cur, q) for q in config.members(gid)}
        return config.quorum_clock_value(gid, clocks)

    def final_ts(self, config: GroupConfig, mid: MessageId) -> Optional[int]:
        """Line 12: max over all destination groups, all decided."""
        multicast = self.multicasts.get(mid)
        if multicast is None:
            return None
        values: List[int] = []
        for gid in multicast.dest:
            ts = self.local_ts(config, mid, gid)
            if ts is None:
                return None
            values.append(ts)
        return max(values)

    def min_ts(self, config: GroupConfig, e_cur: Epoch, mid: MessageId) -> int:
        """Line 19, using the process's T for the proposal lookup."""
        multicast = self.multicasts[mid]
        known = [
            ts
            for gid in multicast.dest
            if (ts := self.local_ts(config, mid, gid)) is not None
        ]
        known_max = max(known) if known else 0
        entry = self.proc.t_by_mid.get(mid)
        t_ts: float = entry[1] if entry is not None else float("inf")
        lower = min(
            t_ts,
            1 + self.min_clock(config, e_cur, e_cur.leader),
            1 + self.quorum_clock(config, e_cur),
        )
        return int(max(known_max, lower))


def attach_spec_recorder(proc: PrimCastProcess) -> SpecRecorder:
    """Wrap ``proc``'s r-deliver handlers to mirror every tuple into a
    literal M."""
    recorder = SpecRecorder(proc)
    dispatch = proc._r_dispatch

    def recorded(handler: RHandler) -> RHandler:
        def wrapped(origin: int, payload: Any) -> None:
            recorder.record(origin, payload)
            handler(origin, payload)

        return wrapped

    for cls, handler in list(dispatch.items()):
        dispatch[cls] = recorded(handler)
    return recorder
