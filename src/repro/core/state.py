"""Incremental trackers behind PrimCast's predicates (Algorithm 1).

The paper defines ``local-ts``, ``min-clock`` and ``quorum-clock`` as
scans over the tuple set ``M``. Scanning M on every event would be
quadratic, so the process keeps these trackers incrementally up to date;
:mod:`repro.core.spec` holds the literal scan-based definitions and the
test suite checks the two agree on random traces.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from .config import GroupConfig

#: True when ``int.bit_count`` exists (3.10+); the tracker then counts
#: quorum bits with the C method instead of the ``bin().count`` fallback.
_HAS_BIT_COUNT = sys.version_info >= (3, 10)
from .epoch import Epoch
from .messages import MessageId


class SafetyViolationError(AssertionError):
    """Raised when tracked state contradicts a protocol invariant —
    e.g. two different timestamps acknowledged for one message in one
    epoch. Never raised in a correct run; exists to fail loudly in tests
    and fault-injection experiments."""


class AckTracker:
    """Tracks ack quorums for one (message, destination group) pair.

    ``local-ts(m, h)`` (Algorithm 1, line 9) is decided once acks for
    ``m`` from a quorum of ``h``, all from the same epoch, are in M.

    Ack senders are tracked as a bitmask over the group's member
    positions (``GroupConfig._member_bits``) rather than a per-epoch
    set: with one tracker per (message, group) and every member acking
    every message, set allocation and hashing dominated ``_on_ack``. In
    the overwhelmingly common case — all acks from one epoch — a tracker
    is three scalar fields; further epochs (epoch changes mid-message)
    spill into a lazily created dict. Non-member senders contribute bit
    0: they can never form a quorum but their timestamp is still
    recorded for conflict detection, exactly as the set form did.
    """

    __slots__ = ("epoch0", "ts0", "mask0", "overflow", "decided_epoch", "decided_ts")

    def __init__(self) -> None:
        # First epoch seen (None = no acks yet), its ts and sender mask.
        self.epoch0: Optional[Epoch] = None
        self.ts0 = 0
        self.mask0 = 0
        # Rare additional epochs: epoch -> [ts, mask].
        self.overflow: Optional[Dict[Epoch, List[int]]] = None
        self.decided_epoch: Optional[Epoch] = None
        self.decided_ts: Optional[int] = None

    def add_ack(
        self,
        config: GroupConfig,
        group: int,
        epoch: Epoch,
        ts: int,
        sender: int,
        mid: MessageId,
    ) -> bool:
        """Record an ack; returns True if this decided the local ts."""
        if self.decided_ts is not None:
            # The local ts is already fixed; the common late acks (every
            # group member acks every message) only need the conflict
            # check against epochs already recorded — sender upkeep
            # cannot change the decision.
            if epoch == self.epoch0:
                if self.ts0 != ts:
                    raise SafetyViolationError(
                        f"conflicting ack timestamps for m={mid} in group {group} "
                        f"epoch {epoch}: {self.ts0} vs {ts}"
                    )
            elif self.overflow is not None:
                entry = self.overflow.get(epoch)
                if entry is not None and entry[0] != ts:
                    raise SafetyViolationError(
                        f"conflicting ack timestamps for m={mid} in group {group} "
                        f"epoch {epoch}: {entry[0]} vs {ts}"
                    )
            return False
        # Reads GroupConfig's precomputed tables (_member_bits,
        # _quorum_masks, _majority_sizes) directly: this method runs once
        # per ack of every run, where a call frame per lookup shows.
        bit = config._member_bits[group].get(sender, 0)
        if self.epoch0 is None:
            self.epoch0 = epoch
            self.ts0 = ts
            mask = self.mask0 = bit
        elif epoch == self.epoch0:
            if self.ts0 != ts:
                raise SafetyViolationError(
                    f"conflicting ack timestamps for m={mid} in group {group} "
                    f"epoch {epoch}: {self.ts0} vs {ts}"
                )
            mask = self.mask0 = self.mask0 | bit
        else:
            overflow = self.overflow
            if overflow is None:
                overflow = self.overflow = {}
            entry = overflow.get(epoch)
            if entry is None:
                overflow[epoch] = [ts, bit]
                mask = bit
            else:
                if entry[0] != ts:
                    raise SafetyViolationError(
                        f"conflicting ack timestamps for m={mid} in group {group} "
                        f"epoch {epoch}: {entry[0]} vs {ts}"
                    )
                entry[1] |= bit
                mask = entry[1]
        quorums = config._quorum_masks.get(group)
        if quorums is None:
            if _HAS_BIT_COUNT:
                decided = mask.bit_count() >= config._majority_sizes[group]
            else:  # pragma: no cover - exercised only on 3.9
                decided = bin(mask).count("1") >= config._majority_sizes[group]
        else:
            decided = False
            for qm in quorums:
                if qm & mask == qm:
                    decided = True
                    break
        if decided:
            self.decided_epoch = epoch
            self.decided_ts = ts
            return True
        return False

    @property
    def local_ts(self) -> Optional[int]:
        """The decided local timestamp, or None (⊥)."""
        return self.decided_ts


class ClockTracker:
    """min-clock(q) values for the members of one group (line 15).

    ``min-clock(q)`` is the highest clock value seen from ``q`` in acks
    (own group) or bumps with epoch ≤ E_cur. Tuples from higher epochs
    are buffered and folded in when E_cur advances — the spec's M keeps
    everything and re-filters per E_cur; buffering is the incremental
    equivalent.
    """

    __slots__ = ("values", "deferred")

    def __init__(self, members: List[int]) -> None:
        self.values: Dict[int, int] = {pid: 0 for pid in members}
        # tuples (epoch, ts, sender) with epoch > E_cur at receipt time
        self.deferred: List[Tuple[Epoch, int, int]] = []

    def observe(self, e_cur: Epoch, epoch: Epoch, ts: int, sender: int) -> bool:
        """Record a clock observation; returns True if min-clock grew."""
        if epoch > e_cur:
            self.deferred.append((epoch, ts, sender))
            return False
        values = self.values
        if ts > values.get(sender, 0):
            values[sender] = ts
            return True
        return False

    def advance_epoch(self, e_cur: Epoch) -> bool:
        """Fold in deferred tuples now that E_cur advanced to ``e_cur``;
        returns True if any min-clock grew."""
        if not self.deferred:
            return False
        still_deferred: List[Tuple[Epoch, int, int]] = []
        changed = False
        for epoch, ts, sender in self.deferred:
            if epoch > e_cur:
                still_deferred.append((epoch, ts, sender))
            elif ts > self.values.get(sender, 0):
                self.values[sender] = ts
                changed = True
        self.deferred = still_deferred
        return changed

    def min_clock(self, pid: int) -> int:
        """min-clock(pid)."""
        return self.values.get(pid, 0)
