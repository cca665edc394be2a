"""PrimCast replica process — Algorithms 1, 2 and 3 of the paper.

One :class:`PrimCastProcess` per server. Processes communicate only via
FIFO non-uniform reliable multicast (``r_multicast`` / the ``_r_dispatch``
handlers), exactly as the pseudocode does. The predicates of Algorithm 1 are
evaluated incrementally with the trackers in :mod:`repro.core.state`; the
literal scan-based predicates live in :mod:`repro.core.spec` and the test
suite cross-checks the two.

The hybrid-clock modification of §6 (PrimCast HC) is a one-line change
to the proposal rule (``clock = max(clock + 1, real-clock())``), taken
exactly when the process is given a
:class:`~repro.sim.clock.PhysicalClock`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..sim.clock import PhysicalClock
from ..sim.costs import CostModel
from .config import GroupConfig
from .delivery import DeliveryQueue
from .endpoint import GroupProtocolProcess

if TYPE_CHECKING:
    from ..net.runtime import LeaderOracle, SchedulerAPI, TransportAPI
from .epoch import Epoch, initial_epoch
from .messages import (
    Ack,
    AcceptEpoch,
    Bump,
    EpochPromise,
    MessageId,
    Multicast,
    NewEpoch,
    NewState,
    Start,
)
from .state import AckTracker, ClockTracker

# Process roles (the paper's `state` variable, Algorithm 1 line 8 and
# Algorithm 3).
PRIMARY = "primary"
FOLLOWER = "follower"
CANDIDATE = "candidate"
PROMISED = "promised"

#: Events fired through ``add_probe_hook`` (:mod:`repro.core.endpoint`);
#: ``data`` is the message id unless stated otherwise. The chaos nemesis
#: (:mod:`repro.chaos.nemesis`) uses them to trigger faults at
#: protocol-relevant moments instead of wall-clock times:
#:
#: * ``"start"`` — a ⟨start, m⟩ tuple was r-delivered (line 33), before
#:   any local timestamp exists for m at this process;
#: * ``"propose"`` — this process appended a local timestamp for m to T
#:   and is about to ack it (lines 36-39);
#: * ``"ack_quorum"`` — a group's local timestamp for m was decided at
#:   this process (the group's ack quorum completed, lines 40-41);
#: * ``"epoch_change"`` — this process started an epoch change
#:   (Algorithm 3, lines 58-60); data is the new promised epoch;
#: * ``"deliver"`` — m was a-delivered here (lines 54-56);
#: * ``"truncate"`` — :meth:`PrimCastProcess.compact_delivered` dropped
#:   a group-stable prefix of T; data is the sorted tuple of truncated
#:   message ids (used by the chaos/verify layer to check truncation
#:   safety).
PROBE_EVENTS = ("start", "propose", "ack_quorum", "epoch_change", "deliver", "truncate")

# T entries: (epoch the proposal was made in, the multicast, local ts).
TEntry = Tuple[Epoch, Multicast, int]


class PrimCastProcess(GroupProtocolProcess):
    """A PrimCast group member.

    Args:
        pid: this process's id (must belong to a group in ``config``).
        config: group membership and quorum system.
        scheduler / network / cost_model: simulation substrate.
        physical_clock: loosely synchronized clock; with one, the process
            proposes by the §6 rule (PrimCast HC), without one by
            ``clock + 1``.

    Ω is attached after construction (``attach_omegas`` on the
    simulator, ``NetNode`` on ``repro.net``); until then ``omega`` is
    ``None`` and the initial leader stays primary.
    """

    #: The events of the table above.
    PROBE_EVENTS = PROBE_EVENTS

    def __init__(
        self,
        pid: int,
        config: GroupConfig,
        scheduler: "SchedulerAPI",
        network: "TransportAPI",
        cost_model: Optional[CostModel] = None,
        physical_clock: Optional[PhysicalClock] = None,
        enable_bumps: bool = True,
        batching_ms: float = 0.0,
    ) -> None:
        super().__init__(
            pid, config, scheduler, network, cost_model, batching_ms=batching_ms
        )
        self.physical_clock = physical_clock
        # Ablation switch (§5.2.5): without bump messages, quorum-clock()
        # cannot advance past remote timestamps and messages whose final
        # timestamp comes from a remote group stall. Tests/benches only.
        self.enable_bumps = enable_bumps

        # --- Algorithm 1 state (lines 1-8) ---
        leader0 = config.initial_leader(self.gid)
        self.clock = 0
        self.e_cur: Epoch = initial_epoch(leader0)
        self.e_prom: Epoch = initial_epoch(leader0)
        self.role = PRIMARY if leader0 == pid else FOLLOWER
        self.t_list: List[TEntry] = []  # T (sequence)
        self.t_by_mid: Dict[MessageId, Tuple[Epoch, int]] = {}

        # --- watermark-based T truncation (see compact_delivered) ---
        # Absolute T position of t_list[0]: positions below _t_base were
        # truncated after every group member reported them delivered.
        self._t_base = 0
        # Count of leading t_list entries delivered locally (a lazy scan
        # cursor; advanced in _delivered_prefix_len, reset on NewState).
        self._t_delivered_prefix = 0
        # Latest delivered-prefix report per group member, piggybacked on
        # ack/bump traffic: pid -> (epoch the report was made in,
        # absolute delivered prefix). Only reports made in our own E_cur
        # gate truncation — lineages of different epochs are not
        # position-comparable.
        self._peer_dp: Dict[int, Tuple[Epoch, int]] = {}
        # Cached outgoing report tuple, shared across acks until the
        # local delivered prefix (or epoch) changes.
        self._dp_cache: Optional[Tuple[Epoch, int]] = None

        # --- M, tracked incrementally ---
        self.started: Dict[MessageId, Multicast] = {}
        # Ack trackers per message, indexed by destination group id in a
        # preallocated list (None = no acks from that group yet). A list
        # of n_groups slots replaces the old per-message dict: indexing
        # is allocation-free and monomorphic, which matters because
        # _on_ack consults it for every ack of every message.
        self.acks: Dict[MessageId, List[Optional[AckTracker]]] = {}
        self.clocks = ClockTracker(self.group_members)
        self.my_acks: Set[Tuple[MessageId, Epoch, int]] = set()

        # --- primary change bookkeeping (Algorithm 3) ---
        self.promises: Dict[Epoch, Dict[int, EpochPromise]] = {}
        self.accepts: Dict[Epoch, Set[int]] = {}
        self._new_state_sent: Set[Epoch] = set()

        # --- delivery bookkeeping ---
        # ``self.queue`` (the endpoint's DeliveryQueue) holds the pending
        # messages — in T, not delivered — bounded by _min_bound.
        self._final_cache: Dict[MessageId, int] = {}
        # Delivery gate: True while the last _try_deliver ended at a stop
        # no clock observation can lift — line 30, or no decided final
        # among the pending. Both depend only on the queue, whose bounds
        # hold no clock term (see _min_bound), so the clock-only call
        # sites skip their attempt until something a decision feeds
        # clears the flag: a local or final timestamp decided, a final
        # committed, T installed, an epoch activated.
        self._order_blocked = False

        # Cached quorum-clock() value; invalidated whenever the clock
        # observations it derives from change (see quorum_clock()).
        self._qclock_cache: Optional[int] = None

        self._r_dispatch.update({
            Ack: self._on_ack,
            Start: self._on_start,
            Bump: self._on_bump,
            NewEpoch: self._on_new_epoch,
            EpochPromise: self._on_epoch_promise,
            NewState: self._on_new_state,
            AcceptEpoch: self._on_accept_epoch,
        })

        self.omega: Optional["LeaderOracle"] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def a_multicast_m(self, multicast: Multicast) -> None:
        """Algorithm 2, line 31: r-multicast ⟨start, m⟩ to every process
        of every destination group."""
        self.r_multicast(Start(multicast), self.config.dest_pids(multicast.dest))

    def compact_delivered(self) -> int:
        """Release per-message tracking state of delivered messages.

        The pseudocode's M and T grow forever; a deployment compacts
        them. Two mechanisms:

        * Ack trackers and cached finals of already-delivered messages
          are no longer consulted (min-clock contributions were folded
          into the incremental ClockTracker on receipt), so they are
          dropped. A straggler ack for a compacted message merely
          rebuilds an (unused) tracker, swept again on the next call.
        * The T prefix below the *group-stable watermark* — the minimum
          delivered prefix every group member reported under the current
          epoch — is truncated: ``t_list`` / ``t_by_mid`` / ``started``
          / ``my_acks`` entries of truncated positions are released.
          Truncation is safe because (a) every member has delivered
          those entries, so they can never become pending again, and
          (b) every member has already *transmitted* its acks for them
          (acks precede delivery on every path), so the epoch-activation
          resend of lines 75-81 is never needed for them. The suffix
          plus ``_t_base`` is exactly what EpochPromise/NewState carry,
          making a primary change O(undelivered) instead of O(history).

        The delivered-set D and the clock state are kept — they feed
        duplicate suppression, re-propose guards and quorum clocks.

        Returns the number of messages whose state was released.
        """
        freed = 0
        delivered = self.delivered
        t_by_mid = self.t_by_mid
        for mid in list(self._final_cache):
            if mid in delivered:
                self.acks.pop(mid, None)
                del self._final_cache[mid]
                freed += 1
        # T truncation below the group-stable watermark.
        cut = self._stable_watermark() - self._t_base
        if cut > 0:
            removed = self.t_list[:cut]
            del self.t_list[:cut]
            self._t_base += cut
            self._t_delivered_prefix -= cut
            self._dp_cache = None
            dropped: Set[MessageId] = set()
            for _, multicast, _ in removed:
                mid = multicast.mid
                if mid not in t_by_mid:
                    continue
                dropped.add(mid)
                del t_by_mid[mid]
            if dropped:
                # Drop *every* my_acks tuple of a truncated message, not
                # just the T-entry tuple: the same mid acked under older
                # epochs would otherwise leak its stale tuples forever.
                if self.my_acks:
                    self.my_acks = {
                        t for t in self.my_acks if t[0] not in dropped
                    }
                if "truncate" in self.probed:
                    self._probe("truncate", tuple(sorted(dropped)))
        # Delivered messages no longer in T (truncated above, or dropped
        # by a NewState install): their started entries are unreachable.
        for mid in list(self.started):
            if mid in delivered and mid not in t_by_mid:
                del self.started[mid]
        # Straggler-rebuilt ack trackers: an ack arriving after delivery
        # re-creates a tracker nothing reads (the first mechanism freed
        # it together with the cached final). Delivered-ness alone makes
        # it garbage — no send is ever conditioned on a tracker of a
        # delivered message.
        for mid in list(self.acks):
            if mid in delivered:
                del self.acks[mid]
        return freed

    # ------------------------------------------------------------------
    # delivered-prefix watermark (state GC)
    # ------------------------------------------------------------------

    def _delivered_prefix_len(self) -> int:
        """Advance and return the count of leading locally-delivered
        t_list entries. Amortized O(1): the cursor only moves forward
        (deliveries never un-happen) until a NewState install resets it.
        """
        t_list = self.t_list
        delivered = self.delivered
        i = self._t_delivered_prefix
        n = len(t_list)
        while i < n and t_list[i][1].mid in delivered:
            i += 1
        self._t_delivered_prefix = i
        return i

    def _dp_report(self) -> Tuple[Epoch, int]:
        """The delivered-prefix report piggybacked on outgoing acks and
        bumps: (current epoch, absolute delivered prefix). Cached so the
        common many-acks-per-delivery case shares one tuple."""
        dp = self._t_base + self._delivered_prefix_len()
        cached = self._dp_cache
        if cached is not None and cached[1] == dp and cached[0] == self.e_cur:
            return cached
        cached = (self.e_cur, dp)
        self._dp_cache = cached
        return cached

    def _stable_watermark(self) -> int:
        """Highest absolute T position every group member (self included)
        reported delivered under the current epoch.

        A missing or stale-epoch report pins the watermark at ``_t_base``
        (no truncation): a member whose report was made under a different
        epoch may hold a different T lineage, so its positions are not
        comparable to ours. After a member crashes its report eventually
        goes stale on the next epoch change and the watermark freezes —
        conservative but safe (memory stops shrinking, correctness is
        unaffected).
        """
        e_cur = self.e_cur
        peer_dp = self._peer_dp
        low = self._t_base + self._delivered_prefix_len()
        for pid in self.group_members:
            if pid == self.pid:
                continue
            rec = peer_dp.get(pid)
            if rec is None or rec[0] != e_cur:
                return self._t_base
            if rec[1] < low:
                low = rec[1]
        return low

    # ------------------------------------------------------------------
    # Algorithm 2 — timestamping
    # ------------------------------------------------------------------

    def _on_start(self, origin: int, start: Start) -> None:
        """Lines 33-34 plus the standing proposal rule (line 35)."""
        multicast = start.multicast
        # The delivered guard only matters after compaction swept the
        # started entry: a late-arriving start for a delivered message
        # must not resurrect state (with GC off it is a no-op — delivered
        # implies a started entry exists).
        if multicast.mid not in self.started and multicast.mid not in self.delivered:
            self.started[multicast.mid] = multicast
            if "start" in self.probed:
                self._probe("start", multicast.mid)
            if self.role == PRIMARY and self._proposable(multicast):
                self._propose(multicast)

    def _proposable(self, multicast: Multicast) -> bool:
        """Line 24: start seen, no local ts decided, not yet in T."""
        if self.gid not in multicast.dest:
            return False
        # Delivered messages are never re-proposable. With GC off this is
        # implied by the t_by_mid / tracker checks below; once compaction
        # truncates T and sweeps trackers it must be explicit.
        if multicast.mid in self.delivered:
            return False
        if multicast.mid in self.t_by_mid:
            return False
        trackers = self.acks.get(multicast.mid)
        tracker = trackers[self.gid] if trackers is not None else None
        return tracker is None or tracker.local_ts is None

    def _propose(self, multicast: Multicast) -> None:
        """Lines 36-39 (with the §6 hybrid-clock rule given a clock)."""
        if self.physical_clock is not None:
            self.clock = max(self.clock + 1, self.physical_clock.read_us())
        else:
            self.clock += 1
        self._t_append(self.e_cur, multicast, self.clock)
        if "propose" in self.probed:
            self._probe("propose", multicast.mid)
        self._send_ack(multicast, self.e_cur, self.clock)

    def _t_append(self, epoch: Epoch, multicast: Multicast, ts: int) -> None:
        mid = multicast.mid
        self.t_list.append((epoch, multicast, ts))
        self.t_by_mid[mid] = (epoch, ts)
        # T's object wins. On a wire backend a node decodes every later
        # copy of m to the object it already holds (``repro.net.codec``),
        # so this is usually that very object; where it is not (two
        # copies decoded from one read, before the node held either),
        # keeping the start's too would hold two copies of the payload
        # for as long as m sits in T.
        self.started[mid] = multicast
        if mid not in self.delivered:
            self._enqueue(mid, ts)

    def _enqueue(self, mid: MessageId, ts: int) -> None:
        """Make ``mid`` (in T at ``ts``, not delivered) pending in the
        delivery queue, committed at once if its final timestamp is
        known. ``ts`` seeds its bound (see :meth:`_min_bound`)."""
        self.queue.add_pending(mid, ts)
        final = self._final_cache.get(mid)
        if final is not None:
            self.queue.commit(mid, final)
            self._order_blocked = False
        else:
            # Computes, caches and commits the final timestamp if all
            # local timestamps happen to be decided already.
            self.final_ts(mid)

    def _send_ack(self, multicast: Multicast, epoch: Epoch, ts: int) -> None:
        self.my_acks.add((multicast.mid, epoch, ts))
        ack = Ack(multicast, self.gid, epoch, ts, self.pid, self._dp_report())
        self.r_multicast(ack, self.config.dest_pids(multicast.dest))

    def _on_ack(self, origin: int, ack: Ack) -> None:
        """Lines 40-45 (own group) and 46-50 (remote group)."""
        multicast = ack.multicast
        mid = multicast.mid
        # Localize the ack fields once: this handler runs for every ack
        # of every message (the single most frequent protocol event).
        group = ack.group
        epoch = ack.epoch
        ts = ack.ts
        sender = ack.sender
        config = self.config
        # A remote ack doubles as a start tuple (line 47); for own-group
        # acks the multicast object it carries is the same payload, so
        # storing it is equivalent to having r-delivered the start. The
        # delivered guard keeps a straggler ack from resurrecting a
        # compaction-swept started entry (no-op with GC off).
        started = self.started
        if mid not in started and mid not in self.delivered:
            started[mid] = multicast
        acks = self.acks
        try:
            trackers = acks[mid]
        except KeyError:
            trackers = acks[mid] = [None] * config.n_groups
        tracker = trackers[group]
        if tracker is None:
            tracker = trackers[group] = AckTracker()
        decided_now = tracker.add_ack(config, group, epoch, ts, sender, mid)
        changed = False
        if group == self.gid:
            # Group-mate: record its piggybacked delivered-prefix report
            # (the watermark input of compact_delivered).
            rep = ack.dp
            if rep is not None:
                self._peer_dp[sender] = rep
            # Clock value implicitly propagated inside the group (§5.2.4).
            # Inlined ClockTracker.observe (the most frequent tracker
            # update of a run; the tracker method remains the reference
            # for every other call site).
            clocks = self.clocks
            if epoch > self.e_cur:
                clocks.deferred.append((epoch, ts, sender))
            else:
                # sender is a member of our own group here (it stamped
                # ``group == self.gid`` on its own ack), so its slot
                # always exists in the tracker's values dict.
                values = clocks.values
                if ts > values[sender]:
                    values[sender] = ts
                    changed = True
                    self._qclock_cache = None
            if (
                sender == epoch.leader
                and epoch == self.e_cur
                and self.role == FOLLOWER
                and mid not in self.t_by_mid
                # Never re-append a delivered (possibly truncated) entry.
                and mid not in self.delivered
            ):
                # Accept the primary's proposal and echo our own ack
                # (lines 42-45).
                self._t_append(self.e_cur, multicast, ts)
                if ts > self.clock:
                    self.clock = ts
                self._send_ack(multicast, self.e_cur, ts)
        else:
            # Remote ack: raise our clock and tell the group (lines 48-50).
            if ts > self.clock:
                self.clock = ts
                if self.enable_bumps:
                    self.r_multicast(
                        Bump(self.e_prom, self.clock, self.pid, self._dp_report()),
                        self.group_members,
                    )
            if self.role == PRIMARY and self._proposable(multicast):
                # The piggybacked start makes m proposable (line 35).
                self._propose(multicast)
        if decided_now:
            # Cache (and enqueue for delivery) the final timestamp as
            # soon as the last local timestamp is decided.
            self.final_ts(mid)
            if "ack_quorum" in self.probed:
                self._probe("ack_quorum", mid)
            # A decided local ts moves m's key in the min-heap.
            self._order_blocked = False
            self._try_deliver()
        elif changed and not self._order_blocked:
            self._try_deliver()

    def _on_bump(self, origin: int, bump: Bump) -> None:
        """Lines 51-52: record the clock observation."""
        rep = bump.dp
        if rep is not None:
            self._peer_dp[bump.sender] = rep
        if self.clocks.observe(self.e_cur, bump.epoch, bump.ts, bump.sender):
            self._qclock_cache = None
            if not self._order_blocked:
                self._try_deliver()

    # ------------------------------------------------------------------
    # Algorithm 1 — predicates (incremental forms)
    # ------------------------------------------------------------------

    def final_ts(self, mid: MessageId) -> Optional[int]:
        """Line 12: max of all local timestamps once every destination
        group's local ts is decided, else None (⊥)."""
        cached = self._final_cache.get(mid)
        if cached is not None:
            return cached
        multicast = self.started.get(mid)
        if multicast is None:
            return None
        trackers = self.acks.get(mid)
        if trackers is None:
            return None
        final = 0
        for gid in multicast.dest:
            tracker = trackers[gid]
            if tracker is None:
                return None
            ts = tracker.decided_ts
            if ts is None:
                return None
            if ts > final:
                final = ts
        self._final_cache[mid] = final
        if mid in self.queue.pending:
            self.queue.commit(mid, final)
            self._order_blocked = False
        return final

    def local_ts(self, mid: MessageId, gid: int) -> Optional[int]:
        """Line 9: the decided local timestamp of ``mid`` in group
        ``gid``, or None (⊥)."""
        trackers = self.acks.get(mid)
        if trackers is None or not 0 <= gid < len(trackers):
            return None
        tracker = trackers[gid]
        return None if tracker is None else tracker.local_ts

    def min_clock(self, pid: int) -> int:
        """Line 15 (for members of this process's group)."""
        return self.clocks.min_clock(pid)

    def quorum_clock(self) -> int:
        """Line 17: lower bound for the starting clock of any epoch
        higher than E_cur, via quorum intersection.

        Cached between clock changes: every mutation of the min-clock
        observations (acks, bumps, epoch advances) clears the cache, so
        the quorum computation runs once per change instead of once per
        delivery attempt.
        """
        cached = self._qclock_cache
        if cached is None:
            cached = self.config.quorum_clock_value(self.gid, self.clocks.values)
            self._qclock_cache = cached
        return cached

    def min_ts(self, mid: MessageId) -> int:
        """Line 19: lower bound for final-ts(mid). Delivery uses its
        clock-free form, :meth:`_min_bound`."""
        lower = min(self.clocks.min_clock(self.e_cur.leader), self.quorum_clock()) + 1
        entry = self.t_by_mid.get(mid)
        if entry is not None and entry[1] < lower:
            lower = entry[1]
        trackers = self.acks.get(mid)
        if trackers is not None:
            for gid in self.started[mid].dest:
                tracker = trackers[gid]
                if tracker is not None:
                    ts = tracker.decided_ts
                    if ts is not None and ts > lower:
                        lower = ts
        return lower

    # ------------------------------------------------------------------
    # delivery (lines 26-30 and 53-56)
    # ------------------------------------------------------------------

    def _min_bound(self, mid: MessageId) -> int:
        """The delivery queue's bound for pending ``mid``, for the line-30
        comparison: ``max(known_max, t_ts)``.

        Every pending message is in T (only ``_enqueue`` makes one
        pending), so its min-ts is ``max(known_max, min(base_lower,
        t_ts))`` where ``known_max`` is the largest decided local ts,
        ``t_ts`` its timestamp in T and ``base_lower = min(leader-clock,
        quorum-clock) + 1``. The bound drops the ``base_lower`` term,
        making it *per-message monotone* (so lazy refreshing needs no
        global input) while preserving every delivery decision: the
        queue consults it only after the clock guard established
        ``final < base_lower``, and wherever the bound differs from true
        min-ts (``t_ts >= base_lower``) both exceed ``final``, so
        neither can satisfy the blocking comparison.
        """
        current = self.t_by_mid[mid][1]
        trackers = self.acks.get(mid)
        if trackers is not None:
            for gid in self.started[mid].dest:
                tracker = trackers[gid]
                if tracker is not None:
                    ts = tracker.decided_ts
                    if ts is not None and ts > current:
                        current = ts
        return current

    def _try_deliver(self) -> None:
        """Deliver every message whose ``deliverable`` predicate holds.

        The queue's clock is ``min(leader-clock, quorum-clock)``: lines
        28-29 hold iff the final timestamp is at or below both. Ends
        with ``_order_blocked`` set unless it stopped at that clock
        guard (or the role forbids delivery): the only stops a later
        clock observation can lift.
        """
        if self.role not in (PRIMARY, FOLLOWER):
            return
        clock = min(self.clocks.values.get(self.e_cur.leader, 0), self.quorum_clock())
        self._order_blocked = True  # until the clock guard says otherwise
        if self._deliver_ready(clock):
            self._order_blocked = False

    def _deliver(self, mid: MessageId, final: int) -> None:
        """Lines 54-56."""
        self._record_delivery(self.started[mid], final)

    # ------------------------------------------------------------------
    # Algorithm 3 — primary change
    # ------------------------------------------------------------------

    def _on_omega_output(self, gid: int, leader_pid: int) -> None:
        """Line 57: when Ω outputs us and we are not primary/candidate,
        start an epoch change."""
        if self.crashed:
            return
        if leader_pid == self.pid and self.role not in (PRIMARY, CANDIDATE):
            self._start_epoch_change()

    def _start_epoch_change(self) -> None:
        """Lines 58-60."""
        self.role = CANDIDATE
        self.e_prom = self.e_prom.next_for(self.pid)
        if "epoch_change" in self.probed:
            self._probe("epoch_change", self.e_prom)
        self.r_multicast(NewEpoch(self.e_prom), self.group_members)

    def _on_new_epoch(self, origin: int, msg: NewEpoch) -> None:
        """Lines 61-64."""
        epoch = msg.epoch
        if epoch < self.e_prom:
            return
        if self.pid != epoch.leader:
            self.role = PROMISED
        self.e_prom = epoch
        # The promise carries only the live suffix of T plus the absolute
        # position it starts at: everything below _t_base is delivered at
        # every group member (the truncation precondition), so the
        # candidate never needs it — primary change is O(undelivered).
        promise = EpochPromise(
            epoch, self.pid, self.clock, self.e_cur, list(self.t_list), self._t_base
        )
        self.r_multicast(promise, [epoch.leader])

    def _on_epoch_promise(self, origin: int, msg: EpochPromise) -> None:
        """Lines 65-69."""
        if self.role != CANDIDATE or msg.epoch != self.e_prom:
            return
        if msg.epoch in self._new_state_sent:
            return
        bucket = self.promises.setdefault(msg.epoch, {})
        bucket[msg.sender] = msg
        if not self.config.has_quorum(self.gid, bucket.keys()):
            return
        promises = list(bucket.values())
        e_max = max(p.e_cur for p in promises)
        candidates = [p for p in promises if p.e_cur == e_max]
        # Longest T by *absolute* end position (t_base + suffix length):
        # within one epoch lineage all Ts are prefix-consistent, so the
        # largest end position is the most complete — identical to the
        # untruncated longest-suffix winner when nothing was truncated.
        winner = max(candidates, key=lambda p: p.t_base + len(p.t_seq))
        start_ts = max(p.clock for p in promises)
        self._new_state_sent.add(msg.epoch)
        self.r_multicast(
            NewState(msg.epoch, list(winner.t_seq), start_ts, winner.t_base),
            self.group_members,
        )

    def _on_new_state(self, origin: int, msg: NewState) -> None:
        """Lines 70-74."""
        if msg.epoch != self.e_prom:
            return
        # Install the carried suffix at its absolute base position. Every
        # entry the winner truncated (below msg.t_base) is delivered at
        # every member that contributed an epoch-fresh report — including
        # any entry of our own old T below our own _t_base — so dropping
        # our local prefix loses nothing. Entries of *our* T below
        # msg.t_base but above our _t_base are re-installed verbatim via
        # the carried suffix when the winner had them; if we truncated
        # further than the winner, the suffix re-adds entries we already
        # delivered (harmless: pending excludes delivered mids, and the
        # next compaction sweeps them again).
        self.t_list = list(msg.t_seq)
        self._t_base = msg.t_base
        self._t_delivered_prefix = 0
        self._dp_cache = None
        self.t_by_mid = {m.mid: (epoch, ts) for epoch, m, ts in self.t_list}
        for _, multicast, _ in self.t_list:
            self.started.setdefault(multicast.mid, multicast)
        # A fresh delivery queue over the new T (its timestamps, which
        # the bounds read, may have changed).
        self.queue = DeliveryQueue(self._min_bound)
        for mid, (_, ts) in sorted(self.t_by_mid.items()):
            if mid not in self.delivered:
                self._enqueue(mid, ts)
        self._order_blocked = False
        self.e_cur = msg.epoch
        self.clocks.advance_epoch(self.e_cur)
        self._qclock_cache = None
        # Epoch bookkeeping below the new E_cur can never be read again
        # (every consumer compares against E_cur / E_prom, both >= it).
        for epoch in sorted(e for e in self.promises if e < self.e_cur):
            del self.promises[epoch]
        for epoch in sorted(e for e in self.accepts if e < self.e_cur):
            del self.accepts[epoch]
        self._new_state_sent = {e for e in sorted(self._new_state_sent) if e >= self.e_cur}
        if msg.ts > self.clock:
            self.clock = msg.ts
        self.r_multicast(AcceptEpoch(self.e_cur, self.pid), self.group_members)
        self._check_epoch_activation()

    def _on_accept_epoch(self, origin: int, msg: AcceptEpoch) -> None:
        """Collect accepts; lines 75-81 re-checked."""
        self.accepts.setdefault(msg.epoch, set()).add(msg.sender)
        self._check_epoch_activation()

    def _check_epoch_activation(self) -> None:
        """Lines 75-81: once at E_cur = E_prom with a quorum of accepts,
        assume the follower/primary role and (re)send missing acks for
        every tuple in T, in T's order."""
        if self.role not in (PROMISED, CANDIDATE):
            return
        if self.e_cur != self.e_prom:
            return
        if not self.config.has_quorum(self.gid, self.accepts.get(self.e_cur, ())):
            return
        self.role = FOLLOWER if self.role == PROMISED else PRIMARY
        for epoch, multicast, ts in self.t_list:
            if (multicast.mid, epoch, ts) not in self.my_acks:
                self._send_ack(multicast, epoch, ts)
        if self.role == PRIMARY:
            # Standing rule (line 35): propose everything proposable.
            for multicast in list(self.started.values()):
                if self._proposable(multicast):
                    self._propose(multicast)
        self._order_blocked = False
        self._try_deliver()
