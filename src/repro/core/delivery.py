"""Timestamp-order delivery: the ``deliverable`` rule of Algorithm 1.

A message is a-delivered in ``(final-ts, mid)`` order once its final
timestamp is at or below the clock guard (lines 28-29) and no other
pending message can still get a smaller one (line 30). FastCast,
White-Box (§4) and the classic multicast deliver by the same rule;
every protocol process holds one :class:`DeliveryQueue`, whose two heaps
carry it:

* a *commit heap* of ``(final_ts, mid)`` for the pending messages whose
  final timestamp is decided;
* a *lazy bound heap* of ``(bound, mid)`` over every pending message,
  keyed by the caller's lower bound of its final timestamp. Bounds are
  monotone, so a stale key is still a lower bound and the top is
  refreshed on demand: the top that survives a refresh is the exact
  minimum, however the heap was seeded.

Work per event is O(log P) in the P pending messages, and delivery
forgets a mid with both its heap entries: the queue holds pending
messages only.

The queue also remembers where its last :meth:`~DeliveryQueue.pop_deliverable`
stopped, so a caller can skip an attempt that must find the same stop:
``at_clock_guard`` (only a larger clock lifts it), ``blocker`` (the
pending message whose bound held the head back at line 30: only a rise
of that bound lifts it) and ``lifted`` (a commit became the head since).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Set, Tuple

from .messages import MessageId

#: A heap entry: ``(timestamp, mid)``.
Entry = Tuple[int, MessageId]


class DeliveryQueue:
    """The pending messages of one process, released in ``(final, mid)``
    order.

    Args:
        min_bound: ``min_bound(mid)`` is a lower bound on pending
            ``mid``'s final timestamp, monotone non-decreasing over
            time and, once ``mid`` is committed, at most its final
            timestamp.
    """

    def __init__(self, min_bound: Callable[[MessageId], int]) -> None:
        self.min_bound = min_bound
        self.pending: Set[MessageId] = set()
        #: True iff the last :meth:`pop_deliverable` stopped at the clock
        #: guard: the one stop a larger clock can lift.
        self.at_clock_guard = False
        #: The mid whose ``(bound, mid)`` held the head back at line 30
        #: in the last :meth:`pop_deliverable`, else None. That stop
        #: lifts only when this bound rises or a new head is committed.
        self.blocker: Optional[MessageId] = None
        #: True while a pop may get past the last stop without a larger
        #: clock: set by a commit that becomes the head (or fills an
        #: empty heap) and by the caller when the blocker's bound rises;
        #: a new queue has no stop yet. Every pop clears it.
        self.lifted = True
        self._committed: Set[MessageId] = set()
        self._commit_heap: List[Entry] = []
        self._bound_heap: List[Entry] = []

    def add_pending(self, mid: MessageId, bound: int = 0) -> None:
        """Register a message that may still get a (small) final ts;
        ``bound`` is any lower bound of ``min_bound(mid)``."""
        if mid not in self.pending:
            self.pending.add(mid)
            heapq.heappush(self._bound_heap, (bound, mid))

    def commit(self, mid: MessageId, final_ts: int) -> None:
        """Mark pending ``mid`` ready for delivery at ``final_ts``; a
        no-op for a mid that is not pending or committed already."""
        if mid in self.pending and mid not in self._committed:
            self._committed.add(mid)
            entry = (final_ts, mid)
            heap = self._commit_heap
            heapq.heappush(heap, entry)
            if heap[0] is entry:
                self.lifted = True

    def is_committed(self, mid: MessageId) -> bool:
        return mid in self._committed

    def _min_bound_excluding(
        self, exclude: MessageId
    ) -> Tuple[Optional[Entry], Optional[Entry]]:
        """The smallest ``(bound, mid)`` over the pending messages other
        than ``exclude`` (None if there is none), and ``exclude``'s own
        entry if the scan lifted it off the heap: the caller drops it on
        delivery and pushes it back otherwise."""
        heap = self._bound_heap
        pending = self.pending
        min_bound = self.min_bound
        own: Optional[Entry] = None
        while heap:
            top = heap[0]
            mid = top[1]
            if mid not in pending:
                heapq.heappop(heap)
            elif mid == exclude:
                own = heapq.heappop(heap)
            else:
                current = min_bound(mid)
                if current <= top[0]:
                    return top, own
                heapq.heapreplace(heap, (current, mid))
        return None, own

    def pop_deliverable(self, clock: int) -> Optional[Tuple[MessageId, int]]:
        """Forget and return the next deliverable ``(mid, final_ts)``, or
        None.

        Deliverable: the smallest committed ``(final, mid)``, if
        ``final <= clock`` and ``(final, mid)`` is strictly below every
        other pending message's ``(bound, mid)``. Examining the smallest
        suffices: a bound is at most its final, so if the smallest
        committed message is held back, so is every other.
        """
        self.at_clock_guard = False
        self.blocker = None
        self.lifted = False
        heap = self._commit_heap
        if not heap:
            return None
        final, mid = heap[0]
        if final > clock:
            self.at_clock_guard = True
            return None
        other, own = self._min_bound_excluding(mid)
        if other is not None and (final, mid) >= other:
            if own is not None:
                heapq.heappush(self._bound_heap, own)
            self.blocker = other[1]
            return None
        return self._pop_head()

    def _pop_head(self) -> Tuple[MessageId, int]:
        """Remove the smallest committed message and forget its mid."""
        final, mid = heapq.heappop(self._commit_heap)
        self.pending.discard(mid)
        self._committed.discard(mid)
        return mid, final
