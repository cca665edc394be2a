"""Discrete-event scheduler.

The scheduler is the heart of the simulation substrate: every network
delivery, timer and client action is an event, and events run in
``(time, seq)`` order. Simulated time is a float in **milliseconds**.
Determinism is guaranteed by breaking ties on an insertion sequence
number, so two runs with the same seed produce identical event orders.

Timers, CPU service and the head of each busy network channel are
entries of a single priority queue. A delivery queued behind its
channel's head waits in the channel (:mod:`repro.sim.network`) and
enters the heap when the head fires, under the ``(time, seq)`` key it
was given at transmit. Arrivals on a channel strictly increase, so that
key is never smaller than the head's, and the heap's minimum is always
the next event overall: the order is exactly as if every delivery had
its own entry. :meth:`Scheduler.pending` counts those held-back
deliveries too.

Two scheduling paths share one heap:

* :meth:`Scheduler.call_at` / :meth:`Scheduler.call_after` return an
  :class:`EventHandle` that can be cancelled — used by timers, failure
  injection and client jobs.
* :meth:`Scheduler.schedule` is the allocation-free fast path used by the
  hot loops (network channel heads, CPU-queue serving): no handle object is
  created, the callback and argument tuple go straight into the heap
  entry. The vast majority of events in a load sweep take this path.

Heap entries are plain ``(time, seq, fn, payload)`` tuples so ordering is
decided by C-level float/int comparisons. Fast-path entries carry the
callback in ``fn`` and its argument tuple in ``payload``; cancellable
entries carry ``None`` in ``fn`` and the :class:`EventHandle` in
``payload``. Cancelled handles are skipped when popped; when more than
half the heap is cancelled entries, the heap is compacted in place so a
burst of armed-then-cancelled timers cannot leak memory.
"""

from __future__ import annotations

import gc
import heapq
import sys
from math import inf
from typing import Any, Callable, List, Optional, Tuple

#: Heap size below which compaction is not worth the rebuild.
_COMPACT_FLOOR = 64


class EventHandle:
    """Handle returned by :meth:`Scheduler.call_at`, usable to cancel.

    The scheduler's heap holds plain ``(time, seq, None, handle)`` tuples
    so ordering is decided by C-level float/int comparisons; the handle
    itself is never compared.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_scheduler")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        scheduler: "Scheduler",
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired or
        already cancelled)."""
        if not self.cancelled:
            self.cancelled = True
            self._scheduler._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class Scheduler:
    """A deterministic discrete-event scheduler.

    Usage::

        sched = Scheduler()
        sched.call_after(1.5, handler, arg1, arg2)
        sched.run(until=100.0)
    """

    __slots__ = (
        "now", "events_processed", "_seq", "_heap", "_cancelled", "_stopped", "_held",
    )

    def __init__(self) -> None:
        #: Current simulated time in milliseconds (read-only for users).
        self.now = 0.0
        #: Number of events executed so far (cancelled events excluded).
        self.events_processed = 0
        self._seq = 0
        self._heap: List[Tuple[float, int, Any, Any]] = []
        self._cancelled = 0  # cancelled handles still sitting in the heap
        self._stopped = False
        # Counters of events held back outside the heap (see pending()).
        self._held: List[Callable[[], int]] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...] = ()
    ) -> None:
        """Fast path: schedule ``fn(*args)`` at ``time`` with no handle.

        Events scheduled this way cannot be cancelled; the hot loops
        (network delivery, CPU serving) use this to avoid one object
        allocation per event.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        handle = EventHandle(time, self._seq, fn, args, self)
        heapq.heappush(self._heap, (time, self._seq, None, handle))
        self._seq += 1
        return handle

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` milliseconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.now + delay, fn, *args)

    def stop(self) -> None:
        """Request :meth:`run` to return before the next event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of armed (non-cancelled) events still queued: those in
        the heap plus those each :meth:`count_held` counter reports."""
        return len(self._heap) - self._cancelled + sum(count() for count in self._held)

    def count_held(self, count: Callable[[], int]) -> None:
        """Register ``count()``, the number of events someone holds back
        outside the heap — the network's deliveries queued behind a
        channel head. Only :meth:`pending` calls it."""
        self._held.append(count)

    # ------------------------------------------------------------------
    # cancelled-entry bookkeeping
    # ------------------------------------------------------------------

    def _on_cancel(self) -> None:
        self._cancelled += 1
        # Lazily compact once cancelled entries dominate the heap, so
        # arming-and-cancelling many timers keeps the heap bounded.
        if self._cancelled * 2 > len(self._heap) and len(self._heap) >= _COMPACT_FLOOR:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Safe at any point: entry order is fully determined by the unique
        ``(time, seq)`` key, so rebuilding the heap cannot change the
        order in which live events fire. Mutates the heap list in place —
        :meth:`run` holds a reference to it across events, and so does
        every network channel (``_Channel.heap``).
        """
        heap = self._heap
        heap[:] = [
            entry for entry in heap if entry[2] is not None or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events in order until the queue drains.

        Args:
            until: if given, stop once the next event would fire strictly
                after this time; ``now`` is advanced to ``until``.
            max_events: if given, stop after executing this many events
                (safety valve against runaway simulations).

        Returns:
            The simulated time at which the run stopped.
        """
        self._stopped = False
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        time_limit = inf if until is None else until
        # An int bound: comparing the int count with a float inf would
        # cost a mixed-type comparison per event.
        event_limit = sys.maxsize if max_events is None else max_events
        # The event loop allocates millions of short-lived heap-entry
        # tuples and next to no cyclic garbage; the generational GC would
        # run a collection every ~700 of those allocations for nothing,
        # so it is paused for the duration of the loop (refcounting still
        # frees everything acyclic immediately).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # The executed count is accumulated locally and folded into
        # events_processed on exit (the attribute is only consulted
        # between runs); the finally covers handlers that raise.
        try:
            # Pop-first loop: popping unconditionally and pushing back the
            # (at most one) over-limit entry avoids a peek + re-index of
            # the tuple on every iteration of the hot path.
            while heap and not self._stopped:
                if executed >= event_limit:
                    break
                entry = heappop(heap)
                time, _, fn, payload = entry
                if fn is None:
                    if payload.cancelled:
                        self._cancelled -= 1
                        continue
                    if time > time_limit:
                        heappush(heap, entry)
                        break
                    self.now = time
                    payload.fn(*payload.args)
                else:
                    if time > time_limit:
                        heappush(heap, entry)
                        break
                    self.now = time
                    fn(*payload)
                executed += 1
        finally:
            self.events_processed += executed
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now
