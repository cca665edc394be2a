"""Periodic state compaction for PrimCast processes.

The protocol layer exposes :meth:`PrimCastProcess.compact_delivered` —
an idempotent sweep that releases ack trackers, cached finals and the
group-stable delivered prefix of T. This module drives it: a
:class:`CompactionDaemon` is a self-rescheduling scheduler timer that
sweeps every process at a fixed runtime interval, giving a run
O(in-flight) steady-state memory instead of O(messages ever sent). It
is written against the runtime seam (``SchedulerAPI``), so the
simulator harness and every ``repro.net`` node run the same daemon.

Schedule neutrality: a tick emits no messages, draws no randomness and
touches no protocol variable that feeds a send — it only discards state
the protocol can no longer read. The only observable difference between
a run with and without the daemon is the scheduler's event count (one
event per tick), which is why the pinned goldens assert bit-identical
delivery orders/timestamps in both modes while pinning separate event
totals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from .process import PrimCastProcess

if TYPE_CHECKING:
    from ..net.runtime import SchedulerAPI, TimerHandle

#: Default sweep interval (runtime ms). Frequent enough that steady
#: state memory stays within one in-flight window of the floor, sparse
#: enough that tick overhead is invisible next to protocol traffic.
DEFAULT_COMPACTION_INTERVAL_MS = 250.0


class CompactionDaemon:
    """Sweeps a set of processes with ``compact_delivered`` on a timer.

    Args:
        scheduler: the runtime scheduler driving the processes (the
            simulator's ``Scheduler`` or a net node's ``NetScheduler``).
        processes: pid -> process map; swept in pid order every tick.
        interval_ms: runtime ms between sweeps (must be > 0; callers
            that want compaction off simply never construct a daemon).

    Attributes:
        runs: ticks fired so far.
        freed: total messages whose tracking state was released.
    """

    __slots__ = (
        "scheduler", "interval_ms", "_procs", "runs", "freed", "_started", "_handle"
    )

    def __init__(
        self,
        scheduler: "SchedulerAPI",
        processes: Dict[int, PrimCastProcess],
        interval_ms: float = DEFAULT_COMPACTION_INTERVAL_MS,
    ) -> None:
        if interval_ms <= 0.0:
            raise ValueError(f"interval_ms must be positive, got {interval_ms}")
        self.scheduler = scheduler
        self.interval_ms = interval_ms
        self._procs: List[PrimCastProcess] = [
            processes[pid] for pid in sorted(processes)
        ]
        self.runs = 0
        self.freed = 0
        self._started = False
        #: The armed next tick; None before start() and after stop().
        self._handle: Optional["TimerHandle"] = None

    def start(self) -> None:
        """Arm the first tick. Idempotent."""
        if self._started:
            return
        self._started = True
        self._handle = self.scheduler.call_after(self.interval_ms, self._tick)

    def stop(self) -> None:
        """Cancel the armed tick, so no tick runs after this. Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        self.runs += 1
        for proc in self._procs:
            if not proc.crashed:
                self.freed += proc.compact_delivered()
        self._handle = self.scheduler.call_after(self.interval_ms, self._tick)


def attach_compaction(
    scheduler: "SchedulerAPI",
    processes: Dict[int, PrimCastProcess],
    interval_ms: float = DEFAULT_COMPACTION_INTERVAL_MS,
) -> CompactionDaemon:
    """Build and start a :class:`CompactionDaemon` over ``processes``."""
    daemon = CompactionDaemon(scheduler, processes, interval_ms)
    daemon.start()
    return daemon
