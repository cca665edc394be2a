"""Failure injection.

The model (§2.1) allows crash failures only: a faulty process stops
taking steps and never recovers. Quorum assumptions require that at least
one quorum per group contains no faulty process; the helpers here keep
injected failures within that budget unless explicitly overridden.

Bookkeeping is deterministic: :attr:`FailureInjector.crashed_pids` lists
pids in the order their crashes *executed* (scheduler order, which is a
pure function of the run seed), and :meth:`FailureInjector.targeted_pids`
reports the union of executed and armed crashes in sorted order. The
budget guard :meth:`FailureInjector.crash_within_budget` counts both
against :func:`max_failures` so a schedule cannot overshoot a group's
quorum budget by arming several future crashes at once.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .events import Scheduler
from .process import SimProcess


class FailureInjector:
    """Schedules crashes against a set of processes.

    Args:
        scheduler: shared event scheduler.
        processes: pid → process map (e.g. ``network.processes``).
    """

    def __init__(self, scheduler: Scheduler, processes: Dict[int, SimProcess]) -> None:
        self.scheduler = scheduler
        self.processes = processes
        #: pids whose crash has *executed*, in execution order. With a
        #: deterministic schedule this list is identical across runs.
        self.crashed_pids: List[int] = []
        #: pids with a crash armed via this injector (fired or not).
        self._targeted: Set[int] = set()

    def crash_at(self, pid: int, time_ms: float) -> None:
        """Crash ``pid`` at absolute simulated time ``time_ms``."""
        if pid not in self.processes:
            raise KeyError(f"unknown pid {pid}")
        self._targeted.add(pid)
        self.scheduler.call_at(time_ms, self._crash_now, pid)

    def crash_now(self, pid: int) -> None:
        """Crash ``pid`` immediately (inside the current event).

        Used by nemesis hooks that kill a process at a protocol step
        boundary: the process stops before the handler's outgoing
        messages depart.
        """
        if pid not in self.processes:
            raise KeyError(f"unknown pid {pid}")
        self._targeted.add(pid)
        self._crash_now(pid)

    def _crash_now(self, pid: int) -> None:
        proc = self.processes[pid]
        if not proc.crashed:
            proc.crash()
            self.crashed_pids.append(pid)

    def targeted_pids(self) -> Tuple[int, ...]:
        """Union of executed and armed crash targets, sorted."""
        return tuple(sorted(self._targeted))

    # ------------------------------------------------------------------
    # budget-guarded injection
    # ------------------------------------------------------------------

    def within_budget(self, pid: int, group: Sequence[int]) -> bool:
        """Would crashing ``pid`` keep ``group`` inside its quorum budget?

        ``group`` is the full membership of the group ``pid`` belongs to.
        A pid already targeted is always within budget (re-arming it adds
        no new failure).
        """
        if pid in self._targeted:
            return True
        budget = max_failures(len(group))
        used = sum(1 for member in group if member in self._targeted)
        return used < budget

    def crash_within_budget(
        self, pid: int, time_ms: float, group: Sequence[int]
    ) -> bool:
        """Arm a crash of ``pid`` at ``time_ms`` unless it would exceed
        the group's :func:`max_failures` budget.

        Returns True when the crash was armed (or ``pid`` was already a
        target), False when it was refused to preserve a correct quorum.
        """
        if not self.within_budget(pid, group):
            return False
        self.crash_at(pid, time_ms)
        return True


def max_failures(group_size: int) -> int:
    """Crash budget for a majority-quorum group of ``group_size``.

    With quorums of size ``floor(n/2) + 1``, up to ``ceil(n/2) - 1``
    processes may fail while one all-correct quorum remains.
    """
    if group_size < 1:
        raise ValueError("group size must be positive")
    return (group_size - 1) // 2
