"""Runtime invariant monitoring for PrimCast processes.

While the property checkers in :mod:`repro.verify.properties` validate
delivery logs *after* a run, the :class:`InvariantMonitor` rides along
*during* one: it wraps a process's r-deliver handler and re-checks
structural invariants of Algorithms 1–3 after every event, failing fast
at the exact event that broke one. Used by the test suite and the
failure-injection fuzz tests.

Checked invariants:

* **Clock monotonicity** — ``clock`` never decreases.
* **Epoch ordering** — ``E_prom >= E_cur`` always (line 7), both
  monotone non-decreasing.
* **Role consistency** — a primary owns its current epoch, a candidate
  owns its promised epoch.
* **T consistency** — the ``t_by_mid`` index matches the T sequence;
  pending ⊆ T's messages minus delivered; local timestamps in T are
  strictly increasing per epoch.
* **Advertised clocks** — ``min-clock(self)`` (what the group believes
  about us) never exceeds our actual clock; quorum-clock() never
  exceeds the largest member clock observation.
* **Delivery** — delivered finals are at or below the clock of the
  delivering process.
* **State GC** — the cached delivered-prefix length stays within the
  live T suffix and only counts delivered entries; the truncation base
  is never negative.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Union

from ..core.epoch import Epoch
from ..core.messages import Multicast
from ..core.process import CANDIDATE, PRIMARY, PrimCastProcess
from ..rmcast.fifo import RHandler
from .properties import PropertyViolation


class InvariantMonitor:
    """Wraps one process's r-deliver handlers and re-checks invariants
    after every event.

    Each monitor wraps every entry of the process's ``_r_dispatch`` table
    once, so monitors and a :class:`~repro.core.spec.SpecRecorder` stack
    in any order and each sees every r-delivery exactly once.
    """

    def __init__(self, proc: PrimCastProcess) -> None:
        self.proc = proc
        self.checks_run = 0
        self._last_clock = proc.clock
        self._last_e_cur = proc.e_cur
        self._last_e_prom = proc.e_prom
        dispatch = proc._r_dispatch

        def checked(handler: RHandler) -> RHandler:
            def wrapped(origin: int, payload: Any) -> None:
                handler(origin, payload)
                if not proc.crashed:
                    self.check()

            return wrapped

        for cls, handler in list(dispatch.items()):
            dispatch[cls] = checked(handler)
        proc.add_deliver_hook(self._on_deliver)

    def _fail(self, message: str) -> None:
        raise PropertyViolation(
            f"invariant violated at pid {self.proc.pid} "
            f"(t={self.proc.scheduler.now:.3f}): {message}",
            prop="invariant",
        )

    def _on_deliver(
        self, proc: PrimCastProcess, multicast: Multicast, final_ts: int
    ) -> None:
        if final_ts > proc.clock:
            self._fail(
                f"delivered {multicast.mid} with final ts {final_ts} "
                f"above own clock {proc.clock}"
            )

    def check(self) -> None:
        """Run all structural checks against the current state."""
        proc = self.proc
        self.checks_run += 1

        if proc.clock < self._last_clock:
            self._fail(f"clock went backwards: {self._last_clock} -> {proc.clock}")
        self._last_clock = proc.clock

        if proc.e_prom < proc.e_cur:
            self._fail(f"E_prom {proc.e_prom} < E_cur {proc.e_cur}")
        if proc.e_cur < self._last_e_cur:
            self._fail(f"E_cur went backwards: {self._last_e_cur} -> {proc.e_cur}")
        if proc.e_prom < self._last_e_prom:
            self._fail(f"E_prom went backwards: {self._last_e_prom} -> {proc.e_prom}")
        self._last_e_cur = proc.e_cur
        self._last_e_prom = proc.e_prom

        if proc.role == PRIMARY and proc.e_cur.leader != proc.pid:
            self._fail(f"primary but E_cur {proc.e_cur} owned by {proc.e_cur.leader}")
        if proc.role == CANDIDATE and proc.e_prom.leader != proc.pid:
            self._fail(f"candidate but E_prom {proc.e_prom} owned elsewhere")

        # T index consistency.
        if len(proc.t_by_mid) != len({m.mid for _, m, _ in proc.t_list}):
            self._fail("t_by_mid size does not match distinct T entries")
        for epoch, multicast, ts in proc.t_list:
            entry = proc.t_by_mid.get(multicast.mid)
            if entry is None:
                self._fail(f"T entry {multicast.mid} missing from index")
        for mid in proc.queue.pending:
            if mid not in proc.t_by_mid:
                self._fail(f"pending {mid} not in T")
            if mid in proc.delivered:
                self._fail(f"pending {mid} already delivered")

        # Proposals strictly increase per epoch in T.
        last_by_epoch: Dict[Epoch, int] = {}
        for epoch, multicast, ts in proc.t_list:
            prev = last_by_epoch.get(epoch)
            if prev is not None and ts <= prev:
                self._fail(
                    f"non-increasing proposal in epoch {epoch}: {prev} -> {ts}"
                )
            last_by_epoch[epoch] = ts

        # State-GC bookkeeping: the delivered-prefix counter stays inside
        # the live suffix, and the truncation base never runs negative.
        if proc._t_base < 0:
            self._fail(f"negative truncation base {proc._t_base}")
        if not 0 <= proc._t_delivered_prefix <= len(proc.t_list):
            self._fail(
                f"delivered prefix {proc._t_delivered_prefix} outside "
                f"[0, {len(proc.t_list)}]"
            )
        for _, multicast, _ in proc.t_list[: proc._t_delivered_prefix]:
            if multicast.mid not in proc.delivered:
                self._fail(
                    f"prefix entry {multicast.mid} counted as delivered "
                    f"but not in delivered set"
                )

        # What the group can believe about our clock never exceeds it.
        if proc.min_clock(proc.pid) > proc.clock:
            self._fail(
                f"min-clock(self)={proc.min_clock(proc.pid)} "
                f"exceeds clock {proc.clock}"
            )
        member_max = max(
            proc.clocks.values.get(pid, 0) for pid in proc.group_members
        )
        if proc.quorum_clock() > member_max:
            self._fail("quorum-clock above every member observation")


def attach_monitors(
    processes: Union[Mapping[int, object], Iterable[object]]
) -> List[InvariantMonitor]:
    """Attach a monitor to every PrimCast process in a collection."""
    monitors: List[InvariantMonitor] = []
    procs: Iterable[object] = (
        processes.values() if isinstance(processes, Mapping) else processes
    )
    for proc in procs:
        if isinstance(proc, PrimCastProcess):
            monitors.append(InvariantMonitor(proc))
    return monitors
