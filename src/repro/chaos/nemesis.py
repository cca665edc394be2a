"""Nemesis: applies a :class:`~repro.chaos.schedule.FaultSchedule` to a
built system.

The nemesis owns the three injection paths:

* **crashes** go through :class:`~repro.sim.failures.FailureInjector`,
  guarded by the group's quorum budget unless the event says
  ``over_budget``. Targets are resolved *at fire time*: ``"leader:G"``
  kills whichever process of group G currently acts as primary, so a
  schedule can chain "crash the leader, then crash the new leader".
  Hook-triggered crashes ride the protocol probe hooks installed on
  every process (:data:`~repro.core.process.PROBE_EVENTS`), firing at protocol step
  boundaries — first ack quorum, epoch change start — rather than only
  at wall-clock times.
* **delay spikes** install a transmit interceptor (see
  :meth:`~repro.sim.network.Network.add_transmit_interceptor`): while a
  rule's window is open, matching ``(src, dst)`` departures are shifted
  by ``extra_ms``. A spike models a congested link, so it never touches
  the self-channel ``src == dst``, which is no link (and has no FIFO
  clamp: a shifted self-message would be overtaken by a later one).
  Between two processes, the network's arrival clamp keeps per-channel
  FIFO order, as a congested TCP link would.
* **clock skew** perturbs a process's
  :class:`~repro.sim.clock.PhysicalClock` offset (observable only under
  the hybrid-clock variant).

Everything the nemesis does is a pure function of the schedule and the
simulation state, so a replayed schedule re-produces the exact fault
sequence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.config import GroupConfig
from ..core.endpoint import GroupProtocolProcess
from ..core.process import PRIMARY, PrimCastProcess
from ..sim.events import Scheduler
from ..sim.failures import FailureInjector
from ..sim.network import Network
from .schedule import FaultEvent, FaultSchedule


class _HookState:
    """Mutable per-event counter for hook-triggered crashes."""

    __slots__ = ("count", "fired")

    def __init__(self) -> None:
        self.count = 0
        self.fired = False


class Nemesis:
    """Arms one schedule against one built system.

    Args:
        schedule: the fault schedule to apply.
        scheduler / network / config: the system's substrate.
        processes: pid → process map (``system.processes``).
        injector: optional shared :class:`FailureInjector`; a fresh one
            is created when omitted.

    After :meth:`install`, :attr:`applied` counts what actually
    happened: crashes fired, crashes refused by the budget guard,
    crashes whose target could not be resolved, delay rules armed and
    skews applied — all deterministic, so they belong in case reports.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        scheduler: Scheduler,
        network: Network,
        config: GroupConfig,
        processes: Dict[int, Any],
        injector: Optional[FailureInjector] = None,
    ) -> None:
        self.schedule = schedule
        self.scheduler = scheduler
        self.network = network
        self.config = config
        self.processes = processes
        self.injector = injector if injector is not None else FailureInjector(
            scheduler, processes
        )
        self.applied: Dict[str, int] = {
            "crashes": 0,
            "budget_refused": 0,
            "unresolved": 0,
            "delays": 0,
            "skews": 0,
        }
        # (start, end, src, dst, extra) delay rules, in schedule order.
        self._delay_rules: List[Tuple[float, float, int, int, float]] = []
        # probe event name -> [(FaultEvent, _HookState), ...]
        self._hooked: Dict[str, List[Tuple[FaultEvent, _HookState]]] = {}
        self._installed = False

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Arm every event of the schedule. Idempotent per instance."""
        if self._installed:
            return
        self._installed = True
        for event in self.schedule.events:
            if event.kind == "crash":
                self._arm_crash(event)
            elif event.kind == "delay":
                self._arm_delay(event)
            else:
                self._arm_skew(event)
        if self._delay_rules:
            # Intercept the transmit path only when a delay rule exists;
            # the interceptor costs one window scan per message while
            # installed.
            self.network.add_transmit_interceptor(self._delay_interceptor)
        if self._hooked:
            for proc in self.processes.values():
                proc.add_probe_hook(self._on_probe)

    def _arm_crash(self, event: FaultEvent) -> None:
        trigger = event.trigger
        if trigger.kind == "at":
            self.scheduler.call_at(trigger.time_ms, self._fire_crash, event)
        else:
            self._hooked.setdefault(trigger.event, []).append(
                (event, _HookState())
            )

    def _arm_delay(self, event: FaultEvent) -> None:
        start = event.trigger.time_ms
        self._delay_rules.append(
            (start, start + event.duration_ms, event.src, event.dst, event.extra_ms)
        )
        self.applied["delays"] += 1

    def _arm_skew(self, event: FaultEvent) -> None:
        self.scheduler.call_at(event.trigger.time_ms, self._fire_skew, event)

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------

    def _resolve_target(self, target: str) -> Optional[int]:
        """Resolve a crash target to a live pid, or None."""
        kind, _, arg = target.partition(":")
        if kind == "pid":
            pid = int(arg)
            proc = self.processes.get(pid)
            if proc is None or proc.crashed:
                return None
            return pid
        # leader:G — prefer the live member acting as primary; fall back
        # to the epoch owner a live member believes in, then to the
        # lowest live pid (the oracle's next choice).
        gid = int(arg)
        members = self.config.members(gid)
        live = [p for p in members if not self.processes[p].crashed]
        if not live:
            return None
        for pid in live:
            proc = self.processes[pid]
            if isinstance(proc, PrimCastProcess) and proc.role == PRIMARY:
                return pid
        for pid in live:
            proc = self.processes[pid]
            if isinstance(proc, PrimCastProcess):
                believed = proc.e_cur.leader
                if believed in live:
                    return believed
        return live[0]

    def _fire_crash(self, event: FaultEvent) -> None:
        pid = self._resolve_target(event.target)
        if pid is None:
            self.applied["unresolved"] += 1
            return
        group = self.config.members(self.config.group_of[pid])
        if not event.over_budget and not self.injector.within_budget(pid, group):
            self.applied["budget_refused"] += 1
            return
        self.injector.crash_now(pid)
        self.applied["crashes"] += 1

    def _fire_skew(self, event: FaultEvent) -> None:
        proc = self.processes.get(event.pid)
        clock = getattr(proc, "physical_clock", None)
        if clock is not None:
            clock.offset_us += event.skew_us
            self.applied["skews"] += 1

    def _on_probe(self, proc: GroupProtocolProcess, event_name: str, data: Any) -> None:
        hooks = self._hooked.get(event_name)
        if hooks is None:
            return
        for event, state in hooks:
            if state.fired:
                continue
            trigger = event.trigger
            if trigger.pid is not None and proc.pid != trigger.pid:
                continue
            state.count += 1
            if state.count < trigger.nth:
                continue
            state.fired = True
            if trigger.offset_ms <= 0.0:
                # Inline: the process dies inside the handler that hit
                # the step boundary; its pending sends never depart.
                self._fire_crash(event)
            else:
                self.scheduler.call_after(
                    trigger.offset_ms, self._fire_crash, event
                )

    # ------------------------------------------------------------------
    # transmit interception
    # ------------------------------------------------------------------

    def _delay_interceptor(
        self, src: int, dst: int, msg: Any, depart_time: float
    ) -> float:
        if src == dst:
            return depart_time
        extra = 0.0
        for start, end, rule_src, rule_dst, extra_ms in self._delay_rules:
            if (
                start <= depart_time < end
                and (rule_src < 0 or rule_src == src)
                and (rule_dst < 0 or rule_dst == dst)
            ):
                extra += extra_ms
        return depart_time + extra
