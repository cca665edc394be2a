"""Fault schedules: JSON-canonical, seed-derived lists of fault events.

A :class:`FaultSchedule` is the unit the whole chaos subsystem revolves
around: the explorer *generates* them from a seed, the nemesis *applies*
them to a built scenario, the shrinker *minimizes* them, and the CLI
*replays* them from a file. Determinism is the contract at every step:

* :func:`generate_schedule` derives every choice from
  ``child_rng(seed, "chaos-schedule:<scenario name>")`` — same case,
  same schedule, byte-identical canonical JSON;
* a schedule round-trips through :meth:`FaultSchedule.to_json` /
  :meth:`FaultSchedule.from_json` without loss, so a replay file
  re-triggers the exact event sequence of the run that produced it.

Three fault kinds cover the adversarial space the paper's correctness
argument cares about:

* ``"crash"`` — a crash-stop failure (§2.1), targeted at a concrete pid
  (``"pid:N"``) or at whichever process currently leads a group
  (``"leader:G"``, resolved at fire time). Triggers are either absolute
  times or *protocol hooks* (:data:`repro.core.process.PROBE_EVENTS`):
  "crash the leader at its 3rd ack quorum" rather than "at t=17.3ms".
* ``"delay"`` — a per-link message-delay spike: every message departing
  on matching ``(src, dst)`` links inside a time window is delayed by a
  constant extra, modeling a congested or flapping path before GST.
* ``"skew"`` — a clock-skew perturbation: one process's physical clock
  offset jumps at a given time (only a §6 hybrid-clock process has a
  clock; the nemesis skips any other).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.process import PROBE_EVENTS
from ..sim.failures import max_failures
from ..sim.rng import child_rng

if TYPE_CHECKING:
    from .explorer import ChaosScenario

#: Fault kinds understood by the nemesis.
FAULT_KINDS = ("crash", "delay", "skew")

#: Most delay windows, and most clock skews (HC deployments only), one
#: generated schedule holds; the generator draws each count from 0 up.
MAX_DELAYS = 3
MAX_SKEWS = 2

#: Probe events the generator draws crash triggers from. "deliver" is
#: excluded: crashing on delivery is covered by time triggers and makes
#: schedules needlessly noisy.
TRIGGER_EVENTS = ("start", "propose", "ack_quorum", "epoch_change")


@dataclass(frozen=True)
class Trigger:
    """When a fault event fires.

    ``kind == "at"`` fires at absolute simulated time ``time_ms``.
    ``kind == "on"`` fires when the ``nth`` matching protocol probe
    event (:data:`repro.core.process.PROBE_EVENTS`) is observed —
    optionally restricted to probes at process ``pid`` — then applies
    the fault ``offset_ms`` later (``0`` = inline, inside the very
    event that fired the probe, so in-progress sends are lost).
    """

    kind: str  # "at" | "on"
    time_ms: float = 0.0
    event: str = ""
    pid: Optional[int] = None
    nth: int = 1
    offset_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("at", "on"):
            raise ValueError(f"unknown trigger kind {self.kind!r}")
        if self.kind == "on":
            if self.event not in PROBE_EVENTS:
                raise ValueError(f"unknown probe event {self.event!r}")
            if self.nth < 1:
                raise ValueError("nth must be at least 1")


@dataclass(frozen=True)
class FaultEvent:
    """One fault. Only the fields of its ``kind`` are meaningful.

    crash: ``target`` (``"pid:N"`` / ``"leader:G"``), ``over_budget``
    (bypass the quorum-budget guard), ``trigger`` (time or hook).
    delay: ``src`` / ``dst`` pids (``-1`` = any), ``extra_ms`` added to
    each matching departure inside ``[trigger.time_ms, trigger.time_ms +
    duration_ms)``.
    skew: ``pid`` whose physical clock offset jumps by ``skew_us``
    microseconds at ``trigger.time_ms``.
    """

    kind: str
    trigger: Trigger
    # crash fields
    target: str = ""
    over_budget: bool = False
    # delay fields
    src: int = -1
    dst: int = -1
    extra_ms: float = 0.0
    duration_ms: float = 0.0
    # skew fields
    pid: int = -1
    skew_us: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "crash" and not (
            self.target.startswith("pid:") or self.target.startswith("leader:")
        ):
            raise ValueError(f"bad crash target {self.target!r}")
        if self.kind in ("delay", "skew") and self.trigger.kind != "at":
            raise ValueError(f"{self.kind} events only support 'at' triggers")

    def canonical(self) -> Dict[str, Any]:
        """JSON-safe dict with a stable field set."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        payload = dict(data)
        payload["trigger"] = Trigger(**payload["trigger"])
        return cls(**payload)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered list of fault events.

    A schedule always travels inside the
    :class:`~repro.chaos.explorer.CaseSpec` that names its scenario and
    seed, so it holds nothing else.
    """

    events: Tuple[FaultEvent, ...] = ()

    def canonical(self) -> Dict[str, Any]:
        return {"events": [event.canonical() for event in self.events]}

    def to_json(self) -> str:
        """Stable serialization: sorted keys, compact separators."""
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        return cls(tuple(FaultEvent.from_dict(e) for e in data["events"]))

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    def replace_events(self, events: List[FaultEvent]) -> "FaultSchedule":
        """Another event list for the same case (used by the shrinker)."""
        return FaultSchedule(tuple(events))


def generate_schedule(
    scenario: ChaosScenario,
    seed: int,
    allow_over_budget: bool = False,
) -> FaultSchedule:
    """Derive a fault schedule for ``(scenario, seed)`` deterministically.

    Crashes stay within each group's :func:`~repro.sim.failures.
    max_failures` budget unless ``allow_over_budget`` is set, in which
    case a final over-budget crash may be appended (safety must still
    hold; liveness is expected to be lost for affected messages).
    Delay windows and extras are bounded well inside the horizon so a
    quiesced run is actually quiescent — no fault may still be holding
    traffic when the post-run property checkers assume quiescence.
    Clock skews are drawn only for ``primcast-hc``, the one protocol
    whose processes have a physical clock.
    """
    rng = child_rng(seed, f"chaos-schedule:{scenario.name}")
    config = scenario.deployment.make_config()
    events: List[FaultEvent] = []

    # --- crashes, budgeted per group -----------------------------------
    budget = {g: max_failures(len(members)) for g, members in enumerate(config.groups)}
    n_crashes = rng.randint(0, sum(budget.values()))
    fault_window = scenario.horizon_ms * 0.25
    for _ in range(n_crashes):
        open_groups = sorted(g for g, left in budget.items() if left > 0)
        if not open_groups:
            break
        gid = rng.choice(open_groups)
        budget[gid] -= 1
        style = rng.random()
        if style < 0.4:
            target = f"leader:{gid}"
        else:
            target = f"pid:{rng.choice(config.members(gid))}"
        if rng.random() < 0.5:
            trigger = Trigger(kind="at", time_ms=round(rng.uniform(1.0, fault_window), 3))
        else:
            trigger = Trigger(
                kind="on",
                event=rng.choice(TRIGGER_EVENTS),
                nth=rng.randint(1, 12),
                offset_ms=rng.choice((0.0, 0.1, 1.0)),
            )
        events.append(FaultEvent(kind="crash", trigger=trigger, target=target))

    if allow_over_budget and rng.random() < 0.5:
        gid = rng.randrange(config.n_groups)
        target = f"pid:{rng.choice(config.members(gid))}"
        events.append(
            FaultEvent(
                kind="crash",
                trigger=Trigger(kind="at", time_ms=round(rng.uniform(1.0, fault_window), 3)),
                target=target,
                over_budget=True,
            )
        )

    # --- per-link delay spikes -----------------------------------------
    all_pids = sorted(config.all_pids)
    for _ in range(rng.randint(0, MAX_DELAYS)):
        src = rng.choice(all_pids + [-1])
        dst = rng.choice([p for p in all_pids if p != src] + [-1])
        start = round(rng.uniform(0.0, scenario.horizon_ms * 0.3), 3)
        events.append(
            FaultEvent(
                kind="delay",
                trigger=Trigger(kind="at", time_ms=start),
                src=src,
                dst=dst,
                extra_ms=round(rng.uniform(5.0, 100.0), 3),
                duration_ms=round(rng.uniform(10.0, scenario.horizon_ms * 0.1), 3),
            )
        )

    # --- clock-skew perturbations (HC variant only) --------------------
    if scenario.protocol == "primcast-hc":
        for _ in range(rng.randint(0, MAX_SKEWS)):
            events.append(
                FaultEvent(
                    kind="skew",
                    trigger=Trigger(
                        kind="at",
                        time_ms=round(rng.uniform(0.0, scenario.horizon_ms * 0.3), 3),
                    ),
                    pid=rng.choice(all_pids),
                    skew_us=rng.randint(-3000, 3000),
                )
            )

    return FaultSchedule(tuple(events))
