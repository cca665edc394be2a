"""Seeded chaos campaigns: generate schedules, run them, aggregate.

A *case* is one (chaos scenario, seed) pair: the seed derives the fault
schedule (:func:`~repro.chaos.schedule.generate_schedule`), the client
workload and every RNG stream of the simulation substrate, so a case is
a pure function of its :class:`CaseSpec` — same spec, byte-identical
:class:`CaseResult`. A *campaign* runs N cases and aggregates their
violations into a :class:`CampaignReport` whose canonical JSON is
byte-identical across runs and across ``jobs`` settings.

Fan-out reuses the figure harness's
:class:`~repro.harness.parallel.SweepExecutor` workers: ``CaseSpec``
implements the same :class:`~repro.harness.parallel.WorkSpec` duck type
as ``PointSpec`` (picklable, ``run()``/``canonical()``/
``result_from_dict()``), so campaigns
shard across cores with the exact merge-in-spec-order machinery the
sweep executor already pins down.

Safety checking is two-layered, violations captured as data:

* during the run, :class:`~repro.verify.InvariantMonitor` rides along on
  every PrimCast process; a structural violation aborts the case and is
  recorded, first, as an ``"invariant"`` violation;
* after the horizon or the abort, one
  :func:`~repro.verify.collect_violations` call checks the §2.2 properties and truncation safety over every process's
  delivery log, a crashed process's prefix included (the properties are
  uniform; only correct processes owe agreement), and genuineness over
  every wire message; integrity against the multicasts recorded at
  submission.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.messages import MessageId, Multicast
from ..core.process import FOLLOWER, PRIMARY, PrimCastProcess
from ..harness.parallel import SweepExecutor
from ..harness.runner import build_system
from ..sim.failures import FailureInjector
from ..sim.rng import child_rng
from ..sim.trace import record_flights
from ..verify import PropertyViolation, Violation, attach_monitors, collect_violations
from ..workload.scenarios import (
    Scenario,
    lan_scenario,
    lan_sustained,
    wan_colocated_leaders,
    wan_distributed_leaders,
)
from .nemesis import Nemesis
from .schedule import FaultSchedule, generate_schedule


def _deliver_on_decision(proc: PrimCastProcess) -> None:
    """The ``no-quorum-wait`` mutant: this process delivers a message as
    soon as its final timestamp is decided, skipping the deliverable()
    guards of Algorithm 1 lines 28-30. It breaks ordering under
    concurrency, which the explorer and the shrinker must find."""

    def try_deliver() -> None:
        if proc.role not in (PRIMARY, FOLLOWER):
            return
        queue = proc.queue  # an epoch change replaces it
        while queue._commit_heap:
            proc._deliver(*queue._pop_head())
        queue.lifted = False  # an empty commit heap: the next commit lifts it

    proc._try_deliver = try_deliver  # type: ignore[method-assign]


def _drop_all(proc: PrimCastProcess) -> None:
    """The ``drop-all`` mutant: a-multicast returns at once, so nothing
    is delivered anywhere. Every safety property holds of that run;
    validity must catch it."""
    proc.a_multicast_m = lambda multicast: None  # type: ignore[method-assign]


def _drop_global(proc: PrimCastProcess) -> None:
    """The ``drop-global`` mutant: a-multicast to more than one group
    returns at once, so only local messages are delivered; validity must
    catch it."""
    submit = proc.a_multicast_m

    def a_multicast_m(multicast: Multicast) -> None:
        if len(multicast.dest) == 1:
            submit(multicast)

    proc.a_multicast_m = a_multicast_m  # type: ignore[method-assign]


#: Mutations the explorer can inject for shrinker self-validation: each
#: name maps to a patch that :func:`run_case` applies to every built
#: process (``""``, no mutation, to none).
MUTATIONS: Dict[str, Optional[Callable[[PrimCastProcess], None]]] = {
    "": None,
    "no-quorum-wait": _deliver_on_decision,
    "drop-all": _drop_all,
    "drop-global": _drop_global,
}


@dataclass(frozen=True)
class ChaosScenario:
    """A deployment (which sets Ω's ``suspect_ms``) + workload sized for
    fault exploration."""

    name: str
    deployment: Scenario
    protocol: str = "primcast"
    horizon_ms: float = 3000.0
    n_messages: int = 40
    send_window_ms: float = 45.0


#: Named chaos scenarios the CLI accepts. ``fig3-reduced`` is the
#: CI smoke campaign's deployment: the Figure 3 WAN geometry (colocated
#: leaders) at a reduced 3×3 shape so 8 seeds finish in seconds.
CHAOS_SCENARIOS: Dict[str, ChaosScenario] = {
    "lan-small": ChaosScenario(
        name="lan-small", horizon_ms=2000.0,
        deployment=replace(lan_scenario(2, 3), suspect_ms=150.0),
    ),
    "fig3-reduced": ChaosScenario(
        name="fig3-reduced", horizon_ms=6000.0,
        deployment=replace(wan_colocated_leaders(3, 3), suspect_ms=250.0),
    ),
    "fig4-reduced": ChaosScenario(
        name="fig4-reduced", horizon_ms=5000.0,
        deployment=replace(wan_distributed_leaders(2, 3), suspect_ms=200.0),
    ),
    "fig3-reduced-hc": ChaosScenario(
        name="fig3-reduced-hc", protocol="primcast-hc", horizon_ms=6000.0,
        deployment=replace(wan_colocated_leaders(3, 3), suspect_ms=250.0),
    ),
    # Long-horizon LAN campaign: enough traffic past the fault window
    # that the state-GC watermark advances and truncation actually
    # happens under crashes/partitions/epoch changes — the case-level
    # truncation-safety check is only interesting when it does.
    "lan-sustained": ChaosScenario(
        name="lan-sustained", horizon_ms=20000.0, n_messages=400, send_window_ms=18000.0,
        deployment=replace(lan_sustained(2, 3), suspect_ms=150.0),
    ),
}


@dataclass(frozen=True)
class CaseSpec:
    """One chaos case, fully described and picklable (a ``WorkSpec``).

    ``schedule`` is None for a schedule generated from the seed, or the
    pinned schedule of a replay or shrink candidate. An unknown scenario
    or mutation, a ``seed`` that is not an ``int`` (a ``bool`` included)
    and an ``allow_over_budget`` that is not a ``bool`` are rejected
    here, so every other entry point takes a spec as valid.
    """

    scenario: str
    seed: int
    mutation: str = ""
    allow_over_budget: bool = False
    schedule: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self.scenario not in CHAOS_SCENARIOS:
            raise ValueError(
                f"unknown chaos scenario {self.scenario!r}; pick from "
                f"{sorted(CHAOS_SCENARIOS)}"
            )
        if self.mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {self.mutation!r}; pick from {tuple(MUTATIONS)}"
            )
        if type(self.seed) is not int:
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        if type(self.allow_over_budget) is not bool:
            raise TypeError(
                f"allow_over_budget must be a bool, got {self.allow_over_budget!r}"
            )

    def canonical(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CaseSpec":
        """Inverse of :meth:`canonical`; ``scenario`` and ``seed`` are
        required, an unknown key is a ``TypeError``."""
        fields = dict(data)
        schedule = fields.pop("schedule", None)
        if schedule is not None:
            fields["schedule"] = FaultSchedule.from_dict(schedule)
        return cls(**fields)

    def resolve_schedule(self) -> FaultSchedule:
        """The pinned schedule, or the one generated from the seed."""
        if self.schedule is not None:
            return self.schedule
        return generate_schedule(
            CHAOS_SCENARIOS[self.scenario],
            self.seed,
            allow_over_budget=self.allow_over_budget,
        )

    @staticmethod
    def result_from_dict(payload: Dict[str, Any]) -> "CaseResult":
        """Cache-decode hook (``ResultCache`` dispatches on the spec)."""
        return CaseResult.from_dict(payload)

    def run(self) -> "CaseResult":
        return run_case(self)


@dataclass
class CaseResult:
    """Outcome of one chaos case (JSON-safe via :meth:`to_dict`).

    ``validity_owed`` is False when an over-budget crash left some group
    without a quorum of correct members (or the case aborted): such a
    case was judged for safety only.
    """

    spec: CaseSpec
    schedule: FaultSchedule
    violations: List[Violation]
    aborted: bool
    validity_owed: bool
    delivered: Dict[int, int]
    crashed: Tuple[int, ...]
    nemesis_applied: Dict[str, int]
    events: int

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.canonical(),
            "schedule": self.schedule.canonical(),
            "violations": [v.to_dict() for v in self.violations],
            "aborted": self.aborted,
            "validity_owed": self.validity_owed,
            "delivered": {str(pid): n for pid, n in sorted(self.delivered.items())},
            "crashed": list(self.crashed),
            "nemesis_applied": dict(sorted(self.nemesis_applied.items())),
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CaseResult":
        """Exact inverse of :meth:`to_dict`.

        The result-cache checkpoint/resume path depends on this being a
        lossless round trip: a resumed campaign rebuilds completed cases
        from cache entries and its report must stay byte-identical to an
        uninterrupted run (pinned by ``tests/chaos/test_explorer.py``).
        """
        return cls(
            spec=CaseSpec.from_dict(payload["spec"]),
            schedule=FaultSchedule.from_dict(payload["schedule"]),
            violations=[Violation.from_dict(v) for v in payload["violations"]],
            aborted=bool(payload["aborted"]),
            validity_owed=bool(payload["validity_owed"]),
            delivered={int(pid): int(n) for pid, n in payload["delivered"].items()},
            crashed=tuple(int(pid) for pid in payload["crashed"]),
            nemesis_applied={
                str(k): int(v) for k, v in payload["nemesis_applied"].items()
            },
            events=int(payload["events"]),
        )


def run_case(spec: CaseSpec) -> CaseResult:
    """Run one chaos case to its horizon and check every property."""
    scn = CHAOS_SCENARIOS[spec.scenario]
    schedule = spec.resolve_schedule()
    system = build_system(scn.protocol, scn.deployment, seed=spec.seed)
    processes = system.processes
    config = system.config
    mutate = MUTATIONS[spec.mutation]
    if mutate is not None:
        for proc in processes.values():
            mutate(proc)
    attach_monitors(processes)

    injector = FailureInjector(system.scheduler, processes)
    nemesis = Nemesis(
        schedule,
        scheduler=system.scheduler,
        network=system.network,
        config=config,
        processes=processes,
        injector=injector,
    )
    nemesis.install()

    # Record which T entries each process truncated via state GC, and
    # when: the "truncate" probe carries the dropped mids, and the
    # post-hoc truncation-safety property judges each against the
    # process's delivery log as it stood at that time.
    truncated: Dict[int, Dict[MessageId, float]] = {pid: {} for pid in config.all_pids}

    def on_probe(proc: Any, event: str, data: Any) -> None:
        now = system.scheduler.now
        for mid in data:
            truncated[proc.pid].setdefault(mid, now)

    for proc in processes.values():
        proc.add_probe_hook(on_probe, ("truncate",))
    # Every wire message, for the genuineness verdict.
    flights = record_flights(system.network)

    # Workload: bursts of multicasts from random senders inside the send
    # window, all derived from the case seed (independent stream from
    # the schedule's so shrinking events never perturbs the workload).
    wl_rng = child_rng(spec.seed, f"chaos-workload:{spec.scenario}")
    multicasts: Dict[MessageId, Multicast] = {}

    def submit(sender: int, dest: FrozenSet[int], payload: str) -> None:
        multicast = processes[sender].a_multicast(dest, payload)
        multicasts[multicast.mid] = multicast

    for i in range(scn.n_messages):
        sender = wl_rng.choice(config.all_pids)
        dest: FrozenSet[int] = frozenset(
            wl_rng.sample(range(config.n_groups), wl_rng.randint(1, config.n_groups))
        )
        when = wl_rng.uniform(0.0, scn.send_window_ms)
        system.scheduler.call_at(when, submit, sender, dest, f"m{i}")

    logs = {pid: processes[pid].delivery_log for pid in config.all_pids}
    aborted = False
    violations: List[Violation] = []
    correct: Set[int]
    try:
        system.scheduler.run(until=scn.horizon_ms)
    except PropertyViolation as exc:
        # An invariant monitor fired mid-run: the case is over and that
        # violation leads the result. The run never quiesced, so no
        # process owes any delivery: with no correct process, agreement
        # and truncation's every-destination clause hold vacuously,
        # while integrity, the order properties, truncation's own-log
        # clause and genuineness are sound over the prefix that ran.
        aborted = True
        violations.append(Violation.from_exception(exc))
        correct = set()
    else:
        correct = {pid for pid, proc in processes.items() if not proc.crashed}
    dest_pids_of = {
        mid: set(config.dest_pids(m.dest)) for mid, m in multicasts.items()
    }
    # Validity is owed at the horizon, and only while every group keeps
    # a quorum of correct members: a group an over-budget crash left
    # without one decides nothing, and a message it shares with another
    # group then holds back that group's later deliveries too (an
    # aborted case has no correct member at all).
    validity_owed = all(
        config.has_quorum(gid, correct.intersection(config.members(gid)))
        for gid in range(config.n_groups)
    )
    violations += collect_violations(
        logs, set(multicasts), dest_pids_of, correct, truncated=truncated,
        flights=flights, group_of=config.group_of, validity=validity_owed,
    )

    return CaseResult(
        spec=spec,
        schedule=schedule,
        violations=violations,
        aborted=aborted,
        validity_owed=validity_owed,
        delivered={pid: len(log) for pid, log in logs.items()},
        crashed=tuple(sorted(injector.crashed_pids)),
        nemesis_applied=dict(nemesis.applied),
        events=system.scheduler.events_processed,
    )


@dataclass
class CampaignReport:
    """Aggregated outcome of one campaign (stable JSON via to_json)."""

    scenario: str
    seeds: List[int]
    mutation: str
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def failing_cases(self) -> List[CaseResult]:
        return [case for case in self.cases if case.failed]

    def to_dict(self) -> Dict[str, Any]:
        failing = self.failing_cases
        return {
            "version": 4,
            "scenario": self.scenario,
            "mutation": self.mutation,
            "seeds": list(self.seeds),
            "summary": {
                "cases": len(self.cases),
                "violating_cases": len(failing),
                "violations": sum(len(c.violations) for c in failing),
                "violating_seeds": [c.spec.seed for c in failing],
                "validity_not_owed_seeds": [
                    c.spec.seed for c in self.cases if not c.validity_owed
                ],
                "crashes_applied": sum(
                    c.nemesis_applied.get("crashes", 0) for c in self.cases
                ),
                "events": sum(c.events for c in self.cases),
            },
            "cases": [case.to_dict() for case in self.cases],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


#: ``run_campaign`` progress callback: (cases done, cases total,
#: violations so far). Fired after every completed case — cache hits in
#: seed order first, then simulated cases in completion order.
ProgressFn = Callable[[int, int, int], None]


def run_campaign(
    scenario: str,
    seeds: Sequence[int],
    mutation: str = "",
    allow_over_budget: bool = False,
    executor: Optional[SweepExecutor] = None,
    progress: Optional[ProgressFn] = None,
) -> CampaignReport:
    """Run one case per seed and aggregate the violations.

    Cases are dispatched through ``executor`` (default: a serial,
    uncached :class:`~repro.harness.parallel.SweepExecutor`, closed on
    return; the caller closes one it passes). Its persistent workers
    steal work across heterogeneous case lengths, and results merge in
    seed order regardless of its ``jobs``, so the report is
    byte-identical across parallelism settings. With the executor's
    ``cache``, every completed case streams into the content-addressed
    result cache the moment it finishes: a killed campaign re-run with
    the same cache resumes with zero re-executions of completed cases,
    and the resumed report is byte-identical to an uninterrupted run.

    ``progress`` (see :data:`ProgressFn`) fires after every completed
    case; it is keyed on case counts, not wall-clock, so the report
    stays deterministic.
    """
    specs = [
        CaseSpec(
            scenario=scenario,
            seed=seed,
            mutation=mutation,
            allow_over_budget=allow_over_budget,
        )
        for seed in seeds
    ]
    owns_executor = executor is None
    if executor is None:
        executor = SweepExecutor()

    done = 0
    violations_so_far = 0

    def on_result(index: int, spec: Any, result: Any) -> None:
        nonlocal done, violations_so_far
        done += 1
        violations_so_far += len(result.violations)
        if progress is not None:
            progress(done, len(specs), violations_so_far)

    try:
        results: List[CaseResult] = list(executor.run(specs, on_result=on_result))
    finally:
        if owns_executor:
            executor.close()
    return CampaignReport(
        scenario=scenario,
        seeds=list(seeds),
        mutation=mutation,
        cases=results,
    )
