"""Counterexample shrinking: minimize a violating fault schedule.

Given a :class:`~repro.chaos.explorer.CaseSpec` whose run violates a
property, the shrinker searches for the smallest schedule that still
triggers a violation of the *same property*. Two passes run to a fixed
point, both classic delta debugging adapted to fault events:

1. **ddmin over events** — drop event subsets (halving granularity,
   then complements, then finer splits) until no single event can be
   removed without losing the violation;
2. **attribute reduction** — per surviving event, try strictly simpler
   variants: delays with halved ``extra_ms`` / ``duration_ms``, hook
   triggers with smaller ``nth`` and zero ``offset_ms``, ``"leader:G"``
   targets retargeted to a concrete pid.

Every candidate is evaluated by actually re-running the case
(:func:`~repro.chaos.explorer.run_case`) with the candidate schedule:
cheap (a few ms of simulated traffic) and exact — the oracle is the
property checker itself, not a heuristic. Candidates are memoized on
their canonical JSON, and the whole search is bounded by ``max_runs``
so a pathological case cannot loop forever. The result replays
deterministically: the shrunk schedule is pinned into the returned
spec's ``schedule``, so ``run_case`` on it reproduces the same
violation bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from .explorer import CHAOS_SCENARIOS, CaseResult, CaseSpec, run_case
from .schedule import FaultEvent, FaultSchedule


@dataclass
class ShrinkResult:
    """Outcome of one shrink search."""

    original: CaseSpec
    #: original violation being chased (property name)
    prop: str
    #: spec with the minimized schedule pinned into ``schedule``
    minimized: CaseSpec
    #: case result of the final minimized schedule (still violating)
    final: CaseResult
    #: events before / after
    original_events: int
    minimized_events: int
    #: simulation runs spent (including the initial reproduction)
    runs: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "original": self.original.canonical(),
            "prop": self.prop,
            "minimized": self.minimized.canonical(),
            "original_events": self.original_events,
            "minimized_events": self.minimized_events,
            "runs": self.runs,
            "violations": [v.to_dict() for v in self.final.violations],
        }


class _Search:
    """Memoized, run-bounded oracle over candidate event lists."""

    def __init__(
        self,
        spec: CaseSpec,
        schedule: FaultSchedule,
        prop: str,
        max_runs: int,
    ) -> None:
        self.spec = spec
        self.schedule = schedule
        self.prop = prop
        self.max_runs = max_runs
        self.runs = 0
        self._seen: Dict[str, Optional[CaseResult]] = {}

    def out_of_budget(self) -> bool:
        return self.runs >= self.max_runs

    def check(self, events: List[FaultEvent]) -> Optional[CaseResult]:
        """Run the case with ``events``; the result if it still violates
        ``prop``, else None. None also once the run budget is spent."""
        candidate = self.schedule.replace_events(events)
        key = candidate.to_json()
        if key in self._seen:
            return self._seen[key]
        if self.out_of_budget():
            return None
        self.runs += 1
        result = run_case(replace(self.spec, schedule=candidate))
        failing = any(v.prop == self.prop for v in result.violations)
        outcome = result if failing else None
        self._seen[key] = outcome
        return outcome


def _ddmin(search: _Search, events: List[FaultEvent]) -> List[FaultEvent]:
    """Zeller's ddmin over the event list."""
    n = 2
    while len(events) >= 2 and not search.out_of_budget():
        chunk = max(1, len(events) // n)
        subsets = [events[i : i + chunk] for i in range(0, len(events), chunk)]
        reduced = False
        # Try each subset alone, then each complement.
        for subset in subsets:
            if search.check(subset) is not None:
                events = subset
                n = 2
                reduced = True
                break
        if reduced:
            continue
        for i in range(len(subsets)):
            complement = [e for j, s in enumerate(subsets) if j != i for e in s]
            if complement and search.check(complement) is not None:
                events = complement
                n = max(2, n - 1)
                reduced = True
                break
        if reduced:
            continue
        if n >= len(events):
            break
        n = min(len(events), n * 2)
    # Final single-event sanity: can the whole thing go? (ddmin never
    # tries the empty list.)
    if events and search.check([]) is not None:
        return []
    return events


def _simpler_variants(event: FaultEvent, group_pids: List[int]) -> List[FaultEvent]:
    """Strictly simpler candidates for one event, most aggressive first."""
    variants: List[FaultEvent] = []
    trigger = event.trigger
    if trigger.kind == "on":
        if trigger.offset_ms > 0.0:
            variants.append(
                replace(event, trigger=replace(trigger, offset_ms=0.0))
            )
        if trigger.nth > 1:
            variants.append(replace(event, trigger=replace(trigger, nth=1)))
            variants.append(
                replace(event, trigger=replace(trigger, nth=trigger.nth // 2))
            )
    if event.kind == "crash" and event.target.startswith("leader:"):
        # Retarget the dynamic leader reference at each concrete member;
        # a pinned pid makes the reproducer independent of election state.
        for pid in group_pids:
            variants.append(replace(event, target=f"pid:{pid}"))
    if event.kind == "delay":
        if event.extra_ms > 1.0:
            variants.append(replace(event, extra_ms=round(event.extra_ms / 2, 3)))
        if event.duration_ms > 1.0:
            variants.append(
                replace(event, duration_ms=round(event.duration_ms / 2, 3))
            )
    return variants


def _reduce_attributes(
    search: _Search,
    events: List[FaultEvent],
    group_members: Dict[int, List[int]],
) -> List[FaultEvent]:
    """Greedy per-event simplification to a fixed point."""
    changed = True
    while changed and not search.out_of_budget():
        changed = False
        for i, event in enumerate(events):
            pids: List[int] = []
            if event.kind == "crash" and event.target.startswith("leader:"):
                pids = group_members.get(int(event.target.partition(":")[2]), [])
            for variant in _simpler_variants(event, pids):
                candidate = list(events)
                candidate[i] = variant
                if search.check(candidate) is not None:
                    events = candidate
                    changed = True
                    break
            if changed:
                break
    return events


def shrink_case(
    spec: CaseSpec,
    max_runs: int = 200,
) -> Optional[ShrinkResult]:
    """Minimize ``spec``'s schedule; None if the case does not violate.

    The returned :attr:`ShrinkResult.minimized` spec has the shrunk
    schedule pinned in ``schedule`` — running it through
    :func:`run_case` (or ``python -m repro.chaos replay``) reproduces
    the violation deterministically.
    """
    schedule = spec.resolve_schedule()
    search = _Search(spec, schedule, prop="", max_runs=max_runs)
    search.runs += 1
    original = run_case(replace(spec, schedule=schedule))
    if not original.violations:
        return None
    prop = original.violations[0].prop
    search.prop = prop
    search._seen[schedule.to_json()] = original

    config = CHAOS_SCENARIOS[spec.scenario].deployment.make_config()
    group_members = {g: config.members(g) for g in range(config.n_groups)}

    events = list(schedule.events)
    best = original
    # Alternate the two passes until neither makes progress.
    while not search.out_of_budget():
        before = [e.canonical() for e in events]
        events = _ddmin(search, events)
        events = _reduce_attributes(search, events, group_members)
        if [e.canonical() for e in events] == before:
            break
    final = search.check(events)
    if final is not None:
        best = final
    minimized_schedule = schedule.replace_events(events)
    return ShrinkResult(
        original=spec,
        prop=prop,
        minimized=replace(spec, schedule=minimized_schedule),
        final=best,
        original_events=len(schedule.events),
        minimized_events=len(events),
        runs=search.runs,
    )
