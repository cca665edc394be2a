"""repro.chaos — deterministic fault-schedule exploration.

The chaos subsystem stress-tests the protocol implementations under
adversarial fault schedules and turns any property violation into a
minimal, replayable counterexample:

* :mod:`~repro.chaos.schedule` — seed-derived, JSON-canonical
  :class:`FaultSchedule` (crashes, per-link delay spikes, clock skew);
* :mod:`~repro.chaos.nemesis` — applies a schedule to a built system
  via the failure injector, transmit wrapping and protocol probe hooks;
* :mod:`~repro.chaos.explorer` — seeded campaigns over N schedules,
  checked by the §2.2 property suite and the invariant monitors;
* :mod:`~repro.chaos.shrink` — delta-debugging minimization of a
  violating schedule into a replayable reproducer;
* :mod:`~repro.chaos.cli` — ``python -m repro.chaos run|replay|shrink``.
"""

from .explorer import (
    CHAOS_SCENARIOS,
    CampaignReport,
    CaseResult,
    CaseSpec,
    ChaosScenario,
    run_campaign,
    run_case,
)
from .nemesis import Nemesis
from .schedule import (
    FaultEvent,
    FaultSchedule,
    Trigger,
    generate_schedule,
)
from .shrink import ShrinkResult, shrink_case

__all__ = [
    "CHAOS_SCENARIOS",
    "CampaignReport",
    "CaseResult",
    "CaseSpec",
    "ChaosScenario",
    "FaultEvent",
    "FaultSchedule",
    "Nemesis",
    "ShrinkResult",
    "Trigger",
    "generate_schedule",
    "run_campaign",
    "run_case",
    "shrink_case",
]
