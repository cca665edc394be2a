"""The determinism policy the DET0xx rules read.

The determinism scope is the set of modules that execute on the
simulated event path. Everything there must draw randomness through
:mod:`repro.sim.rng` and read time through ``Scheduler.now``. The other
tuples name what the rules treat as an emission, a set or a simulated
timestamp.
"""

from __future__ import annotations

from typing import Tuple

#: Modules that run on the simulated event path (determinism scope).
#: ``repro.harness.parallel`` / ``repro.harness.cache`` are not on the
#: event path themselves but feed seeds and memoized results into it, so
#: they are held to the same bar: worker seeds must arrive explicitly in
#: the PointSpec (derived via repro.sim.rng in the runner), never from
#: ambient randomness or the wall clock.
DET_SCOPE: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.baselines",
    "repro.rmcast",
    "repro.election",
    "repro.harness.parallel",
    "repro.harness.cache",
    "repro.chaos",
)

#: Calls that emit messages or schedule events. A function whose body
#: contains one of these is an *emission context*: iteration order inside
#: it can leak into the event schedule, so DET002 applies there.
EMISSION_CALLS: Tuple[str, ...] = (
    "r_multicast",
    "multicast",
    "a_multicast",
    "a_multicast_m",
    "send",
    "transmit",
    "schedule",
    "call_at",
    "call_after",
    "post_job",
    "_send_ack",
    "_propose",
)

#: Attribute names treated as set-typed everywhere in scope, on top of
#: per-module inference. ``dest`` is ``Multicast.dest`` (a frozenset of
#: group ids) and crosses module boundaries constantly.
KNOWN_SET_ATTRS: Tuple[str, ...] = (
    "dest",
    "pending",
    "delivered",
    "my_acks",
)

#: Attribute / bare names that hold simulated wall-clock floats; DET004
#: forbids ``==`` / ``!=`` on them.
FLOAT_TIME_ATTRS: Tuple[str, ...] = ("now", "busy_until")
FLOAT_TIME_NAMES: Tuple[str, ...] = ("arrival", "depart_time", "deadline")
