"""Configuration for the static-analysis pass.

:data:`DEFAULT_CONFIG` encodes this repository's determinism policy and
scheduler-context discipline:

* **Determinism scope** — the modules that execute on the simulated
  event path. Everything there must draw randomness through
  :mod:`repro.sim.rng` and read time through ``Scheduler.now``; the
  DET0xx rules enforce it.
* **Race scope** — the modules whose classes hold per-process protocol
  state; the RACE2xx rules check that it is only mutated from handler
  context and that the protocol variables are final before a send.
* **Allowlist** — reviewed exemptions, matched with :mod:`fnmatch`
  patterns against ``module::qualname`` strings. Every entry must carry a
  justification comment; an unexplained entry is a review smell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Mapping, Tuple

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
#: it can leak into the event schedule, so DET002 applies there; the
#: RACE rules treat them as sends.
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

#: Container methods that mutate their receiver. The effect summaries
#: turn ``self.x.append(…)`` into a write of ``x``; keep this to methods
#: that *always* mutate so reads never count as writes.
MUTATOR_METHODS: Tuple[str, ...] = (
    "append",
    "appendleft",
    "add",
    "extend",
    "insert",
    "remove",
    "discard",
    "clear",
    "pop",
    "popleft",
    "popitem",
    "update",
    "setdefault",
    "sort",
    "reverse",
    "push",
)

#: Free functions whose *first argument* is mutated in place
#: (``heapq.heappush(self.x, …)`` writes ``x``).
MUTATING_FUNCS: Tuple[str, ...] = (
    "heappush",
    "heappop",
    "heapify",
    "heapreplace",
    "heappushpop",
)

#: Modules whose classes hold per-process protocol state; the RACE2xx
#: rules analyse methods here, including the harness, chaos and net
#: packages that host or drive the protocol objects.
RACE_SCOPE: Tuple[str, ...] = (
    "repro.core",
    "repro.sim",
    "repro.rmcast",
    "repro.baselines",
    "repro.election",
    "repro.harness",
    "repro.chaos",
    # The asyncio backend hosts the same protocol objects on a real
    # event loop; its facades must respect the same handler-context
    # discipline (DESIGN.md §12) — notably NetScheduler.drain, which is
    # the net analogue of Scheduler.run.
    "repro.net",
)

#: Shared per-process protocol state (Algorithms 1–3 variables plus the
#: bookkeeping the delivery decision reads). A mutation of one of these
#: from outside scheduler/handler context is a RACE201; private
#: (underscore) caches are deliberately absent — they are recomputed,
#: never load-bearing across handlers.
RACE_SHARED_ATTRS: Tuple[str, ...] = (
    "clock",
    "e_cur",
    "e_prom",
    "role",
    "t_list",
    "t_by_mid",
    "pending",
    "delivered",
    "started",
    "my_acks",
    "acks",
    "promises",
    "accepts",
)

#: The Algorithm 1 protocol variables (lines 1–8). RACE202 requires them
#: to be final before a send on the same path.
PROTOCOL_VARS: Tuple[str, ...] = ("clock", "e_cur", "e_prom")

#: Instance attributes holding r-deliver dispatch tables: a class that
#: binds one is a process, whatever its handler names (RACE201).
DISPATCH_ATTRS: Tuple[str, ...] = ("_r_dispatch",)

#: Method-name prefixes that mark scheduler-dispatched handler context:
#: these run to completion on the (single-threaded) event loop, so
#: mutations inside them are serialised by construction.
HANDLER_PREFIXES: Tuple[str, ...] = ("on_", "_on_", "handle_", "_handle_")

#: Reviewed entry points that *are* scheduler context despite their
#: public, non-handler names (fnmatch over ``module::Class.method``).
#: Every entry needs a justification comment — the self-check fails on
#: an unexplained one.
SCHEDULER_CONTEXT_API: Tuple[str, ...] = (
    # a_multicast is Algorithm 1 line 9: the application-facing entry
    # point. The sim calls it from scheduled app events; repro.net's
    # clients and the benchmark post it onto the node's NetScheduler
    # (proc.post_job), whose drain runs it to completion between
    # handlers — it is handler context by contract, not by accident.
    "*::*.a_multicast",
    # compact_delivered is invoked by the GC daemon from a scheduled
    # timer (repro.core.gc), i.e. on the event loop between handlers —
    # same serialisation domain as the handlers themselves.
    "repro.core.process::PrimCastProcess.compact_delivered",
)

#: Epoch variables whose reads go stale across a suspension point
#: (RACE203): any ``await``/``yield`` can admit an epoch change, so a
#: cached ``e_cur``/``e_prom`` must be re-read before use afterwards.
EPOCH_GUARD_ATTRS: Tuple[str, ...] = ("e_cur", "e_prom")

#: Reviewed exemptions (fnmatch patterns against ``module::qualname``).
DEFAULT_ALLOW: Mapping[str, Tuple[str, ...]] = {
    # The standing-proposal rule (Algorithm 1 line 35; Algorithm 3 lines
    # 75-81) *requires* proposing after acking/announcing: an ack or
    # AcceptEpoch goes out, then _propose stamps the next clock value.
    # The emitted messages carry no post-send state (Ack/Bump capture
    # the clock at emission, AcceptEpoch carries only (epoch, pid)), and
    # each handler runs to completion on the scheduler, so send+mutate
    # is atomic with respect to every other handler. Both backends
    # (Scheduler.run, NetScheduler.drain) must keep per-process handler
    # atomicity (DESIGN.md §10) — these three sites are the contract's
    # test cases.
    "RACE202": (
        "repro.core.process::PrimCastProcess._on_ack",
        "repro.core.process::PrimCastProcess._on_new_state",
        "repro.core.process::PrimCastProcess._check_epoch_activation",
        # Classic's slot-apply loop: applying a PROPOSE entry stamps the
        # clock and the leader sends that entry's ClTimestamp; the next
        # iteration applies the next slot and stamps the clock again.
        # Each ClTimestamp captures the clock of the entry being applied,
        # the same standing-proposal shape as above.
        "repro.baselines.classic::ClassicProcess._on_accepted",
    ),
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable knobs of one analysis run (immutable)."""

    #: rule id -> fnmatch patterns over ``module::qualname`` (or bare
    #: ``module``) that suppress findings of that rule.
    allow: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW)
    )

    det_scope: Tuple[str, ...] = DET_SCOPE
    emission_calls: Tuple[str, ...] = EMISSION_CALLS
    known_set_attrs: Tuple[str, ...] = KNOWN_SET_ATTRS
    float_time_attrs: Tuple[str, ...] = FLOAT_TIME_ATTRS
    float_time_names: Tuple[str, ...] = FLOAT_TIME_NAMES
    mutator_methods: Tuple[str, ...] = MUTATOR_METHODS
    mutating_funcs: Tuple[str, ...] = MUTATING_FUNCS
    race_scope: Tuple[str, ...] = RACE_SCOPE
    race_shared_attrs: Tuple[str, ...] = RACE_SHARED_ATTRS
    dispatch_attrs: Tuple[str, ...] = DISPATCH_ATTRS
    handler_prefixes: Tuple[str, ...] = HANDLER_PREFIXES
    scheduler_context_api: Tuple[str, ...] = SCHEDULER_CONTEXT_API
    epoch_guard_attrs: Tuple[str, ...] = EPOCH_GUARD_ATTRS

    def is_scheduler_context(self, module: str, class_name: str, method: str) -> bool:
        """True when ``Class.method`` is a reviewed scheduler entry point."""
        context = f"{module}::{class_name}.{method}"
        return any(
            fnmatchcase(context, pat) for pat in self.scheduler_context_api
        )

    def is_allowed(self, rule_id: str, context: str) -> bool:
        """True when ``context`` (``module::qualname``) is allowlisted."""
        patterns = self.allow.get(rule_id, ())
        module = context.split("::", 1)[0]
        return any(
            fnmatchcase(context, pat) or fnmatchcase(module, pat)
            for pat in patterns
        )


#: The repository's standing policy.
DEFAULT_CONFIG = AnalysisConfig()
