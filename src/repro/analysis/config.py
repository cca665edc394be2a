"""Configuration for the static-analysis pass.

:data:`DEFAULT_CONFIG` encodes this repository's determinism policy and
the protocol conformance map mirroring Algorithms 1–3 of the paper:

* **Determinism scope** — the modules that execute on the simulated
  event path. Everything there must draw randomness through
  :mod:`repro.sim.rng` and read time through ``Scheduler.now``; the
  DET0xx rules enforce it.
* **State conformance** — which modules may mutate the Algorithm 1
  protocol variables ``clock`` / ``e_cur`` / ``e_prom``. The paper's
  correctness argument assigns each mutation to a specific pseudocode
  line, all of which live in :mod:`repro.core.process`; the baselines own
  their *own* per-protocol clocks (§4), so their modules are allowed for
  ``clock`` only.
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
    "repro.consensus",
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
    "send_many",
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
#: rules analyse methods here. Narrower than DET scope on purpose: the
#: harness/chaos drivers hold no protocol state of their own (what they
#: touch on processes, RACE201's foreign-write arm still sees).
RACE_SCOPE: Tuple[str, ...] = (
    "repro.core",
    "repro.sim",
    "repro.rmcast",
    "repro.baselines",
    "repro.election",
    "repro.consensus",
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
    # point. The sim calls it from scheduled app events, and the coming
    # asyncio backend must post it onto the process's event loop (DESIGN
    # §10) — it is handler context by contract, not by accident.
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

#: Functions declared pure (fnmatch over ``module::qualname``): EFF301
#: requires their transitive write effect to be empty. The spec-level
#: predicates mirror the paper's timestamp functions (local_ts, min_ts,
#: final_ts, …) — referentially transparent by definition there.
DECLARED_PURE: Tuple[str, ...] = (
    # The literal Algorithm 1 predicates: brute-force scans over the
    # recorded tuple set, pure by construction (that is their point).
    "repro.core.spec::SpecRecorder.local_ts",
    "repro.core.spec::SpecRecorder.min_clock",
    "repro.core.spec::SpecRecorder.quorum_clock",
    "repro.core.spec::SpecRecorder.final_ts",
    "repro.core.spec::SpecRecorder.min_ts",
    # Incremental counterparts that must stay read-only so the
    # differential tests can call them at will mid-execution. (final_ts
    # and quorum_clock memoise into private caches and are deliberately
    # NOT declared pure.)
    "repro.core.process::PrimCastProcess.local_ts",
    "repro.core.process::PrimCastProcess.min_clock",
    "repro.core.process::PrimCastProcess._min_ts",
    "repro.core.process::PrimCastProcess._proposable",
)

#: Decorator names that declare a function pure in-source.
PURE_DECORATORS: Tuple[str, ...] = ("pure", "declared_pure")

#: Modules whose classes observe the protocol (EFF302): they may read
#: any process state but must never write the shared protocol
#: attributes of a *foreign* object (their own bookkeeping is fine).
EFF_READONLY_SCOPE: Tuple[str, ...] = (
    "repro.verify",
    "repro.core.spec",
    # Cluster nodes observe their process through deliver/probe hooks;
    # the only protocol-object writes they may make are construction-
    # time wiring (omega attach), checked the same way as the verifiers.
    "repro.net.host",
)

#: Modules whose classes are wire messages (PROTO101).
WIRE_MESSAGE_MODULES: Tuple[str, ...] = (
    "repro.core.messages",
    "repro.rmcast.fifo",
    "repro.baselines.classic",
    "repro.baselines.fastcast",
    "repro.baselines.whitebox",
    "repro.consensus.paxos",
)

#: Instance attributes holding r-deliver dispatch tables (PROTO102).
DISPATCH_ATTRS: Tuple[str, ...] = ("_r_dispatch",)

#: Modules whose classes must declare ``__slots__`` (PERF001): the
#: simulator's hot core — the substrate every event passes through and
#: the protocol state it drives — where a per-instance dict is paid
#: ~10^5-10^6 times per figure point (DESIGN.md §9).
PERF_SLOTS_SCOPE: Tuple[str, ...] = (
    "repro.sim.events",
    "repro.sim.clock",
    "repro.sim.costs",
    "repro.sim.latency",
    "repro.sim.network",
    "repro.sim.process",
    "repro.core.epoch",
    "repro.core.config",
    "repro.core.messages",
    "repro.core.state",
    "repro.core.gc",
    "repro.core.process",
)

#: Conformance map for PROTO103: protocol-state attribute -> modules
#: allowed to mutate it. Mirrors Algorithms 1–3: every ``clock`` /
#: ``e_cur`` / ``e_prom`` mutation of the pseudocode is a line of
#: Algorithm 1, 2 or 3, all implemented in ``repro.core.process``. The
#: baselines (§4) maintain their own protocol clocks and are allowed for
#: ``clock`` in their own modules only.
STATE_CONFORMANCE: Mapping[str, Tuple[str, ...]] = {
    "clock": (
        "repro.core.process",
        "repro.baselines.classic",
        "repro.baselines.fastcast",
        "repro.baselines.whitebox",
    ),
    "e_cur": ("repro.core.process",),
    "e_prom": ("repro.core.process",),
}

#: Reviewed exemptions (fnmatch patterns against ``module::qualname``).
DEFAULT_ALLOW: Mapping[str, Tuple[str, ...]] = {
    # Multicast is the *application* message carried inside wire
    # messages, not a wire message itself; Envelope computes its kind
    # per-payload at construction (fifo.py) — both are exempt from the
    # class-level-kind contract by design.
    "PROTO101": (
        "repro.core.messages::Multicast",
        "repro.rmcast.fifo::Envelope",
    ),
    # (The former PROTO103 entry for EpochPromise.__init__ is gone: the
    # rule now proves wire-message payload capture clean by itself.)
    # The standing-proposal rule (Algorithm 1 line 35; Algorithm 3 lines
    # 75-81) *requires* proposing after acking/announcing: an ack or
    # AcceptEpoch goes out, then _propose stamps the next clock value.
    # The emitted messages carry no post-send state (Ack/Bump capture
    # the clock at emission, AcceptEpoch carries only (epoch, pid)), and
    # each handler runs to completion on the scheduler, so send+mutate
    # is atomic with respect to every other handler. The repro.net port
    # must preserve per-process handler atomicity (DESIGN.md §10) —
    # these three sites are the contract's test cases.
    "RACE202": (
        "repro.core.process::PrimCastProcess._on_ack",
        "repro.core.process::PrimCastProcess._on_new_state",
        "repro.core.process::PrimCastProcess._check_epoch_activation",
    ),
    # The process lineage must stay dynamic (no __slots__): SimProcess
    # subclasses (protocols, test doubles) add instance attributes
    # freely, and the spec recorder / invariant monitor wrap
    # PrimCastProcess.on_r_deliver as an *instance* attribute — both
    # require a per-instance dict. There are a few dozen of them per
    # run, not one per event, so the dict costs nothing that matters.
    "PERF001": (
        "repro.sim.process::SimProcess",
        "repro.core.process::PrimCastProcess",
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
    #: rule id -> severity, overriding the rule's default.
    severity_overrides: Mapping[str, str] = field(default_factory=dict)
    #: rule id -> replacement scope (module prefixes).
    scope_override: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    det_scope: Tuple[str, ...] = DET_SCOPE
    emission_calls: Tuple[str, ...] = EMISSION_CALLS
    known_set_attrs: Tuple[str, ...] = KNOWN_SET_ATTRS
    float_time_attrs: Tuple[str, ...] = FLOAT_TIME_ATTRS
    float_time_names: Tuple[str, ...] = FLOAT_TIME_NAMES
    wire_message_modules: Tuple[str, ...] = WIRE_MESSAGE_MODULES
    dispatch_attrs: Tuple[str, ...] = DISPATCH_ATTRS
    perf_slots_scope: Tuple[str, ...] = PERF_SLOTS_SCOPE
    state_conformance: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(STATE_CONFORMANCE)
    )
    mutator_methods: Tuple[str, ...] = MUTATOR_METHODS
    mutating_funcs: Tuple[str, ...] = MUTATING_FUNCS
    race_scope: Tuple[str, ...] = RACE_SCOPE
    race_shared_attrs: Tuple[str, ...] = RACE_SHARED_ATTRS
    handler_prefixes: Tuple[str, ...] = HANDLER_PREFIXES
    scheduler_context_api: Tuple[str, ...] = SCHEDULER_CONTEXT_API
    epoch_guard_attrs: Tuple[str, ...] = EPOCH_GUARD_ATTRS
    declared_pure: Tuple[str, ...] = DECLARED_PURE
    pure_decorators: Tuple[str, ...] = PURE_DECORATORS
    eff_readonly_scope: Tuple[str, ...] = EFF_READONLY_SCOPE

    def is_scheduler_context(self, module: str, class_name: str, method: str) -> bool:
        """True when ``Class.method`` is a reviewed scheduler entry point."""
        context = f"{module}::{class_name}.{method}"
        return any(
            fnmatchcase(context, pat) for pat in self.scheduler_context_api
        )

    def is_declared_pure(self, module: str, qualname: str) -> bool:
        """True when ``module::qualname`` is declared pure by config."""
        context = f"{module}::{qualname}"
        return any(fnmatchcase(context, pat) for pat in self.declared_pure)

    def is_allowed(self, rule_id: str, context: str) -> bool:
        """True when ``context`` (``module::qualname``) is allowlisted."""
        patterns = self.allow.get(rule_id, ())
        module = context.split("::", 1)[0]
        return any(
            fnmatchcase(context, pat) or fnmatchcase(module, pat)
            for pat in patterns
        )

    def severity_for(self, rule_id: str, default: str) -> str:
        return self.severity_overrides.get(rule_id, default)


#: The repository's standing policy.
DEFAULT_CONFIG = AnalysisConfig()
