"""RACE2xx — scheduler-context rules for the protocol objects.

Both backends run a process's handlers to completion, one at a time:
the simulator's ``Scheduler.run`` and ``repro.net``'s
``NetScheduler.drain`` alike. Per-process protocol state needs no locks
*because* of that, and these rules keep the code inside the discipline
that makes it true:

* **RACE201** — shared protocol state mutated from a public, non-handler
  method. Handlers (``on_*``) and reviewed scheduler entry points run on
  the scheduler; anything else could be called from outside it and
  would interleave with the handlers.
* **RACE202** — protocol variables (Algorithm 1's ``clock`` / ``e_cur``
  / ``e_prom``) mutated *after* a send on the same control-flow path.
  The paper's pseudocode establishes state before emitting (the ack
  carries the clock it was stamped with). The reviewed exceptions are
  the standing-proposal sites, correct only while a handler's sends and
  the mutations after them stay in one serialisation domain.
* **RACE203** — an epoch variable read before an ``await``/``yield`` and
  used after it without re-reading. A suspension point can admit an
  epoch change, so the cached value is stale; the fix is to re-read
  ``self.e_cur`` after resuming (comparing the stale copy against a
  fresh read *is* the sanctioned re-validation idiom and does not fire).

RACE202/203 are flow-sensitive: they run the forward dataflow engine of
:mod:`repro.analysis.dataflow` over each function's CFG, with the
call-summary layer (:mod:`repro.analysis.effects`) resolving what a
``self._propose(...)`` call sends and writes transitively.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .base import Finding, ModuleInfo, Rule, in_scope, register
from .cfg import (
    CFGEntry,
    FunctionNode,
    build_cfg,
    iter_child_expressions,
    iter_functions,
)
from .config import PROTOCOL_VARS, AnalysisConfig
from .dataflow import ForwardAnalysis, analyze
from .effects import ModuleEffects, compute_module_effects


def _is_handler(name: str, config: AnalysisConfig) -> bool:
    return any(name.startswith(prefix) for prefix in config.handler_prefixes)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.x`` -> ``x`` (bare-self attribute access only)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _store_targets(entry: CFGEntry) -> List[Tuple[str, ast.AST]]:
    """Bare-self attributes stored to by this entry (any mutation shape:
    assignment, item/slice store, ``del``)."""
    out: List[Tuple[str, ast.AST]] = []

    def record(target: ast.expr) -> None:
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                record(elt)
        elif isinstance(target, ast.Starred):
            record(target.value)
        else:
            attr = _self_attr(target)
            if attr is not None:
                out.append((attr, target))

    if isinstance(entry, ast.Assign):
        for target in entry.targets:
            record(target)
    elif isinstance(entry, ast.AugAssign):
        record(entry.target)
    elif isinstance(entry, ast.AnnAssign) and entry.value is not None:
        record(entry.target)
    elif isinstance(entry, ast.Delete):
        for target in entry.targets:
            record(target)
    return out


def _entry_calls(entry: CFGEntry) -> List[ast.Call]:
    """Call nodes inside one CFG entry (nested scopes excluded)."""
    return [
        node for node in iter_child_expressions(entry) if isinstance(node, ast.Call)
    ]


def _call_writes(
    call: ast.Call, config: AnalysisConfig, effects: ModuleEffects, class_name: str
) -> Set[str]:
    """Bare-self attributes a call mutates: mutator methods on
    ``self.x``, mutating free functions on ``self.x``, and transitive
    writes of ``self.method()`` calls resolved through the summaries."""
    writes: Set[str] = set()
    func = call.func
    if isinstance(func, ast.Attribute):
        receiver_attr = _self_attr(func.value)
        if receiver_attr is not None and func.attr in config.mutator_methods:
            writes.add(receiver_attr)
        if isinstance(func.value, ast.Name) and func.value.id == "self":
            callee = effects.method(class_name, func.attr)
            if callee is not None:
                writes.update(callee.effects.writes)
        if func.attr in config.mutating_funcs and call.args:
            arg_attr = _self_attr(call.args[0])
            if arg_attr is not None:
                writes.add(arg_attr)
    elif isinstance(func, ast.Name):
        if func.id in config.mutating_funcs and call.args:
            arg_attr = _self_attr(call.args[0])
            if arg_attr is not None:
                writes.add(arg_attr)
    return writes


def _call_sends(
    call: ast.Call, config: AnalysisConfig, effects: ModuleEffects, class_name: str
) -> bool:
    """True when this call emits a message, directly (an emission
    primitive) or transitively (a self-method whose summary sends)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in config.emission_calls:
            return True
        if isinstance(func.value, ast.Name) and func.value.id == "self":
            callee = effects.method(class_name, func.attr)
            if callee is not None and callee.effects.sends:
                return True
        return False
    if isinstance(func, ast.Name):
        return func.id in config.emission_calls
    return False


def _process_like_classes(
    effects: ModuleEffects, config: AnalysisConfig
) -> Set[str]:
    """Classes that participate in message dispatch: they define handler
    methods (``on_*`` / ``handle_*``) or bind an r-deliver dispatch
    table. Only their state is *process* state — helper containers
    (delivery queues, spec recorders) own their attributes outright and
    are reached exclusively from handler context."""
    out: Set[str] = set()
    dispatch = set(config.dispatch_attrs)
    for class_name, methods in effects.by_class.items():
        if any(_is_handler(name, config) for name in methods):
            out.add(class_name)
            continue
        if any(dispatch & info.direct.writes for info in methods.values()):
            out.add(class_name)
    return out


class _RaceRule(Rule):
    """Shared scoping: RACE rules run over the configured race scope."""

    def applies_to(self, module: str, config: AnalysisConfig) -> bool:
        return in_scope(module, config.race_scope)


@register
class Race201SharedStateOutsideScheduler(_RaceRule):
    """Shared protocol state must only be mutated from scheduler context.

    A *public* method (no leading underscore) of a process class that is
    neither a handler (``on_*`` / ``handle_*``) nor a reviewed scheduler
    entry point (``AnalysisConfig.scheduler_context_api``), yet
    transitively writes one of the shared protocol attributes, is a
    latent race once handlers run on a real event loop: nothing stops an
    application thread from calling it mid-handler. Private helpers are
    exempt — they are only reachable *from* handler context.
    """

    rule_id = "RACE201"
    title = "shared protocol state mutated outside scheduler/handler context"

    def check(self, mod: ModuleInfo, config: AnalysisConfig) -> Iterator[Finding]:
        shared = set(config.race_shared_attrs)
        effects = compute_module_effects(mod, config)
        process_classes = _process_like_classes(effects, config)
        for info in effects.functions.values():
            if info.class_name not in process_classes:
                continue
            method = info.qualname.rsplit(".", 1)[-1]
            if method.startswith("_") or _is_handler(method, config):
                continue
            if config.is_scheduler_context(mod.module, info.class_name, method):
                continue
            written = sorted(shared & info.effects.writes)
            if written:
                yield self.finding(
                    mod,
                    info.node,
                    f"public method {method!r} mutates shared protocol state "
                    f"({', '.join(written)}) outside scheduler/handler context; "
                    "make it a handler, post it onto the scheduler, or review "
                    "it into scheduler_context_api",
                    context=info.qualname,
                )


class _SentState:
    """Lattice element of the RACE202 may-have-sent analysis."""

    __slots__ = ("sent",)

    def __init__(self, sent: bool) -> None:
        self.sent = sent

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SentState) and other.sent == self.sent

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(self.sent)


class _SentAnalysis(ForwardAnalysis[_SentState]):
    def __init__(
        self, config: AnalysisConfig, effects: ModuleEffects, class_name: str
    ) -> None:
        self.config = config
        self.effects = effects
        self.class_name = class_name

    def initial(self) -> _SentState:
        return _SentState(False)

    def bottom(self) -> _SentState:
        return _SentState(False)

    def join(self, a: _SentState, b: _SentState) -> _SentState:
        return _SentState(a.sent or b.sent)

    def transfer(self, entry: CFGEntry, state: _SentState) -> _SentState:
        if state.sent:
            return state
        for call in _entry_calls(entry):
            if _call_sends(call, self.config, self.effects, self.class_name):
                return _SentState(True)
        return state


@register
class Race202WriteAfterSend(_RaceRule):
    """Protocol variables must not change after a send on the same path.

    The pseudocode's emissions always capture already-final state (the
    ack of line 42 carries the clock it was stamped with). If a path
    sends and *then* mutates ``clock`` / ``e_cur`` / ``e_prom``, the
    emitted message and the sender's state can diverge whenever the
    continuation is delayed, interleaved, or lost to a crash. Only
    run-to-completion handlers (both backends today) make the reviewed
    standing-proposal sites safe.
    """

    rule_id = "RACE202"
    title = "protocol variable mutated after a send on the same path"

    def check(self, mod: ModuleInfo, config: AnalysisConfig) -> Iterator[Finding]:
        protocol_attrs = set(PROTOCOL_VARS)
        effects = compute_module_effects(mod, config)
        findings: List[Finding] = []
        for info in effects.functions.values():
            if info.class_name is None:
                continue
            class_name = info.class_name
            analysis = _SentAnalysis(config, effects, class_name)
            cfg = build_cfg(info.node)

            def visit(entry: CFGEntry, state: _SentState) -> None:
                if not state.sent:
                    return
                hits: Dict[str, ast.AST] = {}
                for attr, node in _store_targets(entry):
                    if attr in protocol_attrs:
                        hits.setdefault(attr, node)
                for call in _entry_calls(entry):
                    written = _call_writes(call, config, effects, class_name)
                    for attr in sorted(written & protocol_attrs):
                        hits.setdefault(attr, call)
                for attr in sorted(hits):
                    findings.append(
                        self.finding(
                            mod,
                            hits[attr],
                            f"{attr!r} mutated after a send on the same path; "
                            "emitted messages must carry final state — mutate "
                            "first, send last",
                            context=info.qualname,
                        )
                    )

            analyze(cfg, analysis, visit)
        return iter(findings)


#: RACE203 per-local provenance values.
_FRESH = "fresh"  # holds a current copy of an epoch variable
_STALE = "stale"  # copy taken before a suspension point


class _EpochState:
    """Map of local name -> provenance; absent locals are unrelated."""

    __slots__ = ("locals",)

    def __init__(self, values: Dict[str, str]) -> None:
        self.locals = values

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _EpochState) and other.locals == self.locals

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(tuple(sorted(self.locals.items())))


class _EpochAnalysis(ForwardAnalysis[_EpochState]):
    def __init__(self, config: AnalysisConfig) -> None:
        self.guard_attrs = set(config.epoch_guard_attrs)

    def initial(self) -> _EpochState:
        return _EpochState({})

    def bottom(self) -> _EpochState:
        return _EpochState({})

    def join(self, a: _EpochState, b: _EpochState) -> _EpochState:
        merged = dict(a.locals)
        for name, value in b.locals.items():
            if merged.get(name) == _STALE or value == _STALE:
                merged[name] = _STALE
            else:
                merged[name] = value
        return _EpochState(merged)

    def _suspends(self, entry: CFGEntry) -> bool:
        return any(
            isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom))
            for node in iter_child_expressions(entry)
        )

    def _captures(self, value: ast.expr) -> bool:
        attr = _self_attr(value)
        return attr is not None and attr in self.guard_attrs

    def _rereads(self, entry: CFGEntry) -> bool:
        return any(
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.guard_attrs
            for node in iter_child_expressions(entry)
        )

    def transfer(self, entry: CFGEntry, state: _EpochState) -> _EpochState:
        values = dict(state.locals)
        if isinstance(entry, ast.Assign) and len(entry.targets) == 1:
            target = entry.targets[0]
            if isinstance(target, ast.Name):
                if self._captures(entry.value):
                    values[target.id] = _FRESH
                else:
                    values.pop(target.id, None)
        elif isinstance(entry, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(entry.target, ast.Name):
                values.pop(entry.target.id, None)
        elif isinstance(entry, (ast.For, ast.AsyncFor)):
            if isinstance(entry.target, ast.Name):
                values.pop(entry.target.id, None)
        # A fresh read of the attribute re-validates cached copies for
        # everything downstream (the ``if epoch != self.e_cur: return``
        # guard idiom) — copies go fresh first, stale again if the same
        # statement also suspends.
        if self._rereads(entry):
            values = {
                name: (_FRESH if v == _STALE else v) for name, v in values.items()
            }
        if self._suspends(entry):
            values = {name: _STALE for name in values}
        return _EpochState(values)


@register
class Race203StaleEpochRead(_RaceRule):
    """Epoch reads must be re-validated after a suspension point.

    A local copy of ``self.e_cur`` / ``self.e_prom`` taken before an
    ``await``/``yield`` may be stale afterwards (Algorithm 3 can advance
    the epoch while the coroutine is parked). Any use of the stale copy
    fires — except in a statement that also re-reads the attribute,
    which is exactly the ``if cached != self.e_cur: return`` /
    ``epoch = self.e_cur`` re-validation idiom.
    """

    rule_id = "RACE203"
    title = "epoch variable read across a suspension point without re-validation"

    def check(self, mod: ModuleInfo, config: AnalysisConfig) -> Iterator[Finding]:
        guard_attrs = set(config.epoch_guard_attrs)
        findings: List[Finding] = []
        for qualname, node, _class_name in iter_functions(mod.tree):
            if not self._may_suspend(node):
                continue
            analysis = _EpochAnalysis(config)
            cfg = build_cfg(node)

            def visit(entry: CFGEntry, state: _EpochState) -> None:
                stale = {
                    name for name, v in state.locals.items() if v == _STALE
                }
                if not stale:
                    return
                nodes = iter_child_expressions(entry)
                revalidates = any(
                    (attr := _self_attr(n)) is not None and attr in guard_attrs
                    for n in nodes
                )
                if revalidates:
                    return
                for n in nodes:
                    if (
                        isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)
                        and n.id in stale
                    ):
                        findings.append(
                            self.finding(
                                mod,
                                n,
                                f"{n.id!r} caches an epoch variable from before "
                                "a suspension point; re-read self.e_cur/"
                                "self.e_prom after resuming (or compare against "
                                "a fresh read) before acting on it",
                                context=qualname,
                            )
                        )

            analyze(cfg, analysis, visit)
        return iter(findings)

    @staticmethod
    def _may_suspend(node: FunctionNode) -> bool:
        """Cheap pre-filter: only functions containing a suspension
        point can go stale."""
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Await, ast.Yield, ast.YieldFrom)):
                return True
        return False
