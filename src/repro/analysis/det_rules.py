"""Determinism rules (DET0xx).

The simulation is a pure function of the root seed: every benchmark
figure and every golden in ``tests/harness/test_determinism_golden.py``
relies on it. These rules reject the constructs that break that purity
at review time instead of test time:

* **DET001** — ambient nondeterminism: the process-global ``random``
  functions, wall-clock reads (``time.time`` and friends,
  ``datetime.now``), ``uuid`` / ``secrets`` / ``os.urandom``. Simulated
  components must draw randomness from :func:`repro.sim.rng.child_rng`
  and read time from ``Scheduler.now``.
* **DET002** — iteration over a bare ``set`` (or ``dict.keys()``) inside
  a function that emits messages or schedules events, without an
  explicit ``sorted(...)``. Set order is an implementation detail of the
  interpreter; feeding it into the event schedule makes run-to-run
  divergence possible.
* **DET003** — ordering by ``id()`` or the default ``hash()``: both
  vary across interpreter runs.
* **DET004** — ``==`` / ``!=`` on simulated wall-clock floats
  (``Scheduler.now`` and friends): float timestamps accumulate rounding,
  exact equality silently turns into schedule-dependent behaviour.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple, Union

from .base import ContextVisitor, Finding, ModuleInfo, Rule, in_scope, register
from .cfg import CFGEntry, build_cfg, iter_child_expressions, iter_functions
from .config import (
    DET_SCOPE,
    EMISSION_CALLS,
    FLOAT_TIME_ATTRS,
    FLOAT_TIME_NAMES,
    KNOWN_SET_ATTRS,
)
from .dataflow import ForwardAnalysis, analyze

#: Wall-clock functions of the ``time`` module.
_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)

#: Wall-clock constructors of ``datetime`` / ``date``.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
_DATETIME_OWNERS = frozenset({"datetime", "date"})

#: Modules whose import alone is a violation in determinism scope.
_FORBIDDEN_IMPORTS = frozenset({"uuid", "secrets"})


def _call_name(func: ast.expr) -> Tuple[Optional[str], str]:
    """Split a call's func into ``(owner, attr)`` for simple shapes."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id, func.attr
    if isinstance(func, ast.Name):
        return None, func.id
    return None, ""


class _Det001Visitor(ContextVisitor):
    def __init__(self, rule: Rule, mod: ModuleInfo) -> None:
        super().__init__()
        self.rule = rule
        self.mod = mod
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.finding(self.mod, node, message, self.context))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            if root in _FORBIDDEN_IMPORTS:
                self._flag(
                    node,
                    f"import of nondeterministic module '{alias.name}' in "
                    f"determinism scope — identifiers must be derived from "
                    f"the run seed (see repro.sim.rng)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".", 1)[0]
        if root in _FORBIDDEN_IMPORTS:
            self._flag(
                node,
                f"import from nondeterministic module '{node.module}' in "
                f"determinism scope",
            )
        elif root == "random":
            for alias in node.names:
                if alias.name != "Random":
                    self._flag(
                        node,
                        f"'from random import {alias.name}' pulls in the "
                        f"process-global RNG — use repro.sim.rng.child_rng",
                    )
        elif root == "time":
            for alias in node.names:
                if alias.name in _TIME_FUNCS:
                    self._flag(
                        node,
                        f"'from time import {alias.name}' reads the wall "
                        f"clock — simulated components must use Scheduler.now",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        owner, attr = _call_name(node.func)
        if owner == "random" and attr != "Random":
            # Module-level random.* functions share one ambient RNG;
            # random.Random(seed) with a derived seed is the sanctioned
            # escape hatch (repro.sim.rng builds exactly that).
            self._flag(
                node,
                f"call to random.{attr}() uses the process-global RNG — "
                f"draw from a repro.sim.rng child RNG instead",
            )
        elif owner == "time" and attr in _TIME_FUNCS:
            self._flag(
                node,
                f"call to time.{attr}() reads the wall clock — simulated "
                f"components must use Scheduler.now",
            )
        elif owner in _DATETIME_OWNERS and attr in _DATETIME_FUNCS:
            self._flag(
                node,
                f"call to {owner}.{attr}() reads the wall clock — simulated "
                f"components must use Scheduler.now",
            )
        elif owner == "os" and attr == "urandom":
            self._flag(node, "os.urandom() is nondeterministic entropy")
        self.generic_visit(node)


class _DetRule(Rule):
    """Shared scoping: DET rules run over the determinism scope."""

    def applies_to(self, module: str) -> bool:
        return in_scope(module, DET_SCOPE)


@register
class NoAmbientNondeterminism(_DetRule):
    rule_id = "DET001"
    title = "no ambient randomness or wall-clock reads on the event path"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        visitor = _Det001Visitor(self, mod)
        visitor.visit(mod.tree)
        return iter(visitor.findings)


# ----------------------------------------------------------------------
# DET002 — unsorted set iteration on emission paths
# ----------------------------------------------------------------------


def _is_set_annotation(node: ast.expr) -> bool:
    """True for ``Set[...]`` / ``FrozenSet[...]`` / ``set`` / etc."""
    target = node.value if isinstance(node, ast.Subscript) else node
    name = ""
    if isinstance(target, ast.Name):
        name = target.id
    elif isinstance(target, ast.Attribute):
        name = target.attr
    return name in {"Set", "FrozenSet", "set", "frozenset", "AbstractSet", "MutableSet"}


def _is_set_expr(node: ast.expr) -> bool:
    """True for expressions that syntactically construct a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


class _SetTypeCollector(ast.NodeVisitor):
    """Collects names/attributes inferred set-typed in one module."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.attrs: Set[str] = set()

    def _record_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.attrs.add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value):
            for target in node.targets:
                self._record_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _is_set_annotation(node.annotation) or (
            node.value is not None and _is_set_expr(node.value)
        ):
            self._record_target(node.target)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.annotation is not None and _is_set_annotation(node.annotation):
            self.names.add(node.arg)
        self.generic_visit(node)


def _function_emits(fn: Union[ast.FunctionDef, ast.AsyncFunctionDef], emission: Set[str]) -> bool:
    """True when the function body directly calls an emission primitive."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            _, attr = _call_name(node.func)
            if attr in emission:
                return True
    return False


#: Ordering provenance a local can carry through the dataflow.
_ORDERED = "ordered"  # value proven sorted (flows through list/tuple/…)
_UNORDERED = "unordered"  # value carries set contents in set order


class _ProvState:
    """Map of local name -> ordering provenance; absent = unknown."""

    __slots__ = ("locals",)

    def __init__(self, values: "dict[str, str]") -> None:
        self.locals = values

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ProvState) and other.locals == self.locals

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(tuple(sorted(self.locals.items())))


class _ProvAnalysis(ForwardAnalysis[_ProvState]):
    """Forward sorted/unsorted provenance through local assignments.

    ``x = sorted(self.pending)`` proves ``x`` ordered on every path it
    dominates; ``x = self.pending`` marks ``x`` as carrying raw set
    contents. The join is may-unordered: a name unordered on *any*
    incoming path stays unordered, and ordered-ness survives a merge
    only when proven on every path.
    """

    def __init__(self, set_names: Set[str], set_attrs: Set[str]) -> None:
        self.set_names = set_names
        self.set_attrs = set_attrs

    def initial(self) -> _ProvState:
        return _ProvState({})

    def bottom(self) -> _ProvState:
        return _ProvState({})

    def join(self, a: _ProvState, b: _ProvState) -> _ProvState:
        merged: "dict[str, str]" = {}
        for name in set(a.locals) | set(b.locals):
            va, vb = a.locals.get(name), b.locals.get(name)
            if va == _UNORDERED or vb == _UNORDERED:
                merged[name] = _UNORDERED
            elif va == _ORDERED and vb == _ORDERED:
                merged[name] = _ORDERED
            # ordered-on-one-path-only degrades to unknown (absent).
        return _ProvState(merged)

    def provenance(self, expr: ast.expr, state: _ProvState) -> Optional[str]:
        """Ordering provenance of a value expression, or None (unknown)."""
        if isinstance(expr, ast.Name):
            known = state.locals.get(expr.id)
            if known is not None:
                return known
            return _UNORDERED if expr.id in self.set_names else None
        if isinstance(expr, ast.Attribute):
            return _UNORDERED if expr.attr in self.set_attrs else None
        if _is_set_expr(expr):
            return _UNORDERED
        if isinstance(expr, ast.Call):
            owner, attr = _call_name(expr.func)
            if owner is None and attr == "sorted":
                return _ORDERED
            if owner is None and attr in {"list", "tuple", "iter", "reversed"}:
                # Order-preserving wrappers carry their argument's
                # provenance (reversed of sorted is still deterministic).
                if expr.args:
                    return self.provenance(expr.args[0], state)
        return None

    def _kill(self, target: ast.expr, values: "dict[str, str]") -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                values.pop(node.id, None)

    def transfer(self, entry: CFGEntry, state: _ProvState) -> _ProvState:
        values = dict(state.locals)
        if isinstance(entry, ast.Assign):
            prov = self.provenance(entry.value, state)
            for target in entry.targets:
                if isinstance(target, ast.Name):
                    if prov is None:
                        values.pop(target.id, None)
                    else:
                        values[target.id] = prov
                else:
                    self._kill(target, values)
        elif isinstance(entry, ast.AnnAssign):
            if isinstance(entry.target, ast.Name):
                if _is_set_annotation(entry.annotation):
                    values[entry.target.id] = _UNORDERED
                elif entry.value is not None:
                    prov = self.provenance(entry.value, state)
                    if prov is None:
                        values.pop(entry.target.id, None)
                    else:
                        values[entry.target.id] = prov
        elif isinstance(entry, ast.AugAssign):
            self._kill(entry.target, values)
        elif isinstance(entry, (ast.For, ast.AsyncFor)):
            # Loop targets hold *elements*, not the collection.
            self._kill(entry.target, values)
        return _ProvState(values)


def _unordered_reason(
    iter_node: ast.expr, analysis: _ProvAnalysis, state: _ProvState
) -> Optional[str]:
    """Why iterating ``iter_node`` is order-hazardous, or None."""
    if isinstance(iter_node, ast.Name):
        known = state.locals.get(iter_node.id)
        if known == _ORDERED:
            return None
        if known == _UNORDERED:
            return f"local '{iter_node.id}' carrying set contents"
        if iter_node.id in analysis.set_names:
            return f"set-typed name '{iter_node.id}'"
        return None
    if isinstance(iter_node, ast.Attribute) and iter_node.attr in analysis.set_attrs:
        return f"set-typed attribute '.{iter_node.attr}'"
    if _is_set_expr(iter_node):
        return "set expression"
    if isinstance(iter_node, ast.Call):
        owner, attr = _call_name(iter_node.func)
        if attr == "keys" and owner is not None:
            # dict.keys() on the emission path: flagged so the
            # ordering contract (insertion order) is made explicit
            # with sorted() rather than relied on silently.
            return "dict .keys() view"
        if owner is None and attr in {"list", "tuple", "iter"} and iter_node.args:
            return _unordered_reason(iter_node.args[0], analysis, state)
    return None


@register
class NoUnsortedSetIterationOnEmissionPaths(_DetRule):
    """Flow-sensitive DET002: iteration order hazards on emission paths.

    Runs the ordered-provenance dataflow over every function in an
    emission context, so ``x = sorted(self.pending)`` followed by
    ``for m in x`` is proven clean, while
    ``x = self.pending`` followed by ``for m in x`` is caught even
    though ``x`` itself is never annotated as a set.
    """

    rule_id = "DET002"
    title = "no unsorted set/dict-keys iteration where messages are emitted"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        collector = _SetTypeCollector()
        collector.visit(mod.tree)
        set_attrs = collector.attrs | set(KNOWN_SET_ATTRS)
        emission = set(EMISSION_CALLS)
        findings: List[Finding] = []

        functions = iter_functions(mod.tree)
        # A function is in emission context when its own body (incl.
        # nested defs — ast.walk) emits, or any enclosing function does.
        emitting = {qual for qual, node in functions if _function_emits(node, emission)}

        for qualname, node in functions:
            active = qualname in emitting or any(
                qualname.startswith(parent + ".") for parent in emitting
            )
            if not active:
                continue
            analysis = _ProvAnalysis(collector.names, set_attrs)
            cfg = build_cfg(node)

            def visit(entry: CFGEntry, state: _ProvState) -> None:
                sites: List[Tuple[ast.expr, ast.AST]] = []
                if isinstance(entry, (ast.For, ast.AsyncFor)):
                    sites.append((entry.iter, entry))
                for sub in iter_child_expressions(entry):
                    if isinstance(
                        sub,
                        (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
                    ):
                        for gen in sub.generators:
                            sites.append((gen.iter, sub))
                for iter_node, anchor in sites:
                    # sorted(...) is the sanctioned ordering fence.
                    if isinstance(iter_node, ast.Call):
                        owner, attr = _call_name(iter_node.func)
                        if owner is None and attr == "sorted":
                            continue
                    reason = _unordered_reason(iter_node, analysis, state)
                    if reason is not None:
                        findings.append(
                            self.finding(
                                mod,
                                anchor,
                                f"iteration over {reason} in an emission "
                                f"context without sorted(...) — set order may "
                                f"leak into the event schedule",
                                qualname,
                            )
                        )

            analyze(cfg, analysis, visit)
        return iter(findings)


# ----------------------------------------------------------------------
# DET003 — ordering by id() / hash()
# ----------------------------------------------------------------------


def _references_identity(node: ast.expr) -> Optional[str]:
    """Return 'id' / 'hash' when the key expression uses either."""
    if isinstance(node, ast.Name) and node.id in {"id", "hash"}:
        return node.id
    if isinstance(node, ast.Lambda):
        for sub in ast.walk(node.body):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in {"id", "hash"}
            ):
                return sub.func.id
    return None


class _Det003Visitor(ContextVisitor):
    def __init__(self, rule: Rule, mod: ModuleInfo) -> None:
        super().__init__()
        self.rule = rule
        self.mod = mod
        self.findings: List[Finding] = []

    def visit_Call(self, node: ast.Call) -> None:
        owner, attr = _call_name(node.func)
        is_order_call = (owner is None and attr in {"sorted", "min", "max"}) or (
            attr == "sort" and owner is not None
        )
        if is_order_call:
            for kw in node.keywords:
                if kw.arg == "key":
                    ident = _references_identity(kw.value)
                    if ident is not None:
                        self.findings.append(
                            self.rule.finding(
                                self.mod,
                                node,
                                f"ordering by {ident}() is interpreter-run "
                                f"dependent — order by a stable protocol key "
                                f"(mid, pid, timestamp)",
                                self.context,
                            )
                        )
        self.generic_visit(node)


@register
class NoIdentityOrdering(_DetRule):
    rule_id = "DET003"
    title = "no ordering by id() or default hash()"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        visitor = _Det003Visitor(self, mod)
        visitor.visit(mod.tree)
        return iter(visitor.findings)


# ----------------------------------------------------------------------
# DET004 — float equality on simulated timestamps
# ----------------------------------------------------------------------


class _Det004Visitor(ContextVisitor):
    def __init__(
        self,
        rule: Rule,
        mod: ModuleInfo,
        time_attrs: Set[str],
        time_names: Set[str],
    ) -> None:
        super().__init__()
        self.rule = rule
        self.mod = mod
        self.time_attrs = time_attrs
        self.time_names = time_names
        self.findings: List[Finding] = []

    def _is_time_operand(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Attribute) and node.attr in self.time_attrs:
            return f".{node.attr}"
        if isinstance(node, ast.Name) and node.id in self.time_names:
            return node.id
        return None

    def visit_Compare(self, node: ast.Compare) -> None:
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if has_eq:
            for operand in [node.left, *node.comparators]:
                name = self._is_time_operand(operand)
                if name is not None:
                    self.findings.append(
                        self.rule.finding(
                            self.mod,
                            node,
                            f"float equality on simulated timestamp '{name}' — "
                            f"compare with <=/>= or an integer logical clock",
                            self.context,
                        )
                    )
                    break
        self.generic_visit(node)


@register
class NoFloatTimestampEquality(_DetRule):
    rule_id = "DET004"
    title = "no ==/!= on simulated wall-clock floats"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        visitor = _Det004Visitor(
            self, mod, set(FLOAT_TIME_ATTRS), set(FLOAT_TIME_NAMES)
        )
        visitor.visit(mod.tree)
        return iter(visitor.findings)
