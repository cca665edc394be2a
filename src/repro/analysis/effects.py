"""Per-function effect signatures over protocol state.

The paper's correctness argument (§2.2, Algorithms 1–3) assigns every
mutation of the protocol variables to a specific pseudocode line; this
module computes what the RACE rules need to check the scheduler-context
discipline around those mutations: for every function in a module,
*which* ``self`` attributes it writes and whether it emits messages.

Summaries are transitive over the intra-class (and intra-module
free-function) call graph: ``_on_ack`` calling ``self._propose``
inherits ``_propose``'s write of ``clock`` and ``_send_ack``'s send
effect. Calls that cannot be resolved inside the module (methods of
other objects, imported functions) contribute nothing — the RACE rules
are scoped so that every effect they reason about is produced in the
module that owns the state.

Writes are detected through every mutation shape the protocol core
uses: plain/augmented/annotated assignment to ``self.x``, item
assignment/deletion ``self.x[k]``, slice deletion ``del self.x[:n]``,
mutator method calls ``self.x.append(...)`` (see
``AnalysisConfig.mutator_methods``) and mutating free functions applied
to an attribute (``heapq.heappush(self.x, ...)``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from .base import ModuleInfo
from .cfg import FunctionNode, iter_functions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .config import AnalysisConfig


@dataclass(frozen=True)
class Effects:
    """The effect signature of one function (direct or transitive)."""

    #: ``self`` attributes written (any mutation shape).
    writes: FrozenSet[str]
    #: calls an emission primitive (``AnalysisConfig.emission_calls``).
    sends: bool

    def union(self, other: "Effects") -> "Effects":
        return Effects(
            writes=self.writes | other.writes, sends=self.sends or other.sends
        )


EMPTY_EFFECTS = Effects(frozenset(), False)


@dataclass
class FunctionEffects:
    """Summary record for one function in a module."""

    qualname: str
    node: FunctionNode
    class_name: Optional[str]
    direct: Effects
    #: names invoked as ``self.<name>(…)`` (resolved within the class).
    self_calls: FrozenSet[str]
    #: bare names invoked as ``<name>(…)`` (resolved to free functions).
    local_calls: FrozenSet[str]
    #: transitive effects after the call-summary fixpoint.
    effects: Effects


class ModuleEffects:
    """All function summaries of one module, call-graph closed."""

    def __init__(self, functions: Dict[str, FunctionEffects]) -> None:
        self.functions = functions
        self.by_class: Dict[str, Dict[str, FunctionEffects]] = {}
        for info in functions.values():
            if info.class_name is not None:
                method = info.qualname.rsplit(".", 1)[-1]
                self.by_class.setdefault(info.class_name, {})[method] = info

    def method(self, class_name: str, name: str) -> Optional[FunctionEffects]:
        return self.by_class.get(class_name, {}).get(name)

    def call_effects(self, caller: FunctionEffects, name: str) -> Effects:
        """Transitive effects of ``self.<name>()`` / ``<name>()`` as seen
        from ``caller``; empty when the callee is not resolvable."""
        if caller.class_name is not None:
            callee = self.method(caller.class_name, name)
            if callee is not None:
                return callee.effects
        free = self.functions.get(name)
        if free is not None and free.class_name is None:
            return free.effects
        return EMPTY_EFFECTS


def _attr_chain(node: ast.expr) -> Optional[List[str]]:
    """``self.a.b`` -> ["self", "a", "b"]; None for non-name-rooted."""
    parts: List[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        parts.reverse()
        return parts
    return None


class _EffectVisitor(ast.NodeVisitor):
    """Direct (non-transitive) effects of one function body."""

    def __init__(self, config: "AnalysisConfig") -> None:
        self.config = config
        self.writes: Set[str] = set()
        self.sends = False
        self.self_calls: Set[str] = set()
        self.local_calls: Set[str] = set()

    # -- nested scopes are opaque --------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    # -- stores --------------------------------------------------------

    def _record_store(self, target: ast.expr) -> None:
        # Unwrap item/slice stores: ``self.x[k] = v`` mutates ``x``.
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt)
            return
        if isinstance(target, ast.Starred):
            self._record_store(target.value)
            return
        self._record_self_attr(target)

    def _record_self_attr(self, node: ast.expr) -> None:
        """Record ``self.x`` as a write of ``x``. Only bare-self
        attributes are this object's state; stores through any other
        receiver belong to another object."""
        chain = _attr_chain(node)
        if chain is not None and len(chain) == 2 and chain[0] == "self":
            self.writes.add(chain[1])

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_store(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_store(target)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            method = func.attr
            if method in self.config.emission_calls:
                self.sends = True
            if chain is not None and chain[0] == "self":
                if len(chain) == 2:
                    self.self_calls.add(method)
                elif len(chain) == 3 and method in self.config.mutator_methods:
                    # ``self.x.append(…)`` mutates ``self.x``.
                    self.writes.add(chain[1])
            # Mutating free functions reached via module attribute
            # (``heapq.heappush(self.x, …)``).
            if method in self.config.mutating_funcs and node.args:
                self._record_self_attr(node.args[0])
        elif isinstance(func, ast.Name):
            if func.id in self.config.emission_calls:
                self.sends = True
            if func.id in self.config.mutating_funcs and node.args:
                self._record_self_attr(node.args[0])
            self.local_calls.add(func.id)
        self.generic_visit(node)


def _direct_effects(
    fn: FunctionNode, config: "AnalysisConfig"
) -> Tuple[Effects, FrozenSet[str], FrozenSet[str]]:
    visitor = _EffectVisitor(config)
    for stmt in fn.body:
        visitor.visit(stmt)
    effects = Effects(writes=frozenset(visitor.writes), sends=visitor.sends)
    return effects, frozenset(visitor.self_calls), frozenset(visitor.local_calls)


#: Memo of the last computed modules, keyed by tree identity. The engine
#: runs RACE201 and RACE202 over the same parsed module; one summary
#: computation serves both. Bounded: entries are evicted FIFO.
_MEMO: Dict[int, Tuple[ast.Module, int, ModuleEffects]] = {}
_MEMO_LIMIT = 8


def compute_module_effects(
    mod: ModuleInfo, config: "AnalysisConfig"
) -> ModuleEffects:
    """Call-graph-closed effect summaries for every function in ``mod``."""
    memo_key = id(mod.tree)
    cached = _MEMO.get(memo_key)
    if cached is not None and cached[0] is mod.tree and cached[1] == id(config):
        return cached[2]

    functions: Dict[str, FunctionEffects] = {}
    for qualname, node, class_name in iter_functions(mod.tree):
        direct, self_calls, local_calls = _direct_effects(node, config)
        functions[qualname] = FunctionEffects(
            qualname=qualname,
            node=node,
            class_name=class_name,
            direct=direct,
            self_calls=self_calls,
            local_calls=local_calls,
            effects=direct,
        )

    module = ModuleEffects(functions)

    # Transitive closure over resolvable calls: iterate to fixpoint.
    # Effects only grow and the universe of attribute names is finite,
    # so this terminates in call-graph-depth passes.
    changed = True
    while changed:
        changed = False
        for info in functions.values():
            acc = info.direct
            for name in sorted(info.self_calls):
                acc = acc.union(module.call_effects(info, name))
            for name in sorted(info.local_calls):
                callee = functions.get(name)
                if callee is not None and callee.class_name is None:
                    acc = acc.union(callee.effects)
            if acc != info.effects:
                info.effects = acc
                changed = True

    while len(_MEMO) >= _MEMO_LIMIT:
        _MEMO.pop(next(iter(_MEMO)))
    _MEMO[memo_key] = (mod.tree, id(config), module)
    return module
