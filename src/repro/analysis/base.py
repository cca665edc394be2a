"""Framework primitives for the repro static-analysis pass.

The pass is a set of small AST rules, each checking one determinism
hazard that the goldens could only catch after the fact — or not at
all, when the hazard happens to be latent on the tested schedules.
Rules are registered in a module-level registry keyed by rule id
(``DET0xx``) and run by :mod:`repro.analysis.engine` over parsed source
modules; a rule yields :class:`Finding` objects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Type


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: ``module::qualname`` of the enclosing scope.
    context: str

    def format(self) -> str:
        """Human-readable one-liner (``path:line:col: RULE msg``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class ModuleInfo:
    """A parsed source module handed to every rule."""

    path: str
    module: str  # dotted module name, e.g. "repro.core.process"
    tree: ast.Module
    source: str


def in_scope(module: str, prefixes: Iterable[str]) -> bool:
    """True when ``module`` is one of ``prefixes`` or inside one."""
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class Rule:
    """Base class for all analysis rules.

    Subclasses set the class attributes and implement :meth:`check`;
    each family narrows :meth:`applies_to` to its scope.
    """

    rule_id: str = ""
    title: str = ""

    def applies_to(self, module: str) -> bool:
        """True when ``module`` falls inside this rule's scope."""
        return True

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        """Yield every violation of this rule in ``mod``."""
        raise NotImplementedError

    def finding(
        self,
        mod: ModuleInfo,
        node: ast.AST,
        message: str,
        context: str = "",
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            rule=self.rule_id,
            path=mod.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            context=f"{mod.module}::{context}" if context else mod.module,
        )


#: Global rule registry, keyed by rule id. Populated by :func:`register`.
RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule."""
    rule = cls()
    if not rule.rule_id:
        raise ValueError(f"rule class {cls.__name__} has no rule_id")
    if rule.rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    RULES[rule.rule_id] = rule
    return cls


class ContextVisitor(ast.NodeVisitor):
    """Node visitor tracking the enclosing class/function qualname.

    Rules subclass this to report the scope a violation occurred in
    (``module::qualname`` strings built from :attr:`context`).
    """

    def __init__(self) -> None:
        self._stack: List[str] = []

    @property
    def context(self) -> str:
        return ".".join(self._stack)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()
