"""Performance-contract rules (PERF0xx).

Structural constraints the simulator's hot core
(:data:`repro.analysis.config.PERF_SLOTS_SCOPE`, DESIGN.md §9) relies on:

* **PERF001** — every class defined in a hot module declares
  ``__slots__``. Slotted classes are the restructuring that keeps the
  hot path allocation-light under CPython (smaller objects, faster
  attribute loads); an unslotted class silently re-introduces a
  per-instance dict and, worse, an attribute namespace that
  monkey-patching can grow — dynamic behaviour belongs behind a
  declared seam (the transmit interceptors, the probe hooks).

  Exemptions (``NamedTuple`` / ``Enum`` bodies manage their own layout;
  classes that *must* stay dynamic, like the ``SimProcess`` lineage
  whose subclasses add attributes freely, are allowlisted in
  :mod:`repro.analysis.config` with a justification).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, List, Set

from .base import Finding, ModuleInfo, Rule, register

if TYPE_CHECKING:  # pragma: no cover
    from .config import AnalysisConfig

#: Base-class names whose metaclass owns the instance layout; requiring
#: ``__slots__`` on top would be wrong (NamedTuple forbids non-default
#: slots) or pointless (Enum members are class attributes).
_LAYOUT_MANAGING_BASES = frozenset(
    {"NamedTuple", "Enum", "IntEnum", "Flag", "IntFlag", "TypedDict", "Protocol"}
)


def _is_exception_class(names: Set[str]) -> bool:
    """Exception subclasses are exempt: they are never hot (raised once,
    on a safety violation) and BaseException's args machinery does not
    benefit from slots."""
    return any(n.endswith(("Error", "Exception")) for n in names)


def _base_names(cls: ast.ClassDef) -> Set[str]:
    """Terminal names of a class's bases (``typing.NamedTuple`` → ``NamedTuple``)."""
    names: Set[str] = set()
    for base in cls.bases:
        node = base
        # Unwrap subscripts like Generic[T] / Protocol[T].
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
                and stmt.value is not None
            ):
                return True
    return False


def _classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Top-level and nested class definitions, in source order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


@register
class HotClassesDeclareSlots(Rule):
    rule_id = "PERF001"
    title = "classes in hot modules declare __slots__"

    def applies_to(self, module: str, config: "AnalysisConfig") -> bool:
        scope = config.scope_override.get(self.rule_id, config.perf_slots_scope)
        return module in scope

    def check(self, mod: ModuleInfo, config: "AnalysisConfig") -> Iterator[Finding]:
        findings: List[Finding] = []
        for cls in _classes(mod.tree):
            if _declares_slots(cls):
                continue
            bases = _base_names(cls)
            if bases & _LAYOUT_MANAGING_BASES or _is_exception_class(bases):
                continue
            findings.append(
                self.finding(
                    mod,
                    cls,
                    f"class {cls.name} in hot module {mod.module} has no "
                    f"__slots__ — unslotted classes cost a dict per instance "
                    f"on the hot path (allowlist it with a justification if "
                    f"it must stay dynamic)",
                    cls.name,
                )
            )
        return iter(findings)
