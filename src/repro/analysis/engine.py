"""Analysis driver: file discovery, module naming, rule execution.

The engine turns paths into :class:`~repro.analysis.base.ModuleInfo`
records and runs every registered rule whose scope matches. Findings
come back sorted by ``(path, line, rule)`` so output is stable across
runs and platforms — the analysis tool holds itself to the determinism
policy it enforces.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .base import RULES, Finding, ModuleInfo, Rule


class AnalysisError(Exception):
    """An internal failure of the analysis itself (a rule crashed).

    Distinct from findings: findings are facts about the analysed code,
    an :class:`AnalysisError` is a bug in *this* package. The CLI maps
    it to exit code 2 (vs 1 for findings) and the message names the
    offending file and rule so a CI failure is immediately diagnosable.
    """

    def __init__(self, path: str, rule_id: str, cause: BaseException) -> None:
        self.path = path
        self.rule_id = rule_id
        self.cause = cause
        super().__init__(
            f"internal analysis error in {path} (rule {rule_id}): "
            f"{type(cause).__name__}: {cause}"
        )


def module_name_for(path: Path) -> str:
    """Dotted module name for a source file inside the ``repro`` tree.

    Uses the last ``repro`` path component as the package root (the repo
    keeps its sources under ``src/repro``). Files outside any ``repro``
    directory get a best-effort name from their stem.
    """
    parts = list(path.with_suffix("").parts)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            dotted = ".".join(parts[i:])
            return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted
    return path.stem


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(set(files))


def load_module(path: Path) -> ModuleInfo:
    """Parse one source file into a :class:`ModuleInfo`."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleInfo(
        path=str(path), module=module_name_for(path), tree=tree, source=source
    )


def analyze_module(
    mod: ModuleInfo, rules: Optional[Iterable[Rule]] = None
) -> List[Finding]:
    """Run rules over one parsed module."""
    active = list(rules) if rules is not None else list(RULES.values())
    findings: List[Finding] = []
    for rule in active:
        if not rule.applies_to(mod.module):
            continue
        try:
            findings.extend(rule.check(mod))
        except Exception as exc:
            raise AnalysisError(mod.path, rule.rule_id, exc) from exc
    return findings


def analyze_paths(
    paths: Sequence[Path], rules: Optional[Iterable[Rule]] = None
) -> List[Finding]:
    """Analyse every python file under ``paths``; sorted."""
    active = list(rules) if rules is not None else list(RULES.values())
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(analyze_module(load_module(path), active))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
