"""Determinism static analysis.

A custom AST lint pass enforcing the repository's reproducibility policy
(see DESIGN.md §6). A rule family stays only while a planted bug shows
it earns its keep (the keep-list in DESIGN.md §6). The one family left,
**DET0xx**: no ambient randomness or wall-clock reads on the simulated
event path; no unsorted set iteration where messages are emitted; no
ordering by object identity; no float ``==`` on simulated timestamps.

Handler atomicity is not a lint rule: tier-1 tests check it directly
(DESIGN.md §10).

Run it with ``python -m repro.analysis src/repro``. The pass is pure
stdlib and is itself part of the tier-1 test suite (``tests/analysis/``):
every rule has known-good/known-bad fixtures, a bug planted in the real
source, and the shipped tree must analyse clean.
"""

from .base import RULES, ContextVisitor, Finding, ModuleInfo, Rule, register

# Importing the rule module populates the registry.
from . import det_rules as _det_rules  # noqa: F401

from .cli import main
from .engine import AnalysisError, analyze_module, analyze_paths, iter_python_files, load_module

__all__ = [
    "AnalysisError",
    "ContextVisitor",
    "Finding",
    "ModuleInfo",
    "RULES",
    "Rule",
    "analyze_module",
    "analyze_paths",
    "iter_python_files",
    "load_module",
    "main",
    "register",
]
