"""Determinism & scheduler-context static analysis.

A custom AST lint pass enforcing the repository's reproducibility policy
(see DESIGN.md §6 and §10). Each rule family stays only while a planted
bug or a reviewed exemption shows it earns its keep (the keep-list in
DESIGN.md §6):

* **DET0xx** — no ambient randomness or wall-clock reads on the
  simulated event path; no unsorted set iteration where messages are
  emitted; no ordering by object identity; no float ``==`` on simulated
  timestamps.
* **RACE2xx** — shared protocol state is mutated only from handler
  context; the protocol variables are final before a send (the
  standing-proposal sites are the reviewed exceptions); epoch reads are
  re-validated after a suspension point.

Run it with ``python -m repro.analysis src/repro``. The pass is pure
stdlib and is itself part of the tier-1 test suite (``tests/analysis/``):
every rule has known-good/known-bad fixtures, a bug planted in the real
source, and the shipped tree must analyse clean.
"""

from .base import RULES, ContextVisitor, Finding, ModuleInfo, Rule, register
from .config import DEFAULT_CONFIG, AnalysisConfig

# Importing the rule modules populates the registry.
from . import det_rules as _det_rules  # noqa: F401
from . import race_rules as _race_rules  # noqa: F401

from .cli import main
from .engine import AnalysisError, analyze_module, analyze_paths, iter_python_files, load_module

__all__ = [
    "AnalysisConfig",
    "AnalysisError",
    "ContextVisitor",
    "DEFAULT_CONFIG",
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
