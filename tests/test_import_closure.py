"""What each entry point imports, each measured in a fresh interpreter.

A package ``__init__`` re-exports only its own modules' names, so an
entry point loads the modules it runs and no more: a ``repro.net``
node never loads the harness, the verifier or the sim reference run,
and the sim benchmark never loads the experiment sweeps or the cache.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Subpackages a serving ``repro.net`` node runs none of.
NOT_IN_A_NODE = [f"repro.{name}" for name in (
    "harness", "apps", "baselines", "chaos", "verify",
)] + ["repro.net.differential"]


def _loaded(code: str) -> Set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return {m for m in out.split() if m == "repro" or m.startswith("repro.")}


def _under(modules: Set[str], package: str) -> Set[str]:
    return {m for m in modules if m == package or m.startswith(package + ".")}


def test_import_repro_loads_no_subpackage():
    assert _loaded("import repro") == {"repro", "repro._backend"}


@pytest.mark.parametrize(
    "code",
    ["import repro.net.host", "import repro.net.__main__"],
    ids=["host", "node-subcommand"],
)
def test_a_node_loads_no_harness_verifier_or_reference_run(code):
    # ``python -m repro.net node`` imports ``repro.net.__main__`` and then
    # runs ``cmd_node``, which imports nothing more.
    loaded = _loaded(code)
    assert "repro.net.host" in loaded
    assert {m for pkg in NOT_IN_A_NODE for m in _under(loaded, pkg)} == set()


def test_the_sim_bench_loads_no_sweep_machinery():
    loaded = _loaded("import repro.harness.runner, repro.workload.scenarios")
    assert "repro.harness.runner" in loaded
    unwanted = [f"repro.harness.{name}" for name in (
        "experiments", "cache", "parallel", "report", "export", "diagnostics", "steps",
    )] + ["repro.apps"]
    assert {m for pkg in unwanted for m in _under(loaded, pkg)} == set()


#: The README's import lines, pinned so that editing its prose never
#: renames a test id; the two tests below keep this list and the README
#: in step.
README_IMPORTS = [
    "from repro.core import uniform_groups, PrimCastProcess",
    "from repro.harness.cache import ResultCache",
    "from repro.harness.experiments import figure3",
    "from repro.harness.parallel import SweepExecutor",
    "from repro.harness.runner import run_load_point",
    "from repro.harness.steps import build_bare_system",
    "from repro.sim import Scheduler, Network, ConstantLatency, child_rng",
    "from repro.workload.scenarios import wan_colocated_leaders",
]


def _readme_import_lines():
    return set(re.findall(
        r"^\s*(from repro[\w.]* import [^\n(]+)$",
        (ROOT / "README.md").read_text(),
        re.MULTILINE,
    ))


def test_the_readme_has_imports_to_check():
    # Every pinned line is still in the README, so its test checks
    # what the docs say.
    assert set(README_IMPORTS) <= _readme_import_lines()


def test_readme_import_lines_are_pinned():
    assert _readme_import_lines() <= set(README_IMPORTS)


@pytest.mark.parametrize("line", README_IMPORTS)
def test_every_readme_import_line_imports(line):
    # A name the docs import must still be exported where they say.
    assert "repro" in _loaded(line)
