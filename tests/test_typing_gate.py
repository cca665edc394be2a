"""Scoped ``mypy --strict`` gate.

The paper-facing packages (``repro.core``, ``repro.verify``), the
simulation substrate (``repro.sim`` — with ``repro.core`` it forms the
hot core, DESIGN.md §9) and ``repro.chaos`` must type-check under
``--strict``; pyproject.toml relaxes nothing inside that scope and silences everything outside it.
Skips when mypy is not installed (the container image does not bake it
in); the CI ``typing`` job installs mypy and runs this gate for real.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("mypy")

REPO_ROOT = Path(__file__).resolve().parents[1]

MYPY_SCOPE = [
    "src/repro/core",
    "src/repro/sim",
    "src/repro/verify",
    "src/repro/chaos",
]


def test_scoped_strict_mypy_passes():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", *MYPY_SCOPE],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
