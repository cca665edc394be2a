"""Benchmark configuration.

``pytest benchmarks/ -s`` regenerates every table and figure of the
paper's evaluation (§7) at reduced sweep sizes; set ``REPRO_FULL=1`` for
the paper-scale sweeps recorded in EXPERIMENTS.md. Each bench prints the
regenerated rows/series and asserts the paper's claims about them; speed
is measured by ``bench/run.py``, not here.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def full_mode() -> bool:
    """Whether to run paper-scale sweeps (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "0") == "1"
