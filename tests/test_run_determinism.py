"""Same seed, same run, under any hash seed (DESIGN.md §6).

Every output of the simulator must be a function of its seed alone.
This file is both the check and the battery it runs: two fresh
interpreters, one with ``PYTHONHASHSEED=0`` and one with ``=1``, run
the battery concurrently and print one digest per output, and the two
listings must be equal. A loop over a set or dict whose order follows
``hash()`` or ``id()`` on a path that sends, schedules or delivers
shows up here as the first output whose digest differs.

The battery: the ``lan-small``, ``fig3-reduced``, ``fig4-reduced`` and
``fig3-reduced-hc`` chaos cases at seeds 1–12 (each digest covers
every process's ``delivery_log`` and the case's ``CaseResult``), and
one short batched load point per protocol of ``PROTOCOLS`` (every
``delivery_log`` and the ``RunResult``). Run it by hand with::

    PYTHONPATH=src PYTHONHASHSEED=0 python tests/test_run_determinism.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, List

from repro.chaos import explorer
from repro.harness import runner
from repro.workload.scenarios import wan_colocated_leaders

ROOT = Path(__file__).resolve().parent.parent

CHAOS_CASES = [
    (scenario, seed)
    for scenario in ("lan-small", "fig3-reduced", "fig4-reduced", "fig3-reduced-hc")
    for seed in range(1, 13)
]

#: The first line of the battery's output: the iteration order of a set
#: of strings, which must differ between the two interpreters, or they
#: did not run under different hash seeds.
HASH_PROBE = "hash-probe"


def _digest(*parts: Any) -> str:
    text = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _logs(system: Any) -> dict:
    return {pid: proc.delivery_log for pid, proc in sorted(system.processes.items())}


def battery() -> List[str]:
    """One ``"<output> <digest>"`` line per output, after the probe.

    Run it in a fresh interpreter: it rebinds ``build_system`` in the
    explorer and the runner for good."""
    # Keep every system the battery builds, to read its delivery logs.
    build_system = runner.build_system
    built: List[Any] = []

    def recording(*args: Any, **kwargs: Any) -> Any:
        built.append(build_system(*args, **kwargs))
        return built[-1]

    explorer.build_system = recording
    runner.build_system = recording
    lines = [f"{HASH_PROBE} {_digest(list({f'k{i}' for i in range(32)}))}"]
    for scenario, seed in CHAOS_CASES:
        result = explorer.run_case(explorer.CaseSpec(scenario, seed))
        lines.append(f"chaos:{scenario}:{seed} {_digest(result.to_dict(), _logs(built.pop()))}")
    batched = replace(wan_colocated_leaders(), batching_ms=5.0)
    for protocol in runner.PROTOCOLS:
        result = runner.run_load_point(
            protocol, batched, 2, 8, seed=1, warmup_ms=100.0, measure_ms=200.0
        )
        lines.append(f"point:{protocol} {_digest(result.to_dict(), _logs(built.pop()))}")
    return lines


def _start(hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, __file__],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _read(proc: subprocess.Popen) -> List[List[str]]:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return [line.split() for line in out.splitlines()]


def test_same_seed_same_run_under_two_hash_seeds():
    procs = [_start("0"), _start("1")]
    try:
        first, second = (_read(proc) for proc in procs)
    finally:
        for proc in procs:
            proc.kill()
    probe_0, probe_1 = first.pop(0), second.pop(0)
    assert probe_0[0] == probe_1[0] == HASH_PROBE
    assert probe_0[1] != probe_1[1], "both interpreters hashed strings alike"

    names = [name for name, _ in first]
    assert names == [name for name, _ in second]
    assert len(names) == len(CHAOS_CASES) + len(runner.PROTOCOLS)
    # Every output is a different run: equal digests would mean the
    # digest reads nothing of the run.
    assert len({digest for _, digest in first}) == len(first)
    differ = [name for (name, a), (_, b) in zip(first, second) if a != b]
    assert differ == [], (
        f"{differ[0]} differs between PYTHONHASHSEED=0 and =1 "
        f"({len(differ)} of {len(names)} outputs differ)"
    )


if __name__ == "__main__":
    print("\n".join(battery()))
