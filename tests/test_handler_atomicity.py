"""Handler atomicity, checked directly (DESIGN.md §10).

Algorithm 1 line 35 and Algorithm 3 lines 75–81 send first and then
stamp the next clock value (``PrimCastProcess._on_ack``,
``_on_new_state``, ``_check_epoch_activation``; Classic's
``_on_accepted`` has the same shape). That is safe only because every
backend runs a process's handlers one at a time, each to completion.
Two checks hold that premise:

* no method of a class in the protocol packages can suspend: none is an
  ``async def`` or contains ``yield``, ``yield from`` or ``await``;
* on a run of each backend, no process's ``_serve`` (the one dispatch
  point that both ``Scheduler.run`` and ``NetScheduler.drain`` pop)
  starts while its own ``_serve`` is on the stack, and neither Ω's
  output callback nor the state GC's ``compact_delivered`` runs inside
  any ``_serve``.
"""

from __future__ import annotations

import ast
import asyncio
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List

import pytest

import repro
from repro.chaos.explorer import CaseSpec, run_case
from repro.core.process import PrimCastProcess
from repro.harness.runner import run_load_point
from repro.net.cluster import ClusterSpec, make_topology, run_cluster_inprocess
from repro.sim.process import SimProcess
from repro.workload.scenarios import wan_colocated_leaders

SRC_REPRO = Path(repro.__file__).resolve().parent
PROTOCOL_PACKAGES = ("core", "rmcast", "baselines", "election")


def suspending_methods(tree: ast.Module) -> List[str]:
    """``Class.method`` of every method that is an ``async def`` or
    contains ``yield``, ``yield from`` or ``await``."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.AsyncFunctionDef) or (
                isinstance(fn, ast.FunctionDef)
                and any(
                    isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await))
                    for node in ast.walk(fn)
                )
            ):
                found.append(f"{cls.name}.{fn.name}")
    return found


def test_the_suspension_check_sees_async_and_generator_methods():
    tree = ast.parse(
        textwrap.dedent(
            """
            class Proc:
                async def on_flush(self):
                    pass

                def unacked(self):
                    yield from self.t_list

                def on_ack(self, origin, ack):
                    return [a for a in ack]
            """
        )
    )
    assert suspending_methods(tree) == ["Proc.on_flush", "Proc.unacked"]


def test_no_protocol_method_can_suspend():
    files = sorted(
        path for pkg in PROTOCOL_PACKAGES for path in (SRC_REPRO / pkg).rglob("*.py")
    )
    assert any(path.name == "process.py" for path in files)
    found = [
        f"{path.relative_to(SRC_REPRO)}: {name}"
        for path in files
        for name in suspending_methods(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


class DispatchRecorder:
    """What the wrapped dispatch point and callbacks saw during a run."""

    def __init__(self) -> None:
        #: Processes whose ``_serve`` is on the stack, innermost last.
        self.serving: List[SimProcess] = []
        #: Every process that served something, by identity.
        self.served: Dict[int, SimProcess] = {}
        self.calls: Counter[str] = Counter()
        self.problems: List[str] = []

    def wrap_serve(self, serve: Callable[[SimProcess], None]) -> Callable[[SimProcess], None]:
        def checked_serve(proc: SimProcess) -> None:
            self.calls["_serve"] += 1
            if any(other is proc for other in self.serving):
                self.problems.append(f"pid {proc.pid}: _serve started inside its own _serve")
            self.served[id(proc)] = proc
            self.serving.append(proc)
            try:
                serve(proc)
            finally:
                self.serving.pop()

        return checked_serve

    def wrap_outside_serve(self, name: str, method: Callable[..., Any]) -> Callable[..., Any]:
        def checked(proc: PrimCastProcess, *args: Any) -> Any:
            self.calls[name] += 1
            if self.serving:
                self.problems.append(
                    f"pid {proc.pid}: {name} ran inside the _serve of pid "
                    f"{self.serving[-1].pid}"
                )
            return method(proc, *args)

        return checked

    def epochs_changed(self) -> List[int]:
        return sorted(
            proc.pid
            for proc in self.served.values()
            if isinstance(proc, PrimCastProcess) and proc.e_cur.number > 0
        )


@pytest.fixture
def dispatch(monkeypatch):
    """Wrap the dispatch point before any process is built: a process
    binds ``_serve`` once, at construction."""
    recorder = DispatchRecorder()
    monkeypatch.setattr(SimProcess, "_serve", recorder.wrap_serve(SimProcess._serve))
    for name in ("_on_omega_output", "compact_delivered"):
        method = getattr(PrimCastProcess, name)
        monkeypatch.setattr(PrimCastProcess, name, recorder.wrap_outside_serve(name, method))
    return recorder


def test_chaos_case_with_an_epoch_change(dispatch):
    # lan-small seed 0 crashes group 0's leader; its peers change epoch.
    result = run_case(CaseSpec("lan-small", 0))
    assert result.violations == []
    assert dispatch.epochs_changed() != []
    assert dispatch.calls["_on_omega_output"] > 0
    assert dispatch.problems == []


def test_batched_simulator_run(dispatch):
    result = run_load_point(
        "primcast",
        replace(wan_colocated_leaders(), batching_ms=5.0),
        2,
        8,
        seed=1,
        warmup_ms=100,
        measure_ms=200,
        keep_samples=False,
    )
    assert result.message_counts["batch"] > 0
    assert dispatch.calls["compact_delivered"] > 0
    assert dispatch.problems == []


def test_net_cluster_that_kills_a_leader(dispatch, tmp_path):
    # The spec of test_asyncio_cluster_survives_killed_leader: group 1's
    # initial leader (pid 3) dies after 2 driver deliveries.
    spec = ClusterSpec(
        n_groups=2,
        group_size=3,
        n_messages=8,
        seed=5,
        kill_pid=3,
        kill_after=2,
        suspect_ms=300.0,
    )
    try:
        result = asyncio.run(run_cluster_inprocess(make_topology(spec), tmp_path))
    finally:
        # A re-entered handler can wreck the run itself: name it first.
        assert dispatch.problems == []
    assert sorted(result.survivors) == [0, 1, 2, 4, 5]
    assert all(result.outcomes[pid].exit_code == 0 for pid in result.survivors)
    assert set(dispatch.epochs_changed()) & {4, 5}
    assert dispatch.calls["_on_omega_output"] > 0
    assert dispatch.calls["compact_delivered"] > 0
