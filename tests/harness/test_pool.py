"""Tests for the sweep executor's worker pool (repro.harness.parallel).

Three contracts, straight from DESIGN.md §11:

* **determinism** — dynamic dispatch, but results reassembled by spec
  index: output is byte-identical to the serial loop at any job count;
* **amortization** — one pool is created and reused across every batch
  an executor (or campaign) issues;
* **checkpoint/resume** — results stream into the content-addressed
  cache as they complete, so a campaign killed mid-flight resumes with
  zero re-executions of completed cases and a byte-identical report.
"""

import json
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, Optional

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import PointSpec, SweepExecutor, expand_sweep
from repro.workload.scenarios import lan_scenario, wan_colocated_leaders


# Specs must be module-level so they pickle by reference into workers.


@dataclass(frozen=True)
class EchoSpec:
    """Trivial spec: returns its own index (orchestration-only cost)."""

    index: int

    def canonical(self) -> Dict[str, Any]:
        return {"echo": self.index}

    def run(self) -> int:
        return self.index


@dataclass(frozen=True)
class PidSpec:
    """Returns the pid of the process that ran it."""

    index: int

    def canonical(self) -> Dict[str, Any]:
        return {"pid": self.index}

    def run(self) -> int:
        return os.getpid()


@dataclass(frozen=True)
class NoneSpec:
    """A spec whose result is ``None``."""

    index: int

    def canonical(self) -> Dict[str, Any]:
        return {"none": self.index}

    def run(self) -> Optional[int]:
        return None


@dataclass(frozen=True)
class SleepSpec:
    """Spec that sleeps, for scheduling (not determinism) tests."""

    index: int
    sleep_s: float

    def canonical(self) -> Dict[str, Any]:
        return {"sleep": self.index}

    def run(self) -> int:
        time.sleep(self.sleep_s)
        return self.index


@dataclass(frozen=True)
class FailSpec:
    index: int

    def canonical(self) -> Dict[str, Any]:
        return {"fail": self.index}

    def run(self) -> int:
        raise ValueError(f"spec {self.index} exploded")


@dataclass(frozen=True)
class DieSpec:
    """Kills its worker outright — no exception, no result record."""

    index: int

    def canonical(self) -> Dict[str, Any]:
        return {"die": self.index}

    def run(self) -> int:
        os._exit(1)


def small_sweep_specs(**overrides):
    kwargs = dict(seed=1, warmup_ms=20.0, measure_ms=40.0)
    kwargs.update(overrides)
    return expand_sweep(
        ("primcast", "whitebox"), lan_scenario(2, 3), 2, (1, 2), **kwargs
    )


# -- determinism: spec-order reassembly at any job count ----------------


def test_results_in_spec_order_at_any_job_count():
    specs = [EchoSpec(i) for i in range(20)]
    for jobs in (1, 2, 4):
        with SweepExecutor(jobs=jobs) as pool:
            assert pool.run(specs) == list(range(20))


def test_none_result_keeps_its_slot():
    specs = [EchoSpec(0), NoneSpec(1), EchoSpec(2)]
    for jobs in (1, 2):
        with SweepExecutor(jobs=jobs) as pool:
            assert pool.run(specs) == [0, None, 2]


def test_sweep_reports_byte_identical_across_jobs():
    """The acceptance criterion verbatim: the serialized report of a
    real sweep is byte-for-byte the same at jobs 1, 2 and 4."""
    specs = small_sweep_specs()
    reports = {}
    for jobs in (1, 2, 4):
        with SweepExecutor(jobs=jobs) as executor:
            results = executor.run(specs)
        reports[jobs] = json.dumps(
            [r.to_dict() for r in results], sort_keys=True
        )
    assert reports[1] == reports[2] == reports[4]


def test_eight_group_scenario_through_pool():
    """>= 8 groups (24 processes) at d=8 — the paper's full fan-out —
    runs through the pool and stays identical to serial."""
    spec = PointSpec(
        "primcast",
        wan_colocated_leaders(8, 3),
        8,
        1,
        warmup_ms=10.0,
        measure_ms=20.0,
    )
    assert spec.scenario.n_groups * spec.scenario.group_size == 24
    with SweepExecutor(jobs=1) as serial:
        want = serial.run([spec])
    with SweepExecutor(jobs=2) as pooled:
        got = pooled.run([spec])
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]


def test_twenty_group_fleet_through_pool():
    """A 20-group (60-process) LAN fleet, pooled == serial."""
    spec = PointSpec(
        "primcast", lan_scenario(20, 3), 2, 1, warmup_ms=2.0, measure_ms=5.0
    )
    assert spec.scenario.n_groups * spec.scenario.group_size == 60
    with SweepExecutor(jobs=1) as serial:
        want = serial.run([spec])
    with SweepExecutor(jobs=2) as pooled:
        got = pooled.run([spec])
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]


# -- dynamic scheduling -------------------------------------------------


def test_straggler_does_not_serialize_the_queue():
    """Work stealing: with the long case dispatched first, the other
    worker drains every short case while it runs — the straggler
    finishes last instead of gating the batch."""
    straggler = SleepSpec(0, sleep_s=1.0)
    shorts = [SleepSpec(i, sleep_s=0.02) for i in range(1, 6)]
    completions = []

    def on_result(index, spec, result):
        completions.append(index)

    with SweepExecutor(jobs=2) as pool:
        t0 = time.perf_counter()
        results = pool.run([straggler] + shorts, on_result=on_result)
        wall = time.perf_counter() - t0
    assert results == list(range(6))
    # The straggler completes last; every short case overtook it.
    assert completions[-1] == 0
    assert sorted(completions[:-1]) == [1, 2, 3, 4, 5]
    # And the batch cost ~max(straggler, sum(shorts)), not the serial
    # sum (1.1s); generous bound for noisy CI machines.
    assert wall < 1.9


# -- amortization: pool reuse across batches ----------------------------


def test_workers_spawned_once_and_reused_across_batches():
    pids = set()
    with SweepExecutor(jobs=2) as pool:
        for batch in range(3):
            pids.update(pool.run([PidSpec(batch * 10 + i) for i in range(10)]))
    # 30 cases over three batches ran in at most 2 processes, none of
    # them this one: the same workers served every batch.
    assert 1 <= len(pids) <= 2
    assert os.getpid() not in pids


def test_jobs1_runs_inline_without_processes():
    with SweepExecutor(jobs=1) as pool:
        assert pool.run([PidSpec(i) for i in range(4)]) == [os.getpid()] * 4


def test_executor_shares_one_pool_across_runs():
    specs = small_sweep_specs()
    with SweepExecutor(jobs=2) as executor:
        executor.run(specs[:2])
        pids = set(executor.run([PidSpec(i) for i in range(6)]))
        executor.run(specs[2:])
        pids.update(executor.run([PidSpec(i) for i in range(6, 12)]))
    assert 1 <= len(pids) <= 2
    assert os.getpid() not in pids


def test_pool_rejects_use_after_close():
    pool = SweepExecutor(jobs=2)
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.run([EchoSpec(0)])


def test_pool_rejects_bad_jobs():
    with pytest.raises(ValueError):
        SweepExecutor(jobs=0)


# -- error propagation --------------------------------------------------


def test_worker_exception_propagates_with_traceback():
    """A spec's exception comes back as itself; the worker-side
    traceback is its __cause__."""
    with pytest.raises(ValueError, match="spec 1 exploded") as info:
        with SweepExecutor(jobs=2) as pool:
            pool.run([EchoSpec(0), FailSpec(1), EchoSpec(2)])
    remote = str(info.value.__cause__)
    assert "Traceback" in remote
    assert "test_pool.py" in remote and "in run" in remote


def test_silently_dead_worker_raises_instead_of_hanging():
    """A worker that exits without reporting (OOM kill, segfault) breaks
    the pool; the executor drops it and the next run gets a fresh one."""
    with SweepExecutor(jobs=2) as pool:
        with pytest.raises(BrokenProcessPool):
            pool.run([EchoSpec(0), DieSpec(1), EchoSpec(2)])
        assert pool.run([EchoSpec(i) for i in range(4)]) == [0, 1, 2, 3]


def test_inline_exception_propagates_directly():
    with pytest.raises(ValueError, match="exploded"):
        with SweepExecutor(jobs=1) as pool:
            pool.run([FailSpec(0)])


# -- checkpoint/resume --------------------------------------------------


def test_results_checkpoint_to_cache_as_they_complete(tmp_path):
    """By the time on_result fires, the case is already on disk — the
    property kill-mid-campaign resume depends on."""
    cache = ResultCache(tmp_path / "cache")
    specs = small_sweep_specs()
    seen = []

    def on_result(index, spec, result):
        assert cache.entry_path(spec).exists()
        seen.append(index)

    with SweepExecutor(jobs=2, cache=cache) as executor:
        executor.run(specs, on_result=on_result)
    assert sorted(seen) == [0, 1, 2, 3]


def test_killed_sweep_resumes_with_zero_reexecutions(tmp_path):
    """Abort after 2 completions; the resumed executor must serve those
    from cache (0 re-runs) and produce the byte-identical report."""
    specs = small_sweep_specs()
    with SweepExecutor(jobs=1) as serial:
        want = json.dumps(
            [r.to_dict() for r in serial.run(specs)], sort_keys=True
        )

    class Killed(Exception):
        pass

    done = 0

    def killer(index, spec, result):
        nonlocal done
        done += 1
        if done >= 2:
            raise Killed()

    with SweepExecutor(jobs=2, cache=ResultCache(tmp_path / "c")) as victim:
        with pytest.raises(Killed):
            victim.run(specs, on_result=killer)

    with SweepExecutor(jobs=2, cache=ResultCache(tmp_path / "c")) as resumed:
        results = resumed.run(specs)
        stats = dict(resumed.last_stats)
    # Everything completed before the kill is a hit; nothing is re-run.
    assert stats["hits"] >= 2
    assert stats["ran"] == len(specs) - stats["hits"]
    assert json.dumps([r.to_dict() for r in results], sort_keys=True) == want


def test_warm_cache_spawns_no_workers(tmp_path):
    specs = small_sweep_specs()
    with SweepExecutor(jobs=2, cache=ResultCache(tmp_path / "c")) as cold:
        cold.run(specs)
    with SweepExecutor(jobs=2, cache=ResultCache(tmp_path / "c")) as warm:
        warm.run(specs)
        assert warm.last_stats == {"points": 4, "hits": 4, "ran": 0}
        # A fully warm run never creates the pool at all.
        assert warm._pool is None


# -- streaming callback semantics ---------------------------------------


def test_on_result_fires_for_hits_in_spec_order(tmp_path):
    cache = ResultCache(tmp_path / "c")
    specs = small_sweep_specs()
    with SweepExecutor(jobs=1, cache=cache) as cold:
        cold.run(specs)
    order = []
    with SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "c")) as warm:
        warm.run(specs, on_result=lambda i, s, r: order.append(i))
    assert order == [0, 1, 2, 3]


def test_point_spec_decodes_cached_results_as_run_result(tmp_path):
    cache = ResultCache(tmp_path / "c")
    spec = small_sweep_specs()[0]
    result = spec.run()
    cache.put(spec, result)
    back = cache.get(spec)
    assert isinstance(back, type(result))
    assert back == result
