"""The sweep executor: independent load points over a process pool.

Every figure of §7 is a grid of fully independent, deterministic
:func:`~repro.harness.runner.run_load_point` calls — each one builds its
own :class:`~repro.sim.events.Scheduler` and derives all randomness from
its own root seed via :func:`repro.sim.rng.child_rng`. Nothing is shared
between points, so the grid can be fanned out over worker processes and
merged back **in spec order**, producing output bit-identical to the
serial loop (pinned by ``tests/harness/test_parallel.py``).

The unit of work is a :class:`PointSpec`: a frozen, JSON-canonicalizable
description of one load point. Specs serve two masters:

* the :class:`SweepExecutor` pickles them to worker processes (the
  worker calls ``run_load_point`` with the spec's fields), and
* the content-addressed result cache (:mod:`repro.harness.cache`) hashes
  their canonical JSON as half of the cache key.

:class:`SweepExecutor` is the only class in ``repro.harness`` that
starts a process; its workers are the standard library's
:class:`concurrent.futures.ProcessPoolExecutor`. Three properties of it
are load-bearing (pinned by ``tests/harness/test_pool.py``):

* **Amortized fan-out** — the pool is created lazily, on the first
  batch with a cache miss, and reused for every later :meth:`run`, so a
  campaign of hundreds of sweeps pays worker start-up once.
* **Dynamic scheduling, deterministic output** — every idle worker takes
  the next pending spec, so a straggler cannot serialize the batch
  behind it, but results are placed **by spec index**: the returned list
  is a pure function of the spec list, byte-identical to the serial loop
  at any job count.
* **Streaming completion** — each result is written to the cache and
  handed to ``on_result`` the moment it crosses back into the parent,
  which is what makes a killed campaign resumable with zero re-runs of
  completed cases.

Determinism: workers receive the per-point seed inside the spec — the
same seed the serial path would pass — and ``run_load_point`` derives
every RNG stream from it through ``child_rng``. This module itself draws
no randomness and never reads a clock.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence

from ..workload.scenarios import Scenario
from .runner import RunResult, run_load_point


class WorkSpec(Protocol):
    """What the :class:`SweepExecutor` needs from a unit of work.

    :class:`PointSpec` is the canonical implementation; the chaos
    explorer's ``CaseSpec`` (:mod:`repro.chaos.explorer`) is another.
    Implementations must be picklable (workers receive them by value)
    and deterministic: ``run()`` must be a pure function of the spec.
    """

    def canonical(self) -> Dict[str, Any]:
        """JSON-safe dict with a stable field set (cache-key input)."""
        ...

    def run(self) -> Any:
        """Execute the unit of work and return its result."""
        ...

    def result_from_dict(self, payload: Dict[str, Any]) -> Any:
        """Decode a cached result (the inverse of its ``to_dict()``)."""
        ...


@dataclass(frozen=True)
class PointSpec:
    """One (protocol, scenario, destinations, load) point, fully described.

    Every field is JSON-safe — the :class:`~repro.workload.scenarios.
    Scenario` travels by value, a customized one included — and
    ``canonical()`` is the stable dict the cache hashes. A point runs
    with the scenario's skew bound, Ω and batching window (so a sweep
    varies those with ``dataclasses.replace`` on its scenario), the
    calibrated default cost model and state GC at its default interval;
    callers that vary the last two call ``run_load_point`` directly.

    This is the one declaration of a load point's parameters and their
    defaults: :func:`expand_sweep` forwards its keywords here, and
    :meth:`run` forwards every field to ``run_load_point`` by name — so
    a field added here without a matching ``run_load_point`` parameter
    fails on the first run.
    """

    protocol: str
    scenario: Scenario
    n_dest_groups: int
    outstanding: int
    seed: int = 1
    warmup_ms: float = 500.0
    measure_ms: float = 1000.0
    keep_samples: bool = False

    def canonical(self) -> Dict[str, Any]:
        """JSON-safe dict with a stable field set (cache-key input)."""
        return asdict(self)

    @staticmethod
    def result_from_dict(payload: Dict[str, Any]) -> RunResult:
        """Decode a cached result (the cache dispatches on the spec so
        chaos ``CaseSpec`` entries can decode to ``CaseResult``)."""
        return RunResult.from_dict(payload)

    def run(self) -> RunResult:
        """Execute this point (in whatever process we happen to be)."""
        return run_load_point(**vars(self))


def expand_sweep(
    protocols: Sequence[str],
    scenario: Scenario,
    n_dest_groups: int,
    loads: Sequence[int],
    **point: Any,
) -> List[PointSpec]:
    """Flatten a protocol × load grid into specs, in serial-sweep order
    (``point`` are the remaining :class:`PointSpec` fields — ``seed``,
    ``warmup_ms``, ``measure_ms``, ``keep_samples`` — and an unknown
    keyword is a ``TypeError``)."""
    return [
        PointSpec(protocol, scenario, n_dest_groups, outstanding, **point)
        for protocol in protocols
        for outstanding in loads
    ]


def positive_int(text: str) -> int:
    """The argparse ``type`` of a command-line count (``--jobs``,
    ``--seeds``, ``--max-runs``, ``--outstanding``, ...): below 1 is a
    usage error (exit 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class SweepExecutor:
    """Runs a flat list of :class:`WorkSpec` and merges results in order.

    Args:
        jobs: worker processes. 1 (the default) runs every spec inline
            in this process — no workers, the reference serial path.
        cache: optional :class:`~repro.harness.cache.ResultCache`. Hits
            skip simulation entirely; misses run and populate — each
            result is written the moment its case completes (streaming
            checkpoint), so a killed campaign resumes from the cache
            with zero re-runs of completed cases.

    With ``jobs > 1``, cache misses go to one
    :class:`~concurrent.futures.ProcessPoolExecutor` (``fork`` where
    available, else ``spawn``; either gives the same results, workers
    only consume the explicit spec seed), created on the first batch
    that has a miss and reused by every later :meth:`run` until
    :meth:`close` — use the executor as a context manager.

    After each :meth:`run`, :attr:`last_stats` reports how many points
    were served from cache vs simulated — the warm-cache acceptance
    check ("zero simulation events executed") asserts ``ran == 0``.
    :attr:`total_stats` accumulates the same counters over the
    executor's lifetime, so a figure that issues several sweeps (one per
    destination count) can report the whole run, not just the last
    sweep.
    """

    def __init__(self, jobs: int = 1, cache: Optional[Any] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = cache
        self.last_stats: Dict[str, int] = {"points": 0, "hits": 0, "ran": 0}
        self.total_stats: Dict[str, int] = {"points": 0, "hits": 0, "ran": 0}
        self._pool: Optional[Any] = None
        self._closed = False

    def close(self) -> None:
        """Shut the worker pool down; later :meth:`run` calls raise."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def run(
        self,
        specs: Sequence[WorkSpec],
        on_result: Optional[Callable[[int, WorkSpec, Any], None]] = None,
    ) -> List[Any]:
        """Execute every spec; results come back in spec order, one per
        spec.

        ``on_result(index, spec, result)`` streams completions: cache
        hits fire immediately (in spec order, before any dispatch),
        misses fire in *completion* order as workers finish — by the
        time the callback sees a miss, its result is already persisted
        in the cache, so an abort raised from the callback leaves a
        resumable checkpoint behind.

        A spec's exception propagates as itself at any job count; from
        a worker, its traceback is the exception's ``__cause__``. A
        worker that dies outright raises
        :class:`~concurrent.futures.process.BrokenProcessPool`. Any
        exception drops the pool (pending specs are cancelled), so the
        next :meth:`run` starts a fresh one.
        """
        if self._closed:
            raise RuntimeError("SweepExecutor is closed")
        results: List[Any] = [None] * len(specs)
        misses: List[int] = []
        for i, spec in enumerate(specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                results[i] = cached
                if on_result is not None:
                    on_result(i, spec, cached)
            else:
                misses.append(i)

        def complete(index: int, result: Any) -> None:
            results[index] = result
            if self.cache is not None:
                self.cache.put(specs[index], result)
            if on_result is not None:
                on_result(index, specs[index], result)

        if self.jobs == 1:
            for i in misses:
                complete(i, specs[i].run())
        elif misses:
            self._run_on_pool(specs, misses, complete)
        self.last_stats = {
            "points": len(specs),
            "hits": len(specs) - len(misses),
            "ran": len(misses),
        }
        for key, value in self.last_stats.items():
            self.total_stats[key] += value
        return results

    def _run_on_pool(
        self,
        specs: Sequence[WorkSpec],
        misses: List[int],
        complete: Callable[[int, Any], None],
    ) -> None:
        # Imported here, not at module level: importing repro.harness
        # must not pay for concurrent.futures and multiprocessing.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        if self._pool is None:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            self._pool = ProcessPoolExecutor(
                self.jobs, mp_context=multiprocessing.get_context(method)
            )
        futures = {self._pool.submit(specs[i].run): i for i in misses}
        try:
            for future in as_completed(futures):
                complete(futures[future], future.result())
        except BaseException:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            raise
