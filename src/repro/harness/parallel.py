"""The sweep executor: independent load points over persistent workers.

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
  worker rebuilds the scenario from the Table 2 registry and calls
  ``run_load_point``), and
* the content-addressed result cache (:mod:`repro.harness.cache`) hashes
  their canonical JSON as half of the cache key.

:class:`SweepExecutor` is the only class in ``repro.harness`` that
starts a process. Three properties of it are load-bearing (pinned by
``tests/harness/test_pool.py``):

* **Amortized fan-out** — workers are spawned once (lazily, on the first
  batch with a cache miss) and reused for every later :meth:`run`, so a
  campaign of hundreds of sweeps pays worker spawn + import once.
* **Dynamic scheduling, deterministic output** — every idle worker pulls
  the next ``(sweep_index, spec)`` from one shared queue, so a straggler
  cannot serialize the batch behind it, but results are placed **by
  sweep index**: the returned list is a pure function of the spec list,
  byte-identical to the serial loop at any job count.
* **Streaming completion** — each result is written to the cache and
  handed to ``on_result`` the moment it crosses back into the parent,
  which is what makes a killed campaign resumable with zero re-runs of
  completed cases.

Determinism: workers receive the per-point seed inside the spec — the
same seed the serial path would pass — and ``run_load_point`` derives
every RNG stream from it through ``child_rng``. This module itself draws
no randomness and never reads a clock (the liveness poll interval is a
constant, not a time read); it is inside the DET001 static-analysis
scope (see ``repro.analysis.config.DET_SCOPE``).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import traceback
import weakref
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..sim.costs import CostModel
from ..core.gc import DEFAULT_COMPACTION_INTERVAL_MS
from ..workload.scenarios import (
    Scenario,
    lan_fleet,
    lan_scenario,
    lan_sustained,
    wan_colocated_leaders,
    wan_distributed_leaders,
)
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


#: Canonical scenario name -> builder. A :class:`PointSpec` stores the
#: scenario by (name, n_groups, group_size) so it stays picklable and
#: content-addressable; workers rebuild the scenario from this registry.
SCENARIO_BUILDERS: Dict[str, Callable[[int, int], Scenario]] = {
    "LAN": lan_scenario,
    "LAN - fleet": lan_fleet,
    "LAN - sustained": lan_sustained,
    "WAN - colocated leaders": wan_colocated_leaders,
    "WAN - distributed leaders": wan_distributed_leaders,
}


def build_scenario(name: str, n_groups: int, group_size: int) -> Scenario:
    """Rebuild a Table 2 scenario from its canonical name and shape."""
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; the sweep executor only handles the "
            f"Table 2 scenarios {sorted(SCENARIO_BUILDERS)} (custom latency "
            f"geometries cannot be reconstructed in worker processes)"
        ) from None
    return builder(n_groups, group_size)


def scenario_matches_registry(scenario: Scenario) -> bool:
    """True when ``scenario`` is faithfully reconstructable by name.

    A worker (or a cache lookup) rebuilds the scenario from
    :data:`SCENARIO_BUILDERS` using only ``(name, n_groups,
    group_size)``, so a caller-customized object — a ``dataclasses.
    replace`` with different RTTs, or a swapped latency builder — would
    silently be replaced by the registry default. This check compares
    the rebuild field-for-field so such scenarios are detected instead
    of mis-simulated. ``epsilon_ms`` is excluded: the spec captures it
    explicitly, so a customized skew bound round-trips fine.
    """
    builder = SCENARIO_BUILDERS.get(scenario.name)
    if builder is None:
        return False
    rebuilt = builder(scenario.n_groups, scenario.group_size)
    return (
        rebuilt.description == scenario.description
        and rebuilt.cross_group_rtt_ms == scenario.cross_group_rtt_ms
        and rebuilt.intra_group_rtt_ms == scenario.intra_group_rtt_ms
        # latency builders are stateless callables: same class, same model
        and type(rebuilt._latency_builder) is type(scenario._latency_builder)
    )


def cost_model_spec(model: Optional[CostModel]) -> Optional[Dict[str, Any]]:
    """Canonical, JSON-safe description of a cost model (None = default).

    :class:`~repro.sim.costs.CostModel` is a pure value object — per-kind
    cost tables plus defaults — so its full parameter set is the spec.
    """
    if model is None:
        return None
    return {
        "recv_costs": dict(model.recv_costs),
        "send_costs": dict(model.send_costs),
        "default_recv": model.default_recv,
        "default_send": model.default_send,
    }


def cost_model_from_spec(spec: Optional[Dict[str, Any]]) -> Optional[CostModel]:
    """Inverse of :func:`cost_model_spec`."""
    if spec is None:
        return None
    return CostModel(
        recv_costs=dict(spec["recv_costs"]),
        send_costs=dict(spec["send_costs"]),
        default_recv=spec["default_recv"],
        default_send=spec["default_send"],
    )


@dataclass(frozen=True)
class PointSpec:
    """One (protocol, scenario, destinations, load) point, fully described.

    Every field is JSON-safe; ``canonical()`` is the stable dict the
    cache hashes. ``cost_model`` is the expanded cost table from
    :func:`cost_model_spec` (None = the calibrated default model).

    This is the one declaration of a load point's parameters and their
    defaults: :func:`point_spec` and :func:`expand_sweep` forward their
    keywords here, and :meth:`run` forwards every field to
    ``run_load_point`` by name — so a field added here without a
    matching ``run_load_point`` parameter fails on the first run.
    """

    protocol: str
    scenario: str
    n_groups: int
    group_size: int
    n_dest_groups: int
    outstanding: int
    seed: int = 1
    warmup_ms: float = 500.0
    measure_ms: float = 1000.0
    keep_samples: bool = False
    batching_ms: float = 0.0
    epsilon_ms: Optional[float] = None
    cost_model: Optional[Dict[str, Any]] = field(default=None, compare=True)
    compaction_interval_ms: float = DEFAULT_COMPACTION_INTERVAL_MS

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
        point = self.canonical()
        scenario = build_scenario(
            point.pop("scenario"), point.pop("n_groups"), point.pop("group_size")
        )
        point["cost_model"] = cost_model_from_spec(point["cost_model"])
        return run_load_point(scenario=scenario, **point)


def point_spec(
    protocol: str,
    scenario: Scenario,
    n_dest_groups: int,
    outstanding: int,
    *,
    cost_model: Optional[CostModel] = None,
    epsilon_ms: Optional[float] = None,
    **point: Any,
) -> PointSpec:
    """Build a :class:`PointSpec` mirroring one ``run_load_point`` call.

    ``point`` are the remaining :class:`PointSpec` fields (``seed``,
    ``warmup_ms``, ``measure_ms``, ``keep_samples``, ``batching_ms``,
    ``compaction_interval_ms``); their names and defaults are declared
    there and nowhere else, and an unknown keyword is a ``TypeError``.

    ``scenario.epsilon_ms`` is captured into the spec explicitly (unless
    overridden), so a caller who customized the skew bound on the
    scenario object still round-trips through worker reconstruction.
    Any *other* customization cannot round-trip and is rejected here —
    :func:`repro.harness.experiments.sweep` falls back to running such
    scenarios inline instead of building specs.
    """
    if scenario.name not in SCENARIO_BUILDERS:
        raise ValueError(
            f"unknown scenario {scenario.name!r}; the sweep executor only "
            f"handles the Table 2 scenarios {sorted(SCENARIO_BUILDERS)}"
        )
    if not scenario_matches_registry(scenario):
        raise ValueError(
            f"scenario {scenario.name!r} does not match its Table 2 registry "
            f"definition (customized geometry?); workers rebuild scenarios "
            f"from (name, n_groups, group_size) only, so a customized object "
            f"would silently be replaced by the registry default"
        )
    return PointSpec(
        protocol=protocol,
        scenario=scenario.name,
        n_groups=scenario.n_groups,
        group_size=scenario.group_size,
        n_dest_groups=n_dest_groups,
        outstanding=outstanding,
        epsilon_ms=epsilon_ms if epsilon_ms is not None else scenario.epsilon_ms,
        cost_model=cost_model_spec(cost_model),
        **point,
    )


def expand_sweep(
    protocols: Sequence[str],
    scenario: Scenario,
    n_dest_groups: int,
    loads: Sequence[int],
    **point: Any,
) -> List[PointSpec]:
    """Flatten a protocol × load grid into specs, in serial-sweep order
    (``point`` goes to :func:`point_spec` unchanged)."""
    return [
        point_spec(protocol, scenario, n_dest_groups, outstanding, **point)
        for protocol in protocols
        for outstanding in loads
    ]


#: Seconds between liveness checks while waiting on the result queue.
#: A constant poll interval, not a wall-clock read: the executor never
#: decides anything from *when* something happened, only from whether a
#: worker silently died while work was outstanding.
_POLL_INTERVAL_S = 0.25

#: Seconds to wait for a worker to drain its sentinel on a clean close
#: before falling back to terminate().
_CLOSE_JOIN_S = 5.0


class WorkerCrash(RuntimeError):
    """A worker process died or a spec raised inside a worker.

    Carries enough context to replay the failing spec serially: the spec
    index within the sweep and, for in-spec exceptions, the worker-side
    traceback text.
    """

    def __init__(self, message: str, spec_index: Optional[int] = None) -> None:
        super().__init__(message)
        self.spec_index = spec_index


def _worker_main(worker_id: str, tasks: Any, results: Any) -> None:
    """Worker loop: pull ``(index, spec)``, run it, push the outcome.

    A spec that raises is reported as an ``"err"`` record (type name,
    message, formatted traceback) instead of killing the worker — the
    parent decides whether to abort the batch. ``None`` is the shutdown
    sentinel.
    """
    while True:
        item = tasks.get()
        if item is None:
            break
        index, spec = item
        try:
            result = spec.run()
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            failure = (type(exc).__name__, str(exc), traceback.format_exc())
            results.put(("err", index, failure, worker_id))
            continue
        results.put(("ok", index, result, worker_id))


def _terminate_procs(procs: List[Any], queues: List[Any]) -> None:
    """Hard-stop helper shared by terminate() and the GC finalizer."""
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=1.0)
    for q in queues:
        try:
            q.cancel_join_thread()
            q.close()
        except (OSError, ValueError):
            pass
    procs.clear()


class SweepExecutor:
    """Runs a flat list of :class:`WorkSpec` and merges results in order.

    Args:
        jobs: worker processes. 1 (the default) runs every spec inline
            in this process — no workers, byte-for-byte the historical
            serial path.
        cache: optional :class:`~repro.harness.cache.ResultCache`. Hits
            skip simulation entirely; misses run and populate — each
            result is written the moment its case completes (streaming
            checkpoint), so a killed campaign resumes from the cache
            with zero re-runs of completed cases.

    Workers (``fork`` where available, else ``spawn``; either gives the
    same results, workers only consume the explicit spec seed) are
    started lazily on the first batch that has a cache miss and persist
    until :meth:`close` / :meth:`terminate` — use the executor as a
    context manager; leaked workers are reaped by a GC finalizer.

    After each :meth:`run`, :attr:`last_stats` reports how many points
    were served from cache vs simulated — the warm-cache acceptance
    check ("zero simulation events executed") asserts ``ran == 0``.
    :attr:`total_stats` accumulates the same counters over the
    executor's lifetime, so a figure that issues several sweeps (one per
    destination count) can report the whole run, not just the last
    sweep. :meth:`pool_stats` has the worker-reuse counters.
    """

    def __init__(self, jobs: int = 1, cache: Optional[Any] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = cache
        self.last_stats: Dict[str, int] = {"points": 0, "hits": 0, "ran": 0}
        self.total_stats: Dict[str, int] = {"points": 0, "hits": 0, "ran": 0}
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._procs: List[Any] = []
        self._queues: List[Any] = []
        self._tasks: Optional[Any] = None
        self._results: Optional[Any] = None
        self._closed = False
        self._next_worker = 0
        self._spawned = 0
        self._batches = 0
        self._per_worker: Dict[str, int] = {}
        self._finalizer = weakref.finalize(
            self, _terminate_procs, self._procs, self._queues
        )

    # -- worker lifecycle -----------------------------------------------

    def _ensure_workers(self) -> None:
        if self._tasks is None:
            self._tasks = self._ctx.Queue()
            self._results = self._ctx.Queue()
            self._queues.extend([self._tasks, self._results])
        # Replace workers that died between batches (a crashed case can
        # take its worker down); respawns show up in the spawn counter.
        self._procs[:] = [p for p in self._procs if p.is_alive()]
        while len(self._procs) < self.jobs:
            worker_id = f"w{self._next_worker}"
            self._next_worker += 1
            proc = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, self._tasks, self._results),
                name=f"repro-pool-{worker_id}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
            self._spawned += 1

    def close(self) -> None:
        """Shut workers down cleanly (drain sentinels, then join)."""
        if self._closed:
            return
        if self._tasks is not None:
            for _ in self._procs:
                self._tasks.put(None)
            for proc in self._procs:
                proc.join(timeout=_CLOSE_JOIN_S)
        self.terminate()

    def terminate(self) -> None:
        """Hard-stop every worker immediately (error paths, aborts)."""
        if self._closed:
            return
        self._closed = True
        _terminate_procs(self._procs, self._queues)
        self._finalizer.detach()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- accounting -----------------------------------------------------

    def _record(self, points: int, hits: int, ran: int) -> None:
        self.last_stats = {"points": points, "hits": hits, "ran": ran}
        for key, value in self.last_stats.items():
            self.total_stats[key] += value

    def note_direct_runs(self, n: int) -> None:
        """Account for ``n`` points simulated outside the spec machinery
        (``sweep()`` runs non-registry scenarios inline; they bypass the
        workers and the cache but still belong in the run's totals)."""
        self._record(n, 0, n)

    def pool_stats(self) -> Dict[str, Any]:
        """Lifetime worker-reuse counters, JSON-safe (``{}`` until a
        :meth:`run` has had a cache miss to execute).

        * ``spawned`` — worker processes ever created (reuse shows as
          ``spawned == jobs`` across many batches; respawns after a
          worker death push it higher);
        * ``batches`` — :meth:`run` calls that executed at least one spec;
        * ``dispatched`` / ``inline`` — specs executed by workers vs
          inline (``jobs=1``);
        * ``per_worker`` — completed case count by worker id, the
          work-stealing balance evidence.
        """
        if not self._batches:
            return {}
        inline = self._per_worker.get("inline", 0)
        return {
            "jobs": self.jobs,
            "spawned": self._spawned,
            "batches": self._batches,
            "dispatched": sum(self._per_worker.values()) - inline,
            "inline": inline,
            "per_worker": dict(sorted(self._per_worker.items())),
        }

    # -- execution ------------------------------------------------------

    def run(
        self,
        specs: Sequence[WorkSpec],
        on_result: Optional[Callable[[int, WorkSpec, Any], None]] = None,
    ) -> List[Any]:
        """Execute every spec; results come back in spec order.

        ``on_result(index, spec, result)`` streams completions: cache
        hits fire immediately (in spec order, before any dispatch),
        misses fire in *completion* order as workers finish — by the
        time the callback sees a miss, its result is already persisted
        in the cache, so an abort raised from the callback leaves a
        resumable checkpoint behind (the workers are terminated so no
        further result races the unwind, then the exception propagates).

        A spec that raises inside a worker aborts the batch with
        :class:`WorkerCrash` carrying the worker-side traceback; a
        worker that dies silently (OOM kill, segfault) is detected by
        liveness polling and also raises :class:`WorkerCrash`. Inline
        (``jobs=1``) a spec's exception propagates as itself.
        """
        if self._closed:
            raise RuntimeError("SweepExecutor is closed")
        results: List[Optional[Any]] = [None] * len(specs)
        misses: List[int] = []
        for i, spec in enumerate(specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                results[i] = cached
                if on_result is not None:
                    on_result(i, spec, cached)
            else:
                misses.append(i)

        def complete(index: int, result: Any, worker_id: str) -> None:
            results[index] = result
            self._per_worker[worker_id] = self._per_worker.get(worker_id, 0) + 1
            if self.cache is not None:
                self.cache.put(specs[index], result)
            if on_result is not None:
                on_result(index, specs[index], result)

        if misses:
            self._batches += 1
            if self.jobs == 1:
                for i in misses:
                    complete(i, specs[i].run(), "inline")
            else:
                self._run_on_workers(specs, misses, complete)
        self._record(len(specs), len(specs) - len(misses), len(misses))
        return [r for r in results if r is not None]

    def _run_on_workers(
        self,
        specs: Sequence[WorkSpec],
        misses: List[int],
        complete: Callable[[int, Any, str], None],
    ) -> None:
        self._ensure_workers()
        assert self._tasks is not None and self._results is not None
        for i in misses:
            self._tasks.put((i, specs[i]))
        outstanding = len(misses)
        while outstanding:
            try:
                kind, index, payload, worker_id = self._results.get(
                    timeout=_POLL_INTERVAL_S
                )
            except queue_mod.Empty:
                dead = [p.name for p in self._procs if not p.is_alive()]
                if dead:
                    self.terminate()
                    raise WorkerCrash(
                        f"worker(s) {dead} died with "
                        f"{outstanding} case(s) outstanding"
                    ) from None
                continue
            if kind == "err":
                exc_type, message, tb_text = payload
                self.terminate()
                raise WorkerCrash(
                    f"spec {index} raised {exc_type} in {worker_id}: "
                    f"{message}\n{tb_text}",
                    spec_index=index,
                )
            outstanding -= 1
            try:
                complete(index, payload, worker_id)
            except BaseException:
                # The caller is aborting mid-batch (checkpoint tests do
                # exactly this): stop the workers so no further result
                # races the unwind, then propagate.
                self.terminate()
                raise
