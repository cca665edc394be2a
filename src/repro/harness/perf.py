"""Wall-clock performance harness for the simulation substrate.

The paper-reproduction benches are bounded by how fast the simulator
executes events, so the substrate's own speed is tracked as a first-class
metric. This module measures wall-clock seconds and simulated events/sec
for standard load points, optionally captures a cProfile, quantifies the
wire-message savings of the opt-in §7.1 ack/bump batching layer, and
records everything in ``BENCH_perf.json`` so regressions (or wins) are
visible across PRs — see the "Perf trajectory" section of EXPERIMENTS.md.

Conventions:

* Wall times are **best-of-N** (default 3): the minimum is the least
  noisy estimator of the achievable time on a busy machine.
* The seed baseline (:data:`SEED_BASELINE`) was measured on the same
  smoke point before the substrate optimisation work; speedups reported
  by :func:`speedup_vs_seed` are relative to it.
"""

from __future__ import annotations

import cProfile
import io
import json
import multiprocessing
import os
import pstats
import time
import tracemalloc
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.gc import DEFAULT_COMPACTION_INTERVAL_MS
from ..sim.rng import child_rng
from ..workload.generator import make_clients
from ..workload.scenarios import (
    Scenario,
    lan_fleet,
    lan_sustained,
    wan_colocated_leaders,
)
from .cache import ResultCache
from .parallel import SweepExecutor, expand_sweep
from .pool import WorkerPool, default_mp_context, run_spec
from .runner import (
    STREAM_LOG_KEEP,
    STREAM_SAMPLE_KEEP,
    RunResult,
    build_system,
    run_load_point,
)

#: Default location of the perf record, at the repository root.
BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_perf.json"

#: Seed-revision baseline for the standard smoke point (Fig 3 scenario,
#: 2 destination groups, 32 outstanding, 700 ms simulated): best-of-2
#: wall seconds and the (deterministic) event count of that run.
SEED_BASELINE = {
    "point": "fig3-wan-colocated-d2-o32",
    "wall_s": 10.139,
    "events": 660110,
}

#: The ``substrate`` record as it stood immediately before the
#: compiled-core restructuring PR (slotted hot classes, per-pair channel
#: cache, bitmask ack trackers, monomorphic scheduler loop): best-of-3
#: wall seconds on the same smoke point. The ``compiled_core`` bench
#: gates the restructuring's *own* win against this, separately from the
#: cumulative :data:`SEED_BASELINE` speedup.
PRE_RESTRUCTURE_BASELINE = {
    "point": "fig3-wan-colocated-d2-o32",
    "wall_s": 4.543,
    "events": 660110,
}


@dataclass
class PerfPoint:
    """Wall-clock measurement of one simulated load point."""

    point: str
    protocol: str
    scenario: str
    n_dest_groups: int
    outstanding: int
    batching_ms: float
    #: best-of-``repeats`` wall-clock seconds
    wall_s: float
    #: every measured repeat, in order
    walls_s: list = field(default_factory=list)
    #: simulated events executed in one run
    events: int = 0
    #: simulated events per wall-clock second (best run)
    events_per_sec: float = 0.0
    #: delivered msg/s inside the measurement window (simulated)
    throughput: float = 0.0
    #: total wire messages over the run
    wire_messages: int = 0
    message_counts: Dict[str, int] = field(default_factory=dict)
    #: substrate the measured rows came from ("sim" or "net")
    backend: str = "sim"


def measure_load_point(
    protocol: str = "primcast",
    scenario: Optional[Scenario] = None,
    n_dest_groups: int = 2,
    outstanding: int = 32,
    seed: int = 1,
    warmup_ms: float = 300.0,
    measure_ms: float = 400.0,
    batching_ms: float = 0.0,
    repeats: int = 3,
    point: Optional[str] = None,
    profile: bool = False,
    compaction_interval_ms: float = DEFAULT_COMPACTION_INTERVAL_MS,
) -> PerfPoint:
    """Run one load point ``repeats`` times and report best-of wall time.

    With ``profile=True`` the last repeat runs under cProfile and the top
    functions (by internal time) are printed — note cProfile inflates
    wall time roughly 2-3x, so profiled runs are excluded from timing.

    ``compaction_interval_ms=0`` disables the state-GC daemon, making
    the event schedule exactly the seed revision's (the daemon only adds
    its own timer events) — the seed-baseline comparison passes 0 so
    ``events == SEED_BASELINE['events']`` stays exact.
    """
    if scenario is None:
        scenario = wan_colocated_leaders()
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    kwargs: Dict[str, Any] = dict(
        warmup_ms=warmup_ms,
        measure_ms=measure_ms,
        seed=seed,
        keep_samples=False,
        batching_ms=batching_ms,
        compaction_interval_ms=compaction_interval_ms,
    )
    walls = []
    result: Optional[RunResult] = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_load_point(protocol, scenario, n_dest_groups, outstanding, **kwargs)
        walls.append(time.perf_counter() - t0)
    assert result is not None
    if profile:
        profiler = cProfile.Profile()
        profiler.enable()
        run_load_point(protocol, scenario, n_dest_groups, outstanding, **kwargs)
        profiler.disable()
        out = io.StringIO()
        pstats.Stats(profiler, stream=out).sort_stats("tottime").print_stats(20)
        print(out.getvalue())
    best = min(walls)
    name = point or (
        f"{scenario.name}-{protocol}-d{n_dest_groups}-o{outstanding}"
        + (f"-b{batching_ms:g}" if batching_ms else "")
    )
    data = result.to_dict()
    return PerfPoint(
        point=name,
        protocol=protocol,
        scenario=scenario.name,
        n_dest_groups=n_dest_groups,
        outstanding=outstanding,
        batching_ms=batching_ms,
        wall_s=best,
        walls_s=[round(w, 4) for w in walls],
        events=data["events"],
        events_per_sec=data["events"] / best if best > 0 else 0.0,
        throughput=data["throughput"],
        wire_messages=sum(data["message_counts"].values()),
        message_counts=data["message_counts"],
        backend=data["backend"],
    )


def speedup_vs_seed(perf: PerfPoint) -> float:
    """Wall-clock speedup of ``perf`` relative to :data:`SEED_BASELINE`
    (only meaningful for the standard smoke point)."""
    return SEED_BASELINE["wall_s"] / perf.wall_s


def batching_delta(
    protocol: str = "primcast",
    scenario: Optional[Scenario] = None,
    n_dest_groups: int = 2,
    outstanding: int = 8,
    batching_ms: float = 2.0,
    seed: int = 1,
    warmup_ms: float = 300.0,
    measure_ms: float = 400.0,
) -> Dict[str, Any]:
    """Wire-message comparison of one load point with batching off vs on.

    Returns a dict with both :class:`PerfPoint` measurements and the
    relative wire-message reduction — the simulated counterpart of the
    §7.1 TCP message-merging experiment.
    """
    if scenario is None:
        scenario = wan_colocated_leaders()
    common = dict(
        protocol=protocol,
        scenario=scenario,
        n_dest_groups=n_dest_groups,
        outstanding=outstanding,
        seed=seed,
        warmup_ms=warmup_ms,
        measure_ms=measure_ms,
        repeats=1,
    )
    off = measure_load_point(batching_ms=0.0, **common)
    on = measure_load_point(batching_ms=batching_ms, **common)
    reduction = 1.0 - on.wire_messages / off.wire_messages if off.wire_messages else 0.0
    return {
        "off": asdict(off),
        "on": asdict(on),
        "batching_ms": batching_ms,
        "wire_reduction": reduction,
    }


def measure_sweep_scaling(
    jobs: int = 0,
    protocols: tuple = ("whitebox", "fastcast", "primcast", "primcast-hc"),
    scenario: Optional[Scenario] = None,
    n_dest_groups: int = 2,
    loads: tuple = (1, 4, 16, 64),
    seed: int = 1,
    warmup_ms: float = 600.0,
    measure_ms: float = 1000.0,
    cache_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Fig-3-shaped sweep: serial vs parallel vs warm-cache wall clock.

    The defaults reproduce ``figure3(full=False)`` at 2 destination
    groups (16 points). Three passes through the same
    :class:`SweepExecutor` machinery:

    1. **serial + cold cache** (``jobs=1``): the historical one-core
       path, which also populates a fresh content-addressed cache;
    2. **parallel** (``jobs`` workers, cache off): pure fan-out timing;
    3. **warm cache** (``jobs=1``): every point must come back as a hit
       — ``warm_hits == points`` certifies zero simulation ran.

    Both the parallel and the warm pass are checked field-for-field
    against the serial results (``identical``/``warm_identical``) — the
    executor contract is bit-identical output, not "close enough".
    """
    import shutil
    import tempfile

    if scenario is None:
        scenario = wan_colocated_leaders()
    if jobs < 1:
        jobs = os.cpu_count() or 2
    specs = expand_sweep(
        protocols,
        scenario,
        n_dest_groups,
        loads,
        seed=seed,
        warmup_ms=warmup_ms,
        measure_ms=measure_ms,
    )
    own_tmp = cache_dir is None
    cache_root = Path(tempfile.mkdtemp(prefix="repro-cache-")) if own_tmp else Path(cache_dir)
    try:
        cache = ResultCache(cache_root)
        with SweepExecutor(jobs=1, cache=cache) as serial:
            t0 = time.perf_counter()
            serial_results = serial.run(specs)
            serial_s = time.perf_counter() - t0

        with SweepExecutor(jobs=jobs) as parallel:
            t0 = time.perf_counter()
            parallel_results = parallel.run(specs)
            parallel_s = time.perf_counter() - t0
            pool_stats = parallel.pool_stats()

        with SweepExecutor(jobs=1, cache=ResultCache(cache_root)) as warm:
            t0 = time.perf_counter()
            warm_results = warm.run(specs)
            warm_s = time.perf_counter() - t0
            warm_stats = dict(warm.last_stats)
    finally:
        if own_tmp:
            shutil.rmtree(cache_root, ignore_errors=True)

    return {
        "point": f"{scenario.name}-d{n_dest_groups}-sweep{len(specs)}",
        "points": len(specs),
        "loads": list(loads),
        "protocols": list(protocols),
        "warmup_ms": warmup_ms,
        "measure_ms": measure_ms,
        "jobs": jobs,
        # Without the machine context the speedup number is meaningless:
        # a 1.0x "speedup" on a 1-core container is expected, not a bug.
        "cpu_count": os.cpu_count(),
        "pool": pool_stats,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "parallel_speedup": round(serial_s / parallel_s, 3) if parallel_s > 0 else 0.0,
        "warm_cache_s": round(warm_s, 4),
        "cache_speedup": round(serial_s / warm_s, 1) if warm_s > 0 else 0.0,
        "warm_hits": warm_stats["hits"],
        "warm_ran": warm_stats["ran"],
        "identical": parallel_results == serial_results,
        "warm_identical": warm_results == serial_results,
        "total_events": sum(r.events for r in serial_results),
    }


# ----------------------------------------------------------------------
# campaign pool: amortized fan-out, checkpoint/resume, fleet scale
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ProbeSpec:
    """A do-nothing ``WorkSpec``: its run() is free, so timing a batch of
    probes through a pool measures pure orchestration overhead (worker
    spawn + import + queue dispatch), not simulation."""

    index: int

    def canonical(self) -> Dict[str, Any]:
        return {"probe": self.index}

    def run(self) -> int:
        return self.index


def measure_campaign_pool(
    jobs: int = 2,
    batches: int = 20,
    cases_per_batch: int = 10,
) -> Dict[str, Any]:
    """Non-simulation overhead: fresh pool per sweep vs one persistent pool.

    A campaign is ``batches`` sweeps of ``cases_per_batch`` cases each
    (default 20×10 = 200 cases — the acceptance floor). Every case is a
    :class:`_ProbeSpec` whose ``run()`` is free, so wall-clock is pure
    orchestration cost:

    * **fresh** — the pre-PR-8 path: a new ``multiprocessing.Pool`` per
      batch (spawn + import paid ``batches`` times);
    * **persistent** — one :class:`WorkerPool` serving every batch
      (spawn + import paid once, then queue dispatch only).

    ``overhead_reduction = fresh_s / persistent_s`` is the headline; the
    acceptance bar is >= 3x at the same job count.
    """
    specs_by_batch: List[List[_ProbeSpec]] = [
        [_ProbeSpec(b * cases_per_batch + i) for i in range(cases_per_batch)]
        for b in range(batches)
    ]
    total_cases = batches * cases_per_batch
    ctx = multiprocessing.get_context(default_mp_context())

    t0 = time.perf_counter()
    for batch in specs_by_batch:
        with ctx.Pool(processes=jobs) as fresh_pool:
            fresh_pool.map(run_spec, batch, chunksize=1)
    fresh_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with WorkerPool(jobs=jobs) as pool:
        for batch in specs_by_batch:
            pool.run(batch)
        pool_stats = pool.stats()
    persistent_s = time.perf_counter() - t0

    return {
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "mp_context": default_mp_context(),
        "batches": batches,
        "cases_per_batch": cases_per_batch,
        "cases": total_cases,
        "fresh_pool_s": round(fresh_s, 4),
        "persistent_pool_s": round(persistent_s, 4),
        "fresh_per_case_ms": round(fresh_s / total_cases * 1000.0, 3),
        "persistent_per_case_ms": round(persistent_s / total_cases * 1000.0, 3),
        "overhead_reduction": (
            round(fresh_s / persistent_s, 2) if persistent_s > 0 else 0.0
        ),
        "pool": pool_stats,
    }


def measure_chaos_campaign(
    scenario: str = "lan-small",
    seeds: int = 1000,
    jobs: int = 2,
) -> Dict[str, Any]:
    """Thousand-seed chaos campaign through the persistent pool.

    One cold pass (every case simulated, streamed into a fresh
    content-addressed cache as it completes) and one resume pass over
    the same cache, which must re-execute **zero** cases and reproduce
    the byte-identical report — the checkpoint/resume acceptance check
    at campaign scale.
    """
    import shutil
    import tempfile

    from ..chaos.explorer import run_campaign

    seed_list = list(range(seeds))
    cache_root = Path(tempfile.mkdtemp(prefix="repro-campaign-"))
    try:
        with SweepExecutor(jobs=jobs, cache=ResultCache(cache_root)) as cold:
            t0 = time.perf_counter()
            report = run_campaign(scenario, seed_list, executor=cold)
            cold_s = time.perf_counter() - t0
            cold_stats = dict(cold.total_stats)
            pool_stats = cold.pool_stats()

        with SweepExecutor(jobs=jobs, cache=ResultCache(cache_root)) as resume:
            t0 = time.perf_counter()
            resumed = run_campaign(scenario, seed_list, executor=resume)
            resume_s = time.perf_counter() - t0
            resume_stats = dict(resume.total_stats)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    summary = report.to_dict()["summary"]
    return {
        "scenario": scenario,
        "seeds": seeds,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "cold_s": round(cold_s, 4),
        "cold_cases_per_sec": round(seeds / cold_s, 1) if cold_s > 0 else 0.0,
        "cold_simulated": cold_stats["ran"],
        "resume_s": round(resume_s, 4),
        "resume_simulated": resume_stats["ran"],
        "resume_hits": resume_stats["hits"],
        "resume_identical": resumed.to_json() == report.to_json(),
        "violations": summary["violations"],
        "events": summary["events"],
        "pool": pool_stats,
    }


def measure_fleet_scale(jobs: int = 2) -> Dict[str, Any]:
    """Paper-scale-and-beyond points through one shared pool.

    Two deployments the pre-PR-8 harness never exercised:

    * the full Figure-3 destination fan-out — 8 groups × 3 replicas
      (24 processes) at d=8, every message crossing every group;
    * the 20-group LAN fleet (60 processes), the scale-out target.

    Both run serially and through a ``jobs``-worker pool; the rows must
    be field-for-field identical (the determinism contract at scale).
    """
    fig3_specs = expand_sweep(
        ("primcast",),
        wan_colocated_leaders(8, 3),
        8,
        (8,),
        warmup_ms=50.0,
        measure_ms=100.0,
    )
    fleet_specs = expand_sweep(
        ("primcast",),
        lan_fleet(20, 3),
        2,
        (1, 2),
        warmup_ms=2.0,
        measure_ms=5.0,
    )
    specs = fig3_specs + fleet_specs

    with SweepExecutor(jobs=1) as serial:
        t0 = time.perf_counter()
        serial_results = serial.run(specs)
        serial_s = time.perf_counter() - t0

    with SweepExecutor(jobs=jobs) as pooled:
        t0 = time.perf_counter()
        pooled_results = pooled.run(specs)
        pooled_s = time.perf_counter() - t0
        pool_stats = pooled.pool_stats()

    return {
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "points": [
            {
                "point": f"{s.scenario}-d{s.n_dest_groups}-o{s.outstanding}",
                "n_groups": s.n_groups,
                "processes": s.n_groups * s.group_size,
                "events": r.events,
            }
            for s, r in zip(specs, serial_results)
        ],
        "max_processes": max(s.n_groups * s.group_size for s in specs),
        "serial_s": round(serial_s, 4),
        "pooled_s": round(pooled_s, 4),
        "identical": pooled_results == serial_results,
        "total_events": sum(r.events for r in serial_results),
        "pool": pool_stats,
    }


def _steady_state_run(
    compaction_interval_ms: float,
    scenario: Scenario,
    n_dest_groups: int,
    outstanding: int,
    seed: int,
    warmup_ms: float,
    measure_ms: float,
    n_segments: int,
) -> Dict[str, Any]:
    """One instrumented sustained run: tracemalloc peak past warmup plus
    per-segment events/sec (streaming stats keep the harness side O(1))."""
    system = build_system(
        "primcast",
        scenario,
        seed=seed,
        compaction_interval_ms=compaction_interval_ms,
    )
    clients = make_clients(
        system.replicas,
        n_dest_groups,
        system.config.n_groups,
        outstanding,
        child_rng(seed, "workload"),
        sample_limit=STREAM_SAMPLE_KEEP,
        measure_from_ms=warmup_ms,
    )
    for proc in system.replicas:
        proc.delivery_log = deque(maxlen=STREAM_LOG_KEEP)
    for client in clients:
        client.start()
    scheduler = system.scheduler
    tracemalloc.start()
    try:
        scheduler.run(until=warmup_ms)
        # Warmup allocations (imports, system build, ramp-up) are shared
        # noise; the steady-state claim is about growth *past* warmup.
        tracemalloc.reset_peak()
        segment_ms = measure_ms / n_segments
        segments = []
        prev_events = scheduler.events_processed
        t0 = time.perf_counter()
        for i in range(1, n_segments + 1):
            s0 = time.perf_counter()
            scheduler.run(until=warmup_ms + i * segment_ms)
            wall = time.perf_counter() - s0
            events = scheduler.events_processed - prev_events
            prev_events = scheduler.events_processed
            segments.append(
                {
                    "events": events,
                    "wall_s": round(wall, 4),
                    "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
                }
            )
        total_wall = time.perf_counter() - t0
        current_bytes, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for client in clients:
        client.stop()
    delivered = sum(client.stat_count for client in clients)
    events = sum(s["events"] for s in segments)
    daemon = system.compaction
    first, last = segments[0]["events_per_sec"], segments[-1]["events_per_sec"]
    return {
        "compaction_interval_ms": compaction_interval_ms,
        "peak_bytes": peak_bytes,
        "current_bytes": current_bytes,
        "delivered": delivered,
        "throughput": delivered / (measure_ms / 1000.0),
        "events": events,
        "wall_s": round(total_wall, 4),
        "events_per_sec": round(events / total_wall, 1) if total_wall > 0 else 0.0,
        "segments": segments,
        #: last-segment events/sec over first-segment — a run whose state
        #: keeps growing shows a sub-1 drift as dict/set ops slow down
        "events_per_sec_drift": round(last / first, 4) if first > 0 else 0.0,
        "compaction_runs": daemon.runs if daemon is not None else 0,
        "compaction_freed": daemon.freed if daemon is not None else 0,
    }


def measure_steady_state(
    scenario: Optional[Scenario] = None,
    n_dest_groups: int = 2,
    outstanding: int = 4,
    seed: int = 1,
    warmup_ms: float = 500.0,
    measure_ms: float = 6500.0,
    n_segments: int = 8,
    compaction_interval_ms: float = DEFAULT_COMPACTION_INTERVAL_MS,
) -> Dict[str, Any]:
    """Bounded-memory steady-state bench: state GC on vs off.

    Runs the same sustained load point (defaults: the ``lan_sustained``
    scenario for ~10x a fig-3 smoke point's simulated time) twice — once
    with the compaction daemon at its default interval, once disabled —
    and reports peak tracemalloc bytes past warmup, exact delivered
    throughput, and per-segment events/sec for both. The headline
    numbers:

    * ``peak_ratio`` — GC-on peak over GC-off peak. The tentpole
      acceptance bar is < 0.5: with truncation the per-process protocol
      state is O(in-flight), without it O(messages ever sent).
    * ``throughput_ratio`` — GC-on over GC-off delivered msg/s; must not
      degrade (the sweep only discards state the protocol cannot read).

    Both runs use streaming stats, so the measurement harness itself
    stays O(1) and the peaks reflect protocol state, not sample lists.
    """
    if scenario is None:
        scenario = lan_sustained()
    common = dict(
        scenario=scenario,
        n_dest_groups=n_dest_groups,
        outstanding=outstanding,
        seed=seed,
        warmup_ms=warmup_ms,
        measure_ms=measure_ms,
        n_segments=n_segments,
    )
    gc_on = _steady_state_run(compaction_interval_ms, **common)
    gc_off = _steady_state_run(0.0, **common)
    peak_ratio = (
        gc_on["peak_bytes"] / gc_off["peak_bytes"] if gc_off["peak_bytes"] else 0.0
    )
    throughput_ratio = (
        gc_on["throughput"] / gc_off["throughput"] if gc_off["throughput"] else 0.0
    )
    return {
        "point": f"{scenario.name}-primcast-d{n_dest_groups}-o{outstanding}",
        "scenario": scenario.name,
        "n_groups": scenario.n_groups,
        "group_size": scenario.group_size,
        "warmup_ms": warmup_ms,
        "measure_ms": measure_ms,
        "gc_on": gc_on,
        "gc_off": gc_off,
        "peak_ratio": round(peak_ratio, 4),
        "throughput_ratio": round(throughput_ratio, 4),
    }


def update_bench(key: str, payload: Any, path: Optional[Path] = None) -> Path:
    """Merge ``payload`` under ``key`` into ``BENCH_perf.json``.

    Existing keys other than ``key`` are preserved, so the substrate and
    batching benches can update their sections independently.
    """
    target = Path(path) if path is not None else BENCH_PATH
    record: Dict[str, Any] = {}
    if target.exists():
        try:
            record = json.loads(target.read_text())
        except (ValueError, OSError):
            record = {}
    record[key] = payload
    record["seed_baseline"] = SEED_BASELINE
    target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return target


# ----------------------------------------------------------------------
# perf history: timestamped measurements across revisions
# ----------------------------------------------------------------------

#: Append-only measurement log at the repository root, one JSON object
#: per line. BENCH_perf.json holds the *current* numbers per section;
#: the history holds every ``--append-history`` run ever taken, so the
#: trajectory table in EXPERIMENTS.md regenerates from raw data.
BENCH_HISTORY_PATH = Path(__file__).resolve().parents[3] / "BENCH_history.jsonl"

EXPERIMENTS_PATH = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"

#: Markers delimiting the auto-generated history table in EXPERIMENTS.md.
HISTORY_BEGIN = "<!-- BENCH_HISTORY:BEGIN (generated by repro.harness.perf --append-history; do not edit by hand) -->"
HISTORY_END = "<!-- BENCH_HISTORY:END -->"


def measure_history_row(repeats: int = 3, note: str = "") -> Dict[str, Any]:
    """Measure the standard smoke point for the history log.

    Compaction is off so the event count pins the seed schedule
    (660,110 events) and wall times stay comparable across every row.
    """
    from .._backend import backend_info

    from datetime import datetime, timezone

    perf = measure_load_point(repeats=repeats, compaction_interval_ms=0.0)
    return {
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "point": perf.point,
        "wall_s": round(perf.wall_s, 4),
        "walls_s": perf.walls_s,
        "events": perf.events,
        "events_per_sec": round(perf.events_per_sec, 1),
        "speedup_vs_seed": round(speedup_vs_seed(perf), 4),
        "backend": backend_info()["backend"],
        "note": note,
    }


def append_history(row: Dict[str, Any], path: Optional[Path] = None) -> Path:
    """Append one measurement row to ``BENCH_history.jsonl``."""
    target = Path(path) if path is not None else BENCH_HISTORY_PATH
    with target.open("a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    return target


def read_history(path: Optional[Path] = None) -> list:
    """All history rows, oldest first (empty when no log exists)."""
    target = Path(path) if path is not None else BENCH_HISTORY_PATH
    if not target.exists():
        return []
    rows = []
    for line in target.read_text().splitlines():
        line = line.strip()
        if line:
            rows.append(json.loads(line))
    return rows


def history_table(rows: list) -> str:
    """Markdown trajectory table over the history rows (the dashboard
    renderer lives in :func:`repro.harness.report.history_markdown`)."""
    from .report import history_markdown

    return history_markdown(rows)


def update_experiments_history(
    rows: list, path: Optional[Path] = None
) -> Path:
    """Rewrite the marker-delimited history table in EXPERIMENTS.md.

    The table lives between :data:`HISTORY_BEGIN` and
    :data:`HISTORY_END`; everything outside the markers is untouched.
    Raises when the markers are missing — the surrounding prose is
    hand-written and this function must never guess where to put the
    table.
    """
    target = Path(path) if path is not None else EXPERIMENTS_PATH
    text = target.read_text()
    begin = text.index(HISTORY_BEGIN)
    end = text.index(HISTORY_END)
    if end < begin:
        raise ValueError("BENCH_HISTORY markers are out of order")
    new = (
        text[: begin + len(HISTORY_BEGIN)]
        + "\n"
        + history_table(rows)
        + "\n"
        + text[end:]
    )
    target.write_text(new)
    return target


def main(argv: Optional[list] = None) -> int:
    """CLI: measure the smoke point; optionally log it to the history.

    ``python -m repro.harness.perf`` prints one measurement.
    ``--append-history`` additionally appends a timestamped row to
    ``BENCH_history.jsonl`` and regenerates the trajectory table in
    EXPERIMENTS.md from the full log.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.perf",
        description="wall-clock perf of the simulation substrate on the "
        "standard smoke point (see BENCH_perf.json / EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N repeats (default 3)"
    )
    parser.add_argument(
        "--note", default="", help="free-text label recorded with the row"
    )
    parser.add_argument(
        "--append-history",
        action="store_true",
        help="append the row to BENCH_history.jsonl and regenerate the "
        "EXPERIMENTS.md trajectory table",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the row as JSON"
    )
    args = parser.parse_args(argv)

    row = measure_history_row(repeats=args.repeats, note=args.note)
    if args.json:
        print(json.dumps(row, indent=2, sort_keys=True))
    else:
        print(
            f"{row['point']}: {row['wall_s']:.3f}s best-of-{args.repeats} "
            f"({row['events']} events, {row['events_per_sec']:,.0f} ev/s, "
            f"{row['speedup_vs_seed']:.2f}x vs seed, {row['backend']})"
        )
    if args.append_history:
        path = append_history(row)
        update_experiments_history(read_history())
        print(f"appended to {path.name}; EXPERIMENTS.md table regenerated")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
