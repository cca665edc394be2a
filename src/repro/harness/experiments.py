"""Per-figure experiment definitions (§7.3–§7.5).

Each ``figureN`` function regenerates the data series of the paper's
figure N: the same protocols, deployment, destination counts and load
sweep, returning :class:`~repro.harness.runner.RunResult` rows the bench
targets print. Sizes default to a *reduced* sweep so the bench suite
finishes in minutes; ``full=True`` (or the ``REPRO_FULL=1`` environment
variable in the benches) runs the paper-scale sweep recorded in
EXPERIMENTS.md.

Every figure is a grid of independent deterministic load points, so all
of them route through :class:`~repro.harness.parallel.SweepExecutor`:
pass ``executor=SweepExecutor(jobs=N, cache=...)`` to fan the grid out
over N worker processes and/or memoize points in the content-addressed
result cache. The default executor (``jobs=1``, no cache) is exactly
the historical serial path — same seeds, same event schedules,
bit-identical rows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..workload.scenarios import (
    Scenario,
    lan_scenario,
    wan_colocated_leaders,
    wan_distributed_leaders,
)
from .metrics import cdf_points
from .parallel import SweepExecutor, expand_sweep
from .runner import PROTOCOLS, RunResult

# Load sweeps (outstanding messages per client).
REDUCED_LOADS = (1, 4, 16, 64)
FULL_LOADS = (1, 2, 4, 8, 16, 32, 64, 128)


def sweep(
    protocols: Sequence[str],
    scenario: Scenario,
    n_dest_groups: int,
    loads: Sequence[int],
    executor: Optional[SweepExecutor] = None,
    **point: Any,
) -> List[RunResult]:
    """Run a protocol × load grid on one scenario/destination count.

    Rows come back in grid order (protocol-major, load-minor) regardless
    of the executor's parallelism. ``point`` are the remaining fields of
    a load point (``seed``, ``warmup_ms``, ``keep_samples``, ...), declared
    by :class:`~repro.harness.parallel.PointSpec` and nowhere else; an
    unknown keyword is a ``TypeError``. Each spec carries ``scenario``
    by value, so a customized copy of a Table 2 scenario sweeps exactly
    like the original.
    """
    if executor is None:
        executor = SweepExecutor()
    return executor.run(expand_sweep(protocols, scenario, n_dest_groups, loads, **point))


def figure2(
    full: bool = False, seed: int = 1, executor: Optional[SweepExecutor] = None
) -> List[RunResult]:
    """Fig 2: LAN, all messages to 2 groups, throughput vs p95 latency."""
    loads = FULL_LOADS if full else REDUCED_LOADS
    return sweep(
        tuple(PROTOCOLS),
        lan_scenario(),
        n_dest_groups=2,
        loads=loads,
        seed=seed,
        warmup_ms=100.0 if not full else 200.0,
        measure_ms=200.0 if not full else 500.0,
        executor=executor,
    )


def figure3(
    full: bool = False,
    seed: int = 1,
    dest_counts: Sequence[int] = (1, 2, 4, 8),
    executor: Optional[SweepExecutor] = None,
) -> Dict[int, List[RunResult]]:
    """Fig 3a–d: WAN with colocated leaders, 1/2/4/8 destination groups."""
    loads = FULL_LOADS if full else REDUCED_LOADS
    scenario = wan_colocated_leaders()
    return {
        d: sweep(
            tuple(PROTOCOLS),
            scenario,
            n_dest_groups=d,
            loads=loads,
            seed=seed,
            warmup_ms=600.0 if not full else 1000.0,
            measure_ms=1000.0 if not full else 2000.0,
            executor=executor,
        )
        for d in dest_counts
    }


def figure4(
    full: bool = False,
    seed: int = 1,
    dest_counts: Sequence[int] = (2, 4),
    executor: Optional[SweepExecutor] = None,
) -> Dict[int, List[RunResult]]:
    """Fig 4a–b: WAN with distributed leaders (convoy territory)."""
    loads = FULL_LOADS if full else REDUCED_LOADS
    scenario = wan_distributed_leaders()
    return {
        d: sweep(
            tuple(PROTOCOLS),
            scenario,
            n_dest_groups=d,
            loads=loads,
            seed=seed,
            warmup_ms=800.0 if not full else 1500.0,
            measure_ms=1200.0 if not full else 2500.0,
            executor=executor,
        )
        for d in dest_counts
    }


def figure5(
    full: bool = False,
    seed: int = 1,
    loads: Tuple[int, int] = (2, 128),
    executor: Optional[SweepExecutor] = None,
) -> Dict[int, Dict[str, List[Tuple[float, float]]]]:
    """Fig 5a–b: latency CDFs at low and high load, 2 destination groups,
    WAN distributed leaders. The extra ``whitebox-leaders`` series
    restricts White-Box samples to clients at group primaries."""
    scenario = wan_distributed_leaders()
    config = scenario.make_config()
    leader_pids: Set[int] = {
        config.initial_leader(g) for g in range(config.n_groups)
    }
    if executor is None:
        executor = SweepExecutor()
    # One flat grid (load-major, protocol-minor — the historical nesting)
    # so the executor can run all CDF points concurrently.
    specs = [
        spec
        for outstanding in loads
        for spec in expand_sweep(
            tuple(PROTOCOLS),
            scenario,
            2,
            (outstanding,),
            seed=seed,
            warmup_ms=800.0 if not full else 1500.0,
            measure_ms=1200.0 if not full else 2500.0,
            keep_samples=True,
        )
    ]
    results = iter(executor.run(specs))
    out: Dict[int, Dict[str, List[Tuple[float, float]]]] = {}
    for outstanding in loads:
        curves: Dict[str, List[Tuple[float, float]]] = {}
        for protocol in PROTOCOLS:
            result = next(results)
            lats = [lat for _, _, lat in result.samples]
            curves[protocol] = cdf_points(lats)
            if protocol == "whitebox":
                curves["whitebox-leaders"] = cdf_points(
                    result.latencies_for(leader_pids)
                )
        out[outstanding] = curves
    return out
