"""Runtime seam tests: protocol conformance and sim-adapter fidelity.

The critical invariant is that :class:`SimRuntime` is a *pure
aggregate*: a system built through it must produce exactly the event
schedule (and therefore delivery log) of one wired from ``Scheduler`` +
``Network`` by hand — that is what keeps the sim goldens bit-identical
across the seam extraction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core import PrimCastProcess, uniform_groups
from repro.election import make_oracles
from repro.net.runtime import (
    LeaderOracle,
    ProcessLike,
    Runtime,
    SchedulerAPI,
    SimRuntime,
    TimerHandle,
    TransportAPI,
)
from repro.sim import ConstantLatency, CostModel, Network, Scheduler, child_rng


def test_sim_classes_satisfy_the_seam_protocols():
    scheduler = Scheduler()
    network = Network(scheduler, ConstantLatency(1.0), child_rng(1, "latency"))
    assert isinstance(scheduler, SchedulerAPI)
    assert isinstance(network, TransportAPI)
    handle = scheduler.call_after(5.0, lambda: None)
    assert isinstance(handle, TimerHandle)
    config = uniform_groups(1, 3)
    proc = PrimCastProcess(0, config, scheduler, network, CostModel())
    assert isinstance(proc, ProcessLike)
    oracles = make_oracles(config.groups, {0: proc}, scheduler)
    assert all(isinstance(o, LeaderOracle) for o in oracles.values())


def test_net_classes_satisfy_the_seam_protocols():
    # Structural checks only — no event loop needed for isinstance on
    # runtime_checkable protocols.
    from repro.net.election import HeartbeatOmega
    from repro.net.host import NetScheduler, TransportFacade

    assert issubclass(NetScheduler, object)
    assert isinstance(
        HeartbeatOmega.__init__, object
    )  # importable without a loop
    # Protocol conformance is attribute-structural:
    for attr in ("_heap", "_seq", "schedule", "call_at", "call_after"):
        assert hasattr(NetScheduler, attr) or attr in ("_heap", "_seq")
    for attr in ("register", "transmit"):
        assert hasattr(TransportFacade, attr)


def _run_workload(
    scheduler: Scheduler,
    network: Network,
    runtime: Runtime = None,
) -> Dict[int, List[Tuple[Any, int]]]:
    """Wire a 2x3 primcast system onto the given substrate, drive a
    small deterministic workload, return pid -> [(mid, final_ts)]."""
    config = uniform_groups(2, 3)
    deliveries: Dict[int, List[Tuple[Any, int]]] = {pid: [] for pid in config.all_pids}
    procs = {}
    for pid in config.all_pids:
        proc = PrimCastProcess(pid, config, scheduler, network, CostModel())
        proc.add_deliver_hook(
            lambda p, m, ts: deliveries[p.pid].append((m.mid, ts))
        )
        procs[pid] = proc
    for i in range(6):
        dest = frozenset({0}) if i % 3 == 0 else frozenset({0, 1})
        scheduler.call_after(float(i), procs[0].a_multicast, dest, f"m{i}")
    driver = runtime if runtime is not None else scheduler
    if isinstance(driver, Runtime):
        driver.run(until=1_000_000.0)
    else:
        driver.run(until=1_000_000.0)
    return deliveries


def test_sim_runtime_is_bit_identical_to_hand_wiring():
    # Hand-wired substrate.
    sched_a = Scheduler()
    net_a = Network(sched_a, ConstantLatency(1.0), child_rng(7, "latency"))
    ref = _run_workload(sched_a, net_a)

    # Same substrate built through the runtime adapter.
    runtime = SimRuntime.local(seed=7)
    got = _run_workload(runtime.scheduler, runtime.network, runtime)

    assert got == ref
    assert any(ref[pid] for pid in ref)  # the workload actually delivered


def test_sim_runtime_surface():
    runtime = SimRuntime.local(seed=3)
    assert runtime.backend == "sim"
    assert runtime.now() == 0.0
    fired: List[float] = []
    handle = runtime.call_after(5.0, lambda: fired.append(runtime.now()))
    assert isinstance(handle, TimerHandle)
    runtime.call_after(2.0, lambda: fired.append(runtime.now()))
    runtime.run(until=100.0)
    assert fired == [2.0, 5.0]

    events: List[Tuple[str, Any]] = []
    runtime.add_probe_hook(lambda e, d: events.append((e, d)))
    runtime.probe("ready", 42)
    assert events == [("ready", 42)]


def test_runtime_send_goes_through_transport():
    runtime = SimRuntime.local(seed=3)
    config = uniform_groups(1, 3)
    procs = {
        pid: PrimCastProcess(
            pid, config, runtime.scheduler, runtime.transport, CostModel()
        )
        for pid in config.all_pids
    }
    delivered: List[Any] = []
    for proc in procs.values():
        proc.add_deliver_hook(lambda p, m, ts: delivered.append((p.pid, m.mid)))
    runtime.call_after(1.0, procs[0].a_multicast, frozenset({0}), "x")
    runtime.run(until=1_000_000.0)
    assert sorted(delivered) == [(0, (0, 0)), (1, (0, 0)), (2, (0, 0))]


# ----------------------------------------------------------------------
# NetScheduler: time inside a drain
# ----------------------------------------------------------------------


def test_now_stands_still_inside_a_drain_and_moves_between_drains():
    import asyncio
    import time

    from repro.net.host import NetScheduler

    async def scenario():
        sched = NetScheduler(asyncio.get_running_loop())
        seen: List[List[float]] = []

        def callback(depth: int) -> None:
            seen[-1].append(sched.now)
            time.sleep(0.002)  # real time passes ...
            seen[-1].append(sched.now)  # ... the drain's clock does not
            if depth:
                # A re-entrant push extends the running drain.
                sched.schedule(sched.now, callback, (depth - 1,))

        outside = [sched.now]
        for _ in range(3):
            seen.append([])
            sched.schedule(sched.now, callback, (4,))  # kick: one whole drain
            outside.append(sched.now)
        assert [len(stamps) for stamps in seen] == [10, 10, 10]
        assert all(len(set(stamps)) == 1 for stamps in seen)
        drains = [stamps[0] for stamps in seen]
        assert drains[0] < drains[1] < drains[2]
        # Between drains the clock is the loop's again: each drain took
        # its 10 ms, and the next reading shows it.
        assert all(after - before >= 9.0 for before, after in zip(outside, outside[1:]))
        assert all(before <= drain for before, drain in zip(outside, drains))

    asyncio.run(scenario())


def test_call_after_inside_a_drain_fires_by_real_loop_time():
    import asyncio
    import time

    from repro.net.host import NetScheduler

    async def scenario():
        loop = asyncio.get_running_loop()
        sched = NetScheduler(loop)
        armed: List[float] = []
        fired: List[float] = []
        done = asyncio.Event()

        def fire() -> None:
            fired.append(loop.time())
            done.set()

        def callback() -> None:
            time.sleep(0.03)  # the drain's clock is now 30 ms behind
            armed.append(loop.time())
            sched.call_after(10.0, fire)

        sched.schedule(sched.now, callback)
        await asyncio.wait_for(done.wait(), 5.0)
        # 10 ms after it was armed, not 10 ms after the drain began
        # (which would have been before the callback even returned).
        assert fired[0] - armed[0] >= 0.0095

    asyncio.run(scenario())


class _CountingLoop:
    """Stands in for the event loop: counts clock reads, keeps timers."""

    def __init__(self) -> None:
        self.reads = 0
        self.timers: List[Tuple[float, Any, Tuple[Any, ...]]] = []

    def time(self) -> float:
        self.reads += 1
        return self.reads * 0.001

    def call_later(self, delay: float, fn: Any, *args: Any) -> None:
        self.timers.append((delay, fn, args))


def test_call_count_loop_time_is_read_once_per_drain():
    from repro.net.host import NetScheduler

    loop = _CountingLoop()
    sched = NetScheduler(loop)  # type: ignore[arg-type]
    stamps: List[float] = []

    def handler(more: int) -> None:
        stamps.extend(sched.now for _ in range(5))
        if more:
            sched.schedule(sched.now, handler, (more - 1,))

    for expected_events in (20, 1):
        before, events = loop.reads, sched.events_processed
        del stamps[:]
        # Straight onto the heap (the seam's fast path), then one drain.
        sched._heap.append((0.0, sched._seq, handler, (expected_events - 1,)))
        sched._seq += 1
        sched.drain()
        assert sched.events_processed - events == expected_events
        assert len(stamps) == 5 * expected_events and len(set(stamps)) == 1
        assert loop.reads - before == 1
    # Outside a drain every reading is the loop's.
    before = loop.reads
    assert sched.now < sched.now and loop.reads - before == 2
    # Future work is handed to the loop's own timer, not busy-waited on.
    sched._heap.append((sched.now + 50.0, sched._seq, handler, (0,)))
    sched.drain()
    assert [(round(delay, 3), fn) for delay, fn, _ in loop.timers] == [(0.049, sched.kick)]
