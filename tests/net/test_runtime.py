"""Runtime seam tests: protocol conformance of both substrates, and the
asyncio scheduler's clock.

The simulator's ``Scheduler`` + ``Network`` and the asyncio facades are
the only two implementations of the seam; every caller wires one of
them by hand.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core import PrimCastProcess, uniform_groups
from repro.election import make_oracles
from repro.net.runtime import (
    LeaderOracle,
    ProcessLike,
    SchedulerAPI,
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
