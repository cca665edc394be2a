"""Runtime seam tests: protocol conformance of both substrates, and the
asyncio scheduler's clock.

The simulator's ``Scheduler`` + ``Network`` and the asyncio facades are
the only two implementations of the seam; every caller wires one of
them by hand.
"""

from __future__ import annotations

from typing import List

from helpers import CountingLoop, serving_node
from repro.core import Multicast, PrimCastProcess, Start, uniform_groups
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


def test_call_count_loop_time_is_read_once_per_drain():
    from repro.net.host import NetScheduler

    loop = CountingLoop()
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


def test_call_count_one_clock_read_per_received_frame_and_per_timer(tmp_path):
    # A stimulus reads the clock once and everything it causes shares
    # that reading: for a received frame Ω's receipt stamp, the enqueue
    # (two reads of ``now``) and the drain; for a timer its callback and
    # the drain after it.
    from repro.net.codec import FrameDecoder, encode_msg_frame
    from repro.rmcast.fifo import Envelope

    loop = CountingLoop()
    node, transport = serving_node(tmp_path, loop)  # pid 0: group 0's primary
    sched = node.runtime.net_scheduler

    def received(src, msg):
        before = loop.reads
        (frame,) = FrameDecoder().feed(encode_msg_frame(src, msg, binary=True))
        node._on_frame(src, frame)
        return loop.reads - before

    # A global message from pid 3 (group 1): the primary acks it to all
    # six destinations, one envelope staged for the five remote ones.
    start = Start(Multicast((3, 0), frozenset({0, 1}), "x" * 64))
    assert received(3, Envelope(3, 0, start, tuple(range(6)))) == 1
    assert sorted(dst for dst, _ in transport.sent) == [1, 2, 3, 4, 5]
    assert len({id(data) for _, data in transport.sent}) == 1
    # A member's frame: one reading, and Ω's stamp is that reading.
    assert received(1, Envelope(1, 0, start, (0,))) == 1
    assert node.omega._last_heard[1] == float(loop.reads)
    # A job posted with no delay goes to call_soon, not the timer heap,
    # and its run — the job, its a_multicast, the drain — reads once.
    del transport.sent[:]
    node.proc.post_job(lambda: node.proc.a_multicast(frozenset({0, 1}), "y"))
    (fire, args), = loop.soon
    assert loop.timers == [] and fire == sched._fire
    before = loop.reads
    fire(*args)
    # The start, and the primary's own ack: two envelopes, five peers.
    assert loop.reads - before == 1 and len(transport.sent) == 10
    assert len({id(data) for _, data in transport.sent}) == 2
    # Ω's round: its election and its re-arm share one reading too.
    when, fire, args = loop.at[-1]
    before = loop.reads
    fire(*args)
    assert loop.reads - before == 1 and len(loop.at) == 2
