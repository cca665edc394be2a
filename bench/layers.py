"""Isolated per-layer measurements ("micro"): one call, fixed seeded inputs.

The µs/frame and µs/job numbers behind the cluster figures: the binary
codec per message class, one ``NetScheduler`` job, one simulator
``Scheduler`` event. Each is timed as 5 batches of 4,000 calls (20,000
in all) and reported as the median batch's µs per call, at the reference
speed (bench/speed.py).
"""

from __future__ import annotations

import asyncio
import random
import statistics
import string
from typing import Any, Callable, Dict

from repro.core.epoch import Epoch
from repro.core.messages import Ack, Multicast, Start
from repro.net.codec import FrameDecoder, encode_msg_frame
from repro.net.host import NetScheduler
from repro.rmcast.fifo import Batch, Envelope
from repro.sim.events import Scheduler

from . import speed

BATCHES = 5
CALLS_PER_BATCH = 4000


def _us_per_call(fn: Callable[[], Any]) -> float:
    samples = []
    for _ in range(BATCHES):
        with speed.Stopwatch() as batch:
            for _ in range(CALLS_PER_BATCH):
                fn()
        samples.append(batch.seconds / CALLS_PER_BATCH * 1e6)
    return statistics.median(samples)


def _messages(seed: int) -> Dict[str, Any]:
    """One wire message per class the workloads put on the wire."""
    rng = random.Random(f"layers:{seed}")
    dests = tuple(range(6))

    def text(n: int) -> str:
        return "".join(rng.choices(string.ascii_letters, k=n))

    def multicast(size: int) -> Multicast:
        return Multicast((rng.randrange(6), rng.randrange(1 << 16)), frozenset((0, 1)), text(size))

    def ack() -> Envelope:
        epoch = Epoch(0, 0)
        payload = Ack(multicast(64), rng.randrange(2), epoch, rng.randrange(1 << 20),
                      rng.randrange(6), (epoch, rng.randrange(1 << 16)))
        return Envelope(payload.sender, rng.randrange(1 << 16), payload, dests)

    return {
        "ack": ack(),
        "start64": Envelope(0, rng.randrange(1 << 16), Start(multicast(64)), dests),
        "start16k": Envelope(0, rng.randrange(1 << 16), Start(multicast(16 * 1024)), dests[:3]),
        "batch8": Batch(tuple(ack() for _ in range(8))),
    }


def measure(seed: int) -> Dict[str, float]:
    """All micro metrics, by their BENCHMARK.json names."""
    out: Dict[str, float] = {}
    for name, msg in _messages(seed).items():
        frame = encode_msg_frame(0, msg, binary=True)
        decoder = FrameDecoder()
        if len(decoder.feed(frame)) != 1:
            raise RuntimeError(f"{name}: frame did not decode to one message")
        out[f"codec.encode_us.{name}"] = _us_per_call(lambda: encode_msg_frame(0, msg, binary=True))
        out[f"codec.decode_us.{name}"] = _us_per_call(lambda: decoder.feed(frame))

    def noop() -> None:
        pass

    # A NetScheduler job: push on the seam's heap, drained at once (the
    # scheduler only reads the loop's clock; the loop never runs).
    loop = asyncio.new_event_loop()
    try:
        net_sched = NetScheduler(loop)
        out["host.sched_us_per_job"] = _us_per_call(lambda: net_sched.schedule(0.0, noop))
    finally:
        loop.close()

    # A simulator event: a batch is scheduled untimed, then run.
    samples = []
    for _ in range(BATCHES):
        sched = Scheduler()
        for i in range(CALLS_PER_BATCH):
            sched.schedule(float(i), noop)
        with speed.Stopwatch() as batch:
            sched.run()
        samples.append(batch.seconds / CALLS_PER_BATCH * 1e6)
    out["sim.sched_us_per_event"] = statistics.median(samples)
    return out
