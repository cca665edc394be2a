"""How fast this box is right now, measured while the workload runs.

The benchmark's home is a shared 2-vCPU microVM whose speed for one and
the same piece of Python moves by 20-50 % over minutes (host steal and
sibling-thread contention; CPU time is inflated just like wall time).
Every reported time would carry that as noise, so a fixed *unit* of work
— a little of what the program does: dict stores, struct packing and
unpacking into a bytearray — is timed alongside the workload, and each
measured stretch is scaled to the speed of the quiet home box:

    reported time = measured time * speed
    speed = (unit time on the quiet home box) / (mean unit time in that stretch)

On ten same-code runs of ``net_global_open`` this cut the run-to-run
spread of the cost and latency metrics three- to five-fold
(bench/README.md has the numbers). The unit is benchmark code: no change
to the program can alter it.

A unit is sampled in one of two ways, each with its own quiet-box time
because caches make them differ: one at a time from the event loop, cold,
between the program's callbacks (:class:`Ticker`), or several back to
back between two stretches of work (:func:`burst`, :class:`Stopwatch`).
"""

from __future__ import annotations

import asyncio
import struct
import time
from bisect import bisect_left
from typing import List

#: µs per unit on the quiet home box: one cold unit / units back to back.
REF_TICK_US = 60.0
REF_BURST_US = 40.0
#: Period of the on-loop ticker: ~0.3 % of one core.
TICK_S = 0.025

_PACK = struct.Struct("!IHQQ")


def unit() -> int:
    """The fixed piece of work."""
    table = {}
    buf = bytearray()
    for i in range(150):
        table[i & 31] = (i, i * 3)
        buf += _PACK.pack(i, i & 0xFFFF, i * 7, i * 11)
    for offset in range(0, len(buf), _PACK.size):
        _PACK.unpack_from(buf, offset)
    return len(table)


def tick() -> float:
    """The box's speed from one unit, cold: call it between other work."""
    start = time.perf_counter()
    unit()
    return REF_TICK_US / ((time.perf_counter() - start) * 1e6)


def burst(n: int = 10) -> float:
    """The box's speed over ``n`` units run back to back (~0.5 ms)."""
    start = time.perf_counter()
    for _ in range(n):
        unit()
    return REF_BURST_US * n / ((time.perf_counter() - start) * 1e6)


class Stopwatch:
    """``with Stopwatch() as sw: ...`` — ``sw.seconds`` is the block's
    wall time at the reference speed, from a burst on either side."""

    seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._speed = burst()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._start
        self.seconds = elapsed * (self._speed + burst()) / 2


class Ticker:
    """Times one unit every :data:`TICK_S` on the running event loop."""

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._times: List[float] = []
        self._units_us: List[float] = []
        self._running = True
        self._loop.call_soon(self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        start = time.perf_counter()
        unit()
        self._times.append(start)
        self._units_us.append((time.perf_counter() - start) * 1e6)
        self._loop.call_later(TICK_S, self._tick)

    def stop(self) -> None:
        self._running = False

    def speed(self, start: float, end: float) -> float:
        """The box's speed over ``[start, end)`` (``perf_counter`` seconds),
        from the mean unit time — not the median: a segment's CPU total
        collects every slow moment too."""
        lo, hi = bisect_left(self._times, start), bisect_left(self._times, end)
        if lo == hi:
            raise RuntimeError("no speed sample in the segment")
        return REF_TICK_US * (hi - lo) / sum(self._units_us[lo:hi])
