"""Loosely synchronized physical clocks (§6).

The hybrid-clock variant of PrimCast assumes each server can read a
hardware clock synchronized to real time within a maximum skew of
``epsilon`` (so any two clocks are within ``2 * epsilon`` of each other).
We model this with a per-process constant offset drawn uniformly from
``[-epsilon, +epsilon]``; clocks run at the rate of true time. Readings are
returned in integer **microseconds** so they can be mixed with the
protocol's integer logical timestamps (``clock = max(clock+1,
real-clock())`` requires a shared domain).
"""

from __future__ import annotations

import random
from typing import Dict, List

from .events import Scheduler

#: Microseconds per simulated millisecond.
US_PER_MS = 1000


class PhysicalClock:
    """A hardware clock with bounded skew from simulated real time.

    Args:
        scheduler: source of true simulated time.
        offset_us: constant offset from true time, in microseconds.
    """

    __slots__ = ("scheduler", "offset_us")

    def __init__(self, scheduler: Scheduler, offset_us: float = 0.0) -> None:
        self.scheduler = scheduler
        self.offset_us = offset_us

    def read_us(self) -> int:
        """Current clock reading in integer microseconds."""
        return int(self.scheduler.now * US_PER_MS + self.offset_us)


def make_clocks(
    scheduler: Scheduler,
    pids: List[int],
    epsilon_ms: float,
    rng: random.Random,
) -> Dict[int, PhysicalClock]:
    """Create one clock per process with offsets in ``[-eps, +eps]``.

    Args:
        epsilon_ms: maximum skew from real time, in milliseconds
            (pairwise skew is at most ``2 * epsilon_ms``).
    """
    if epsilon_ms < 0:
        raise ValueError("epsilon must be non-negative")
    clocks: Dict[int, PhysicalClock] = {}
    for pid in pids:
        offset_us = rng.uniform(-epsilon_ms, epsilon_ms) * US_PER_MS
        clocks[pid] = PhysicalClock(scheduler, offset_us)
    return clocks
