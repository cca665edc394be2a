"""The four workloads and their seeded plans.

A plan is a pure function of (workload name, seed): the program under
test receives only what these functions generate. Randomness comes from
``random.Random`` seeded with a string, which hashes with SHA-512 and is
therefore identical across processes and interpreter runs.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Tuple

#: Loopback cluster shape shared by the three net workloads.
N_GROUPS = 2
GROUP_SIZE = 3
N_PIDS = N_GROUPS * GROUP_SIZE

#: A growing backlog: an open-loop run with more messages than this
#: outstanding is not measuring latency any more and fails the workload.
MAX_OUTSTANDING = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # "net" (loopback cluster) or "sim" (simulator)
    loop: str = ""  # "open" (scheduled arrivals) or "closed" (windowed clients)
    rate_hz: float = 0.0  # open loop: total offered rate over all submitters
    window: int = 0  # closed loop: outstanding messages per client (one client per pid)
    batching_ms: float = 0.0  # rmcast ack/bump batching window (paper §7.1)
    payload_bytes: int = 64
    dests: str = ""  # "both" groups, "home" group only, or "mixed" (home + other w.p. 1/2)
    #: Peak memory is read when this many messages are done (0: when the
    #: run ends). A closed loop completes more messages the faster the
    #: program is, and memory grows with every message kept in the logs:
    #: read at the run's end, a faster program would show as a fatter one.
    rss_at_msgs: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="net_global_open",
            why="Every message to both groups at 60 msg/s open loop, batching off: "
            "~41 small frames and ~35 socket writes per message, so per-frame cost is the latency.",
            backend="net",
            loop="open",
            rate_hz=60.0,
            dests="both",
        ),
        Workload(
            name="net_local_16k_open",
            why="Home-group-only 16 KiB messages at 75 msg/s open loop: few frames but ~130 KB "
            "on the wire per message, so per-byte cost dominates; no cross-group frames (genuineness).",
            backend="net",
            loop="open",
            rate_hz=75.0,
            payload_bytes=16 * 1024,
            dests="home",
        ),
        Workload(
            name="net_mixed_closed",
            why="Saturation: 6 closed-loop clients with window 8, batching_ms=5, half the messages "
            "global: coalescing and batching make writes rare, codec and handlers set throughput.",
            backend="net",
            loop="closed",
            window=8,
            batching_ms=5.0,
            dests="mixed",
            rss_at_msgs=8000,
        ),
        Workload(
            name="sim_wan_d2",
            why="The simulator backend, no wire: 8x3 WAN colocated leaders, 2 destinations, 32 "
            "outstanding; only core/rmcast/sim changes move it, and latency is the modelled WAN's.",
            backend="sim",
        ),
    )
}

#: The simulator load point (the repo's perf-smoke point: 660,110 events
#: at seed 1 with state compaction off).
SIM_PROTOCOL = "primcast"
SIM_DESTS = 2
SIM_OUTSTANDING = 32
SIM_WARMUP_MS = 300.0
SIM_MEASURE_MS = 400.0
#: (events, wire messages, delivered msgs/s) of that point at seed 1.
SIM_SEED1_COUNTS = (660110, 346698, 10815.0)


def _rng(workload: Workload, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload.name}:{seed}:{stream}")


def _pick_dests(workload: Workload, pid: int, rng: random.Random) -> FrozenSet[int]:
    home = pid // GROUP_SIZE
    if workload.dests == "home":
        return frozenset((home,))
    if workload.dests == "mixed" and rng.random() < 0.5:
        return frozenset((home,))
    return frozenset(range(N_GROUPS))


#: One open-loop operation: (due time in s from the run's start,
#: submitting pid, destination group ids).
OpenOp = Tuple[float, int, FrozenSet[int]]


def open_plan(workload: Workload, seed: int, horizon_s: float) -> List[OpenOp]:
    """Arrivals of a Poisson process of ``rate_hz`` over ``[0, horizon_s)``,
    conditioned on its expected count (sorted uniform arrival times), so
    every seed offers the same number of messages."""
    rng = _rng(workload, seed, "open")
    n = round(workload.rate_hz * horizon_s)
    dues = sorted(rng.uniform(0.0, horizon_s) for _ in range(n))
    plan = []
    for due in dues:
        pid = rng.randrange(N_PIDS)
        plan.append((due, pid, _pick_dests(workload, pid, rng)))
    return plan


def closed_plan(workload: Workload, seed: int, pid: int) -> Iterator[FrozenSet[int]]:
    """Destination sets of the closed-loop client at ``pid``, in
    submission order (unbounded: the run length decides how many are used)."""
    rng = _rng(workload, seed, f"closed-{pid}")
    while True:
        yield _pick_dests(workload, pid, rng)


def payload_base(workload: Workload, seed: int) -> str:
    """All but the last 8 characters of every payload of the run."""
    rng = _rng(workload, seed, "payload")
    return "".join(rng.choices(string.ascii_letters, k=workload.payload_bytes - 8))


def payload(base: str, index: int) -> str:
    """The ``index``-th payload: ASCII, so one byte per character on the
    wire, and a distinct object and content for every message."""
    return f"{base}{index:08x}"
