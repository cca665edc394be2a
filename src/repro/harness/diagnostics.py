"""Delivery-latency decomposition (convoy diagnostics).

The paper attributes high-load latency to the *convoy effect*: a message
whose final timestamp is already known still waits for earlier-
timestamped pending messages. :class:`ConvoyProbe` observes a
PrimCast process to separate, per delivered message,

* **commit time** — a-multicast (well, first sight) → final timestamp
  known at this process, and
* **convoy gap** — final timestamp known → actually a-delivered.

The gap is exactly the §3.2 convoy contribution. No benchmark uses the
probes; they are there for ad-hoc analysis.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.messages import MessageId, Start
from ..core.process import PrimCastProcess
from .metrics import summarize


class ConvoyProbe:
    """Observe when one process learns each final timestamp (its
    ``ack_quorum`` probe) and when it delivers."""

    def __init__(self, proc: PrimCastProcess):
        self.proc = proc
        self.final_known_at: Dict[MessageId, float] = {}
        self.first_seen_at: Dict[MessageId, float] = {}
        #: per delivered message: (mid, commit_ms, convoy_gap_ms)
        self.records: List[tuple] = []

        # A final timestamp becomes known when the last destination
        # group's ack quorum completes.
        proc.add_probe_hook(self._on_ack_quorum, ("ack_quorum",))

        original_start = proc._r_dispatch[Start]

        def on_start(origin: int, start) -> None:
            self.first_seen_at.setdefault(start.mid, proc.scheduler.now)
            original_start(origin, start)

        proc._r_dispatch[Start] = on_start
        proc.add_deliver_hook(self._on_deliver)

    def _on_ack_quorum(self, proc: PrimCastProcess, event: str, mid: Any) -> None:
        if mid not in self.final_known_at and proc.final_ts(mid) is not None:
            self.final_known_at[mid] = proc.scheduler.now

    def _on_deliver(self, proc: PrimCastProcess, multicast, final_ts: int) -> None:
        now = proc.scheduler.now
        mid = multicast.mid
        known = self.final_known_at.get(mid, now)
        seen = self.first_seen_at.get(mid, known)
        self.records.append((mid, known - seen, now - known))

    def since(self, since_ms: float) -> List[tuple]:
        """The records of deliveries at or after ``since_ms``."""
        return [
            record
            for record in self.records
            if self.final_known_at.get(record[0], 0.0) + record[2] >= since_ms
        ]

    def summary(self, since_ms: float = 0.0) -> Dict[str, Dict[str, float]]:
        """Latency decomposition stats over deliveries after ``since_ms``."""
        return merged_summary([self], since_ms)


def attach_probes(processes) -> List[ConvoyProbe]:
    """Attach a probe to every PrimCast process in a collection."""
    probes = []
    for proc in (processes.values() if hasattr(processes, "values") else processes):
        if isinstance(proc, PrimCastProcess):
            probes.append(ConvoyProbe(proc))
    return probes


def merged_summary(probes: List[ConvoyProbe], since_ms: float = 0.0) -> Dict[str, Dict[str, float]]:
    """Pooled decomposition over a set of probes."""
    records = [record for probe in probes for record in probe.since(since_ms)]
    return {
        "commit": summarize([commit for _, commit, _ in records]),
        "convoy_gap": summarize([gap for _, _, gap in records]),
    }
