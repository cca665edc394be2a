"""Delivery-latency decomposition (convoy diagnostics).

The paper attributes high-load latency to the *convoy effect*: a message
whose final timestamp is already known still waits for earlier-
timestamped pending messages. :class:`ConvoyProbe` instruments a
PrimCast process to separate, per delivered message,

* **commit time** — a-multicast (well, first sight) → final timestamp
  known at this process, and
* **convoy gap** — final timestamp known → actually a-delivered.

The gap is exactly the §3.2 convoy contribution; the probes are used by
the convoy ablation bench and available for ad-hoc analysis.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.messages import MessageId, Start
from ..core.process import PrimCastProcess
from .metrics import summarize


class ConvoyProbe:
    """Instrument one process's final-ts computation and delivery."""

    def __init__(self, proc: PrimCastProcess):
        self.proc = proc
        self.final_known_at: Dict[MessageId, float] = {}
        self.first_seen_at: Dict[MessageId, float] = {}
        #: per delivered message: (mid, commit_ms, convoy_gap_ms)
        self.records: List[tuple] = []

        original_final = proc.final_ts

        def final_ts(mid: MessageId) -> Optional[int]:
            result = original_final(mid)
            if result is not None and mid not in self.final_known_at:
                self.final_known_at[mid] = proc.scheduler.now
            return result

        proc.final_ts = final_ts  # type: ignore[method-assign]

        original_start = proc._r_dispatch[Start]

        def on_start(origin: int, start) -> None:
            self.first_seen_at.setdefault(start.mid, proc.scheduler.now)
            original_start(origin, start)

        proc._r_dispatch[Start] = on_start
        proc.add_deliver_hook(self._on_deliver)

    def _on_deliver(self, proc: PrimCastProcess, multicast, final_ts: int) -> None:
        now = proc.scheduler.now
        mid = multicast.mid
        known = self.final_known_at.get(mid, now)
        seen = self.first_seen_at.get(mid, known)
        self.records.append((mid, known - seen, now - known))

    def summary(self, since_ms: float = 0.0) -> Dict[str, Dict[str, float]]:
        """Latency decomposition stats over deliveries after ``since_ms``."""
        commits = []
        gaps = []
        for mid, commit, gap in self.records:
            if self.final_known_at.get(mid, 0.0) + gap >= since_ms:
                commits.append(commit)
                gaps.append(gap)
        return {"commit": summarize(commits), "convoy_gap": summarize(gaps)}


def attach_probes(processes) -> List[ConvoyProbe]:
    """Attach a probe to every PrimCast process in a collection."""
    probes = []
    for proc in (processes.values() if hasattr(processes, "values") else processes):
        if isinstance(proc, PrimCastProcess):
            probes.append(ConvoyProbe(proc))
    return probes


def merged_summary(probes: List[ConvoyProbe], since_ms: float = 0.0) -> Dict[str, Dict[str, float]]:
    """Pooled decomposition over a set of probes."""
    commits = []
    gaps = []
    for probe in probes:
        for mid, commit, gap in probe.records:
            if probe.final_known_at.get(mid, 0.0) + gap >= since_ms:
                commits.append(commit)
                gaps.append(gap)
    return {"commit": summarize(commits), "convoy_gap": summarize(gaps)}
