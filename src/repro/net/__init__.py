"""`repro.net` — the real-network backend.

Runs the *same* protocol processes that drive the simulator over
asyncio TCP sockets with real wall clocks:

* :mod:`repro.net.runtime` — the backend-agnostic seam: the
  ``SchedulerAPI`` / ``TransportAPI`` / ``LeaderOracle`` /
  ``TimerHandle`` protocols that the simulator's classes and the
  asyncio facades both satisfy;
* :mod:`repro.net.codec` — length-prefixed framing for the wire
  messages in two self-describing body formats, canonical JSON and
  compact binary, both derived from one message schema (lossless
  round trips, exhaustive over the message classes);
* :mod:`repro.net.transport` — per-peer connection manager with
  reconnect + exponential backoff;
* :mod:`repro.net.host` — the asyncio adapter: scheduler/transport
  facades hosting unmodified ``PrimCastProcess`` objects with their
  heartbeat Ω (:mod:`repro.election`), one node per
  OS process, and ``ClusterSpec``, the one description of a cluster
  (groups, addresses, workload, kill point) that every node reads;
* :mod:`repro.net.cluster` — multi-process localhost cluster launcher;
* :mod:`repro.net.differential` — sim-vs-net differential harness.

Only the seam module is imported eagerly; the asyncio machinery loads
on demand so the simulation path never pays for it.
"""

from .runtime import (
    LeaderOracle,
    SchedulerAPI,
    TimerHandle,
    TransportAPI,
)

__all__ = [
    "LeaderOracle",
    "SchedulerAPI",
    "TimerHandle",
    "TransportAPI",
]
