"""PrimCast reproduction — a latency-efficient atomic multicast.

Full from-scratch reproduction of *PrimCast: A Latency-Efficient Atomic
Multicast* (Pacheco, Coelho, Pedone — Middleware '23), including the
baselines it is evaluated against (FastCast, White-Box), the simulation
substrate standing in for the paper's testbed, and the harness that
regenerates every table and figure of §7.

Quick start::

    from repro.harness.steps import build_bare_system

    # two groups of three PrimCast replicas, every link exactly 1 ms
    system = build_bare_system("primcast", 2, 3, delta_ms=1.0)
    system.processes[4].a_multicast({0, 1}, payload="hello")
    system.scheduler.run(until=100)
    print(system.processes[0].delivery_log)  # [(mid, final_ts, time)]

Subpackages (``import repro`` loads none of them):

* :mod:`repro.core` — the PrimCast protocol (Algorithms 1–3, §6) and the
  endpoint base every protocol shares.
* :mod:`repro.baselines` — FastCast, White-Box, Classic.
* :mod:`repro.sim` — discrete-event network/CPU/clock simulation.
* :mod:`repro.rmcast` — FIFO non-uniform reliable multicast.
* :mod:`repro.election` — the Ω leader oracle.
* :mod:`repro.verify` — atomic multicast property checkers.
* :mod:`repro.apps` — a partitioned replicated KV store built on it.
* :mod:`repro.workload` — clients and Table 2 deployment scenarios.
* :mod:`repro.harness` — experiment runner and per-figure definitions.
"""

__version__ = "1.0.0"

from ._backend import backend_info

__all__ = ["backend_info", "__version__"]
