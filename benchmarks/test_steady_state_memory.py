"""State-GC memory gate (DESIGN.md §8): bounded steady-state memory.

Without truncation every process keeps tracking state for every message
ever ordered, O(messages sent); with the compaction daemon it is
O(in-flight). The same sustained load point runs twice under
tracemalloc — daemon at its default interval, then disabled. Both peaks
also hold what every run keeps, the same on both sides: each process's
``delivery_log`` and each client's latency samples. Allocation counting
is stable on shared machines (unlike wall time), so CI runs this as a
hard gate (~3 min)::

    PYTHONPATH=src python -m pytest benchmarks/test_steady_state_memory.py -q -s
"""

import tracemalloc

from repro.harness.runner import run_load_point
from repro.workload.scenarios import lan_sustained


def traced_run(**compaction):
    tracemalloc.start()
    try:
        result = run_load_point(
            "primcast",
            lan_sustained(),
            2,
            4,
            seed=1,
            warmup_ms=500.0,
            measure_ms=6500.0,
            keep_samples=False,
            **compaction,
        )
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_state_gc_bounds_steady_state_memory():
    on_peak, on = traced_run()
    off_peak, off = traced_run(compaction_interval_ms=0.0)
    ratio = on_peak / off_peak
    print(
        f"\npeak {on_peak / 1e6:.1f} MB (GC on) vs {off_peak / 1e6:.1f} MB "
        f"(GC off) = {ratio:.4f}; delivered {on.latency['count']} vs "
        f"{off.latency['count']}"
    )
    assert ratio < 0.5, f"GC-on peak is {ratio:.2f}x of GC-off (bar: < 0.5)"
    # The sweep only discards state the protocol cannot read: identical
    # schedules deliver identical messages.
    assert on.latency["count"] == off.latency["count"] > 0
    assert on.throughput / off.throughput > 0.999
