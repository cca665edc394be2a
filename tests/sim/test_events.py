"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.events import Scheduler


def test_initial_state():
    sched = Scheduler()
    assert sched.now == 0.0
    assert sched.events_processed == 0
    assert sched.pending() == 0


def test_events_run_in_time_order():
    sched = Scheduler()
    fired = []
    sched.call_at(5.0, fired.append, "b")
    sched.call_at(1.0, fired.append, "a")
    sched.call_at(9.0, fired.append, "c")
    sched.run()
    assert fired == ["a", "b", "c"]
    assert sched.now == 9.0


def test_ties_break_by_insertion_order():
    sched = Scheduler()
    fired = []
    for name in "abcde":
        sched.call_at(3.0, fired.append, name)
    sched.run()
    assert fired == list("abcde")


def test_call_after_is_relative():
    sched = Scheduler()
    fired = []
    sched.call_at(10.0, lambda: sched.call_after(5.0, lambda: fired.append(sched.now)))
    sched.run()
    assert fired == [15.0]


def test_run_until_stops_before_later_events():
    sched = Scheduler()
    fired = []
    sched.call_at(1.0, fired.append, 1)
    sched.call_at(100.0, fired.append, 100)
    sched.run(until=50.0)
    assert fired == [1]
    assert sched.now == 50.0
    # The later event is still queued and fires on the next run.
    sched.run()
    assert fired == [1, 100]


def test_run_until_advances_now_even_without_events():
    sched = Scheduler()
    sched.run(until=42.0)
    assert sched.now == 42.0


def test_cancel_prevents_firing():
    sched = Scheduler()
    fired = []
    handle = sched.call_at(1.0, fired.append, "x")
    handle.cancel()
    sched.call_at(2.0, fired.append, "y")
    sched.run()
    assert fired == ["y"]


def test_pending_counts_only_armed_events():
    sched = Scheduler()
    h1 = sched.call_at(1.0, lambda: None)
    sched.call_at(2.0, lambda: None)
    h1.cancel()
    assert sched.pending() == 1


def test_cannot_schedule_in_the_past():
    sched = Scheduler()
    sched.call_at(10.0, lambda: None)
    sched.run()
    with pytest.raises(ValueError):
        sched.call_at(5.0, lambda: None)


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(ValueError):
        sched.call_after(-1.0, lambda: None)


def test_stop_from_within_event():
    sched = Scheduler()
    fired = []
    sched.call_at(1.0, fired.append, 1)
    sched.call_at(2.0, sched.stop)
    sched.call_at(3.0, fired.append, 3)
    sched.run()
    assert fired == [1]
    sched.run()
    assert fired == [1, 3]


def test_events_scheduled_during_run_are_processed():
    sched = Scheduler()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 5:
            sched.call_after(1.0, chain, depth + 1)

    sched.call_at(0.0, chain, 0)
    sched.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sched.now == 5.0


def test_events_processed_counter():
    sched = Scheduler()
    for i in range(4):
        sched.call_at(float(i), lambda: None)
    sched.run()
    assert sched.events_processed == 4


def test_cancelled_events_do_not_leak():
    """Regression: arming and cancelling many timers must not grow the
    heap without bound (the scheduler compacts cancelled entries once
    they dominate)."""
    sched = Scheduler()
    for i in range(10_000):
        handle = sched.call_at(1000.0 + i, lambda: None)
        handle.cancel()
    # Far fewer than 10k entries may remain; the compaction threshold
    # keeps the heap within a small constant factor of the live count.
    assert len(sched._heap) < 1000
    assert sched.pending() == 0
    sched.run()
    assert sched.events_processed == 0


def test_cancelled_burst_keeps_live_timers():
    """Compaction during a cancel burst must not disturb live events."""
    sched = Scheduler()
    fired = []
    live = [sched.call_at(float(i), fired.append, i) for i in range(10)]
    for i in range(5000):
        sched.call_at(500.0 + i, fired.append, -1).cancel()
    assert sched.pending() == 10
    sched.run()
    assert fired == list(range(10))
    assert all(not h.cancelled for h in live)


def test_cancel_is_idempotent():
    sched = Scheduler()
    handle = sched.call_at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()  # double cancel must not corrupt the counter
    assert sched.pending() == 0
    sched.run()
    assert sched.events_processed == 0


def test_run_pauses_gc_and_restores_prior_state():
    """Scheduler.run disables the generational GC for the duration of
    the loop and restores whatever state it found — including when the
    caller had already disabled it."""
    import gc

    sched = Scheduler()
    observed = []
    sched.call_at(1.0, lambda: observed.append(gc.isenabled()))
    assert gc.isenabled()
    sched.run()
    assert observed == [False]
    assert gc.isenabled()

    sched2 = Scheduler()
    observed2 = []
    sched2.call_at(1.0, lambda: observed2.append(gc.isenabled()))
    gc.disable()
    try:
        sched2.run()
        assert observed2 == [False]
        assert not gc.isenabled()  # caller's disable is preserved
    finally:
        gc.enable()


def test_run_under_gc_pressure_is_identical():
    """A run executed with the collector disabled and cyclic garbage
    accumulating must produce exactly the same results as a clean run:
    the schedule is a pure function of the inputs, never of collector
    timing (DESIGN.md §9 — the gc pause around the loop is a pure
    optimisation)."""
    import gc

    from repro.harness.runner import run_load_point
    from repro.workload.scenarios import wan_colocated_leaders

    def run_once():
        return run_load_point(
            "primcast",
            wan_colocated_leaders(),
            2,
            4,
            seed=1,
            warmup_ms=100.0,
            measure_ms=150.0,
            keep_samples=True,
        )

    baseline = run_once()

    gc.disable()
    cycles = []
    try:
        # Cyclic garbage the disabled collector cannot reclaim; with the
        # collector running this allocation pattern would trigger many
        # generation-0 passes mid-run.
        for i in range(10_000):
            node = {"i": i}
            node["self"] = node
            cycles.append(node)
        pressured = run_once()
    finally:
        cycles.clear()
        gc.enable()
        gc.collect()

    assert pressured.samples == baseline.samples
    assert pressured.message_counts == baseline.message_counts
    assert pressured.events == baseline.events
    assert pressured.throughput == baseline.throughput
    assert pressured.latency == baseline.latency
