"""§7.1 ack/bump batching on the simulator, end to end.

The documented point (EXPERIMENTS.md, "Batching"): the Fig-3 scenario at
2 destination groups, 8 outstanding, 700 ms simulated, with the
per-channel coalescing window off and at 2 ms. The run is deterministic,
so the counts are pinned exactly; the batched run's delivery logs then
go through the ``repro.verify`` battery, so the layer is checked for
order and agreement, not only for how many wire messages it saves.
"""

from dataclasses import replace

import pytest

import repro.harness.runner as runner
from repro.verify import collect_violations
from repro.workload.scenarios import wan_colocated_leaders


def run_point(batching_ms):
    return runner.run_load_point(
        "primcast",
        replace(wan_colocated_leaders(), batching_ms=batching_ms),
        2,
        8,
        seed=1,
        warmup_ms=300,
        measure_ms=400,
        keep_samples=False,
    )


def test_batching_halves_wire_messages_and_keeps_the_order(monkeypatch):
    off = run_point(0)
    assert sum(off.message_counts.values()) == 97_434
    assert off.message_counts.get("batch", 0) == 0
    assert off.events == 186_459

    # Keep hold of the batched system: deliver hooks add no events, so
    # the pinned counts below are those of a plain run_load_point call.
    systems, dest_of = [], {}
    build_system = runner.build_system

    def capturing_build_system(*args, **kwargs):
        system = build_system(*args, **kwargs)
        for proc in system.replicas:
            proc.add_deliver_hook(lambda p, m, ts: dest_of.setdefault(m.mid, m.dest))
        systems.append(system)
        return system

    monkeypatch.setattr(runner, "build_system", capturing_build_system)
    on = run_point(2)
    assert sum(on.message_counts.values()) == 51_675  # -47 %
    assert on.message_counts["batch"] == 12_976
    assert on.events == 124_596
    assert (round(off.throughput), round(on.throughput)) == (2_875, 2_720)
    assert on.throughput >= 0.8 * off.throughput

    # The run was cut at 700 ms with messages in flight; the clients are
    # stopped, so draining completes exactly those and agreement is
    # checkable.
    (system,) = systems
    system.scheduler.run(until=2_000.0)
    logs = {proc.pid: list(proc.delivery_log) for proc in system.replicas}
    assert sum(len(log) for log in logs.values()) > 6 * 0.7 * on.throughput
    assert collect_violations(
        logs,
        set(dest_of),
        {mid: set(system.config.dest_pids(dest)) for mid, dest in dest_of.items()},
        set(system.config.all_pids),
    ) == []


@pytest.mark.parametrize("batching_ms", [-1.0, float("nan"), float("inf")])
def test_a_batching_window_that_is_not_finite_and_non_negative_is_rejected(batching_ms):
    # With NaN, ``batching_ms > 0`` is false: the run would go unbatched.
    with pytest.raises(ValueError, match="batching_ms must be finite and >= 0"):
        runner.build_system("primcast", replace(wan_colocated_leaders(), batching_ms=batching_ms))
