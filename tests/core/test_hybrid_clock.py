"""Tests for the §6 hybrid-clock variant (PrimCast HC)."""

import pytest

from helpers import MiniSystem, random_workload
from repro.core.config import uniform_groups
from repro.harness.runner import make_processes
from repro.harness.steps import measure_primcast_convoy
from repro.sim import ConstantLatency, Network, Scheduler, child_rng
from repro.verify import collect_violations


def test_hybrid_requires_physical_clock():
    config = uniform_groups(1, 3)
    sched = Scheduler()
    net = Network(sched, ConstantLatency(1.0), child_rng(1, "n"))
    with pytest.raises(ValueError, match="primcast-hc"):
        make_processes("primcast-hc", config, sched, net, None, clocks=None)


def test_hybrid_timestamps_track_real_time():
    sys_ = MiniSystem(n_groups=2, hybrid_clock=True, epsilon_ms=0.1)
    sys_.scheduler.call_at(50.0, lambda: sys_.multicast(0, {0, 1}))
    sys_.run_to_quiescence()
    (mid, final, _), = sys_.deliveries[3]
    # Proposal happened around t=51ms; the timestamp is in microseconds
    # of skewed real time.
    assert 45_000 < final < 60_000


def test_hybrid_still_monotone_when_clock_behind():
    """clock = max(clock+1, real-clock): with a badly lagging hardware
    clock the logical +1 still guarantees monotonicity."""
    sys_ = MiniSystem(n_groups=1, hybrid_clock=True, epsilon_ms=0.0)
    proc = sys_.processes[0]
    proc.physical_clock.offset_us = -10_000_000  # 10s in the past
    for _ in range(5):
        sys_.multicast(0, {0})
    sys_.run_to_quiescence()
    finals = [ts for _, ts, _ in sys_.deliveries[0]]
    assert finals == sorted(finals)
    assert len(set(finals)) == 5


def test_hybrid_ordering_properties_hold():
    sys_ = MiniSystem(n_groups=3, hybrid_clock=True, epsilon_ms=2.0)
    random_workload(sys_, 60, seed=13)
    sys_.run_to_quiescence()
    assert collect_violations(
        sys_.logs, set(sys_.multicasts), sys_.dest_pids_of(), sys_.correct_pids()
    ) == []


def test_hybrid_collision_free_latency_unchanged():
    sys_ = MiniSystem(n_groups=2, hybrid_clock=True, epsilon_ms=0.5)
    sys_.multicast(4, {0, 1})
    sys_.run()
    for pid in range(6):
        assert sys_.deliveries[pid][0][2] == pytest.approx(3.0, abs=1e-6)


def test_hybrid_reduces_worst_case_convoy():
    """§6: failure-free latency drops from 5Δ to 4Δ + 2ε."""
    plain = measure_primcast_convoy(hybrid=False, delta_ms=10.0)
    hc = measure_primcast_convoy(hybrid=True, delta_ms=10.0, epsilon_ms=1.0)
    assert plain["measured_steps"] > 4.5
    assert plain["measured_steps"] <= plain["analytic_steps"] + 0.01
    assert hc["measured_steps"] <= hc["analytic_steps"] + 0.01
    assert hc["measured_steps"] < plain["measured_steps"] - 0.5


def test_hybrid_bound_scales_with_epsilon():
    small = measure_primcast_convoy(hybrid=True, delta_ms=10.0, epsilon_ms=0.5)
    large = measure_primcast_convoy(hybrid=True, delta_ms=10.0, epsilon_ms=3.0)
    assert small["measured_steps"] < large["measured_steps"]
    # Neither exceeds min(5, 4 + 2*eps/delta).
    assert large["measured_steps"] <= 5.0


def test_unsynchronized_clocks_do_not_break_correctness():
    """§6: the modification cannot hurt correctness even with wild skew."""
    sys_ = MiniSystem(n_groups=2, hybrid_clock=True, epsilon_ms=500.0, seed=3)
    random_workload(sys_, 40, seed=17)
    sys_.run_to_quiescence()
    assert collect_violations(
        sys_.logs, set(sys_.multicasts), sys_.dest_pids_of(), sys_.correct_pids()
    ) == []
