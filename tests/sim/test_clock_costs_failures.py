"""Unit tests for physical clocks, cost models, failure injection, RNG."""

import random

import pytest

from repro.sim.clock import US_PER_MS, PhysicalClock, make_clocks
from repro.sim.costs import CostModel, default_cost_model, zero_cost_model
from repro.sim.events import Scheduler
from repro.sim.failures import FailureInjector, max_failures
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.sim.rng import child_rng, child_seed


class Dummy(SimProcess):
    def on_message(self, src, msg):
        pass


class TestPhysicalClock:
    def test_reads_track_simulated_time(self):
        sched = Scheduler()
        clock = PhysicalClock(sched)
        sched.call_at(12.5, lambda: None)
        sched.run()
        assert clock.read_us() == int(12.5 * US_PER_MS)

    def test_offset_applies(self):
        sched = Scheduler()
        clock = PhysicalClock(sched, offset_us=500.0)
        assert clock.read_us() == 500

    def test_make_clocks_bounded_skew(self):
        sched = Scheduler()
        clocks = make_clocks(sched, list(range(50)), 2.0, random.Random(1))
        assert len(clocks) == 50
        for c in clocks.values():
            assert abs(c.offset_us) <= 2.0 * US_PER_MS

    def test_make_clocks_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            make_clocks(Scheduler(), [0], -1.0, random.Random(1))

    def test_monotone_with_positive_offsets(self):
        sched = Scheduler()
        clock = PhysicalClock(sched, offset_us=10.0)
        r1 = clock.read_us()
        sched.call_at(5.0, lambda: None)
        sched.run()
        assert clock.read_us() >= r1


class _Kind:
    def __init__(self, kind):
        self.kind = kind


class TestCostModel:
    def test_defaults_are_zero(self):
        model = CostModel()
        assert model.recv_cost(_Kind("anything")) == 0.0
        assert model.send_cost(_Kind("anything")) == 0.0

    def test_per_kind_lookup(self):
        model = CostModel({"a": 1.0}, {"a": 0.5}, default_recv=0.1, default_send=0.05)
        assert model.recv_cost(_Kind("a")) == 1.0
        assert model.send_cost(_Kind("a")) == 0.5
        assert model.recv_cost(_Kind("b")) == 0.1
        assert model.send_cost(_Kind("b")) == 0.05

    def test_kindless_message_uses_default(self):
        model = CostModel(default_recv=0.3)
        assert model.recv_cost(object()) == 0.3

    def test_default_model_charges_payload_more_than_control(self):
        model = default_cost_model()
        assert model.recv_cost(_Kind("start")) > model.recv_cost(_Kind("ack"))
        assert model.recv_cost(_Kind("wb-accept")) > model.recv_cost(_Kind("wb-ack"))
        assert model.recv_cost(_Kind("fc-2a")) > model.recv_cost(_Kind("fc-2b"))

    def test_zero_model_is_free(self):
        model = zero_cost_model()
        assert model.recv_cost(_Kind("start")) == 0.0


class TestFailureInjector:
    def _system(self):
        sched = Scheduler()
        net = Network(sched, ConstantLatency(1.0), child_rng(1, "x"))
        procs = {i: Dummy(i, sched, net) for i in range(5)}
        return sched, net, procs

    def test_crash_at_time(self):
        sched, net, procs = self._system()
        inj = FailureInjector(sched, procs)
        inj.crash_at(2, 10.0)
        sched.run(until=9.0)
        assert not procs[2].crashed
        sched.run(until=11.0)
        assert procs[2].crashed
        assert inj.crashed_pids == [2]

    def test_crash_unknown_pid_raises(self):
        sched, net, procs = self._system()
        inj = FailureInjector(sched, procs)
        with pytest.raises(KeyError):
            inj.crash_at(99, 1.0)

    def test_double_crash_recorded_once(self):
        sched, net, procs = self._system()
        inj = FailureInjector(sched, procs)
        inj.crash_at(1, 1.0)
        inj.crash_at(1, 2.0)
        sched.run(until=3.0)
        assert inj.crashed_pids == [1]


class TestMaxFailures:
    @pytest.mark.parametrize(
        "n,f", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (7, 3)]
    )
    def test_majority_budget(self, n, f):
        assert max_failures(n) == f

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            max_failures(0)


class TestRng:
    def test_child_seed_deterministic(self):
        assert child_seed(1, "a") == child_seed(1, "a")

    def test_child_seed_varies_by_label_and_root(self):
        assert child_seed(1, "a") != child_seed(1, "b")
        assert child_seed(1, "a") != child_seed(2, "a")

    def test_child_rng_streams_identical(self):
        r1 = child_rng(7, "lat")
        r2 = child_rng(7, "lat")
        assert [r1.random() for _ in range(10)] == [r2.random() for _ in range(10)]


class TestBudgetGuard:
    """crash_within_budget / within_budget keep groups quorum-correct."""

    def _system(self):
        sched = Scheduler()
        net = Network(sched, ConstantLatency(1.0), child_rng(1, "x"))
        procs = {i: Dummy(i, sched, net) for i in range(5)}
        return sched, net, procs

    def test_arms_within_budget(self):
        sched, net, procs = self._system()
        inj = FailureInjector(sched, procs)
        group = [0, 1, 2, 3, 4]  # budget = 2
        assert inj.crash_within_budget(0, 1.0, group)
        assert inj.crash_within_budget(1, 2.0, group)
        sched.run(until=3.0)
        assert inj.crashed_pids == [0, 1]

    def test_refuses_beyond_budget(self):
        sched, net, procs = self._system()
        inj = FailureInjector(sched, procs)
        group = [0, 1, 2, 3, 4]
        assert inj.crash_within_budget(0, 1.0, group)
        assert inj.crash_within_budget(1, 2.0, group)
        assert not inj.crash_within_budget(2, 3.0, group)
        sched.run(until=5.0)
        assert inj.crashed_pids == [0, 1]
        assert not procs[2].crashed

    def test_armed_but_unfired_crashes_count(self):
        # The guard must count *armed* crashes, not only executed ones,
        # or arming several future crashes at once would overshoot.
        sched, net, procs = self._system()
        inj = FailureInjector(sched, procs)
        group = [0, 1, 2]  # budget = 1
        assert inj.crash_within_budget(1, 100.0, group)
        assert not inj.within_budget(2, group)
        assert not inj.crash_within_budget(2, 100.0, group)

    def test_rearming_same_pid_is_free(self):
        sched, net, procs = self._system()
        inj = FailureInjector(sched, procs)
        group = [0, 1, 2]  # budget = 1
        assert inj.crash_within_budget(1, 1.0, group)
        assert inj.within_budget(1, group)
        assert inj.crash_within_budget(1, 2.0, group)
        sched.run(until=3.0)
        assert inj.crashed_pids == [1]

    def test_crash_now_is_immediate(self):
        sched, net, procs = self._system()
        inj = FailureInjector(sched, procs)
        inj.crash_now(3)
        assert procs[3].crashed
        assert inj.crashed_pids == [3]

    def test_crash_now_unknown_pid_raises(self):
        sched, net, procs = self._system()
        inj = FailureInjector(sched, procs)
        with pytest.raises(KeyError):
            inj.crash_now(99)

    def test_targeted_pids_sorted_union(self):
        sched, net, procs = self._system()
        inj = FailureInjector(sched, procs)
        inj.crash_now(4)
        inj.crash_at(1, 50.0)
        assert inj.targeted_pids() == (1, 4)
