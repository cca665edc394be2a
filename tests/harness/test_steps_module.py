"""Unit tests for the step-measurement helpers (Table 1 machinery)."""

import pytest

from repro.harness.steps import (
    build_bare_system,
    measure_collision_free,
    measure_primcast_convoy,
)


class TestBuildBareSystem:
    def test_builds_all_protocols(self):
        for proto in ("primcast", "primcast-hc", "whitebox", "fastcast"):
            sched, net, config, procs = build_bare_system(proto, 2, 3)
            assert len(procs) == 6

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_bare_system("zab", 2, 3)

    def test_clock_offsets_applied(self):
        sched, net, config, procs = build_bare_system(
            "primcast-hc", 2, 3, clock_offsets_ms={0: 5.0}
        )
        assert procs[0].physical_clock.offset_us == 5000.0
        assert procs[1].physical_clock.offset_us == 0.0

    @pytest.mark.parametrize("proto", ["primcast", "whitebox", "fastcast"])
    def test_clock_offsets_need_a_physical_clock(self, proto):
        # Only primcast-hc has a physical clock; offsets for any other
        # protocol are a mistake, named as such.
        with pytest.raises(ValueError, match=proto):
            build_bare_system(proto, 2, 3, clock_offsets_ms={0: 5.0})

    def test_zero_cost_cpu(self):
        sched, net, config, procs = build_bare_system("primcast", 2, 3)
        assert procs[0].cost_model.recv_cost(type("M", (), {"kind": "start"})()) == 0


class TestMeasureCollisionFree:
    def test_latency_scales_with_delta(self):
        r1 = measure_collision_free("primcast", 2, n_groups=4, delta_ms=1.0)
        r10 = measure_collision_free("primcast", 2, n_groups=4, delta_ms=10.0)
        assert r1["max_steps"] == r10["max_steps"] == 3.0

    def test_steps_per_destination_reported(self):
        r = measure_collision_free("whitebox", 2, n_groups=4)
        assert len(r["steps_by_pid"]) == 6
        assert set(r["steps_by_pid"].values()) == {3.0, 4.0}

    def test_non_destinations_not_counted(self):
        r = measure_collision_free("primcast", 1, n_groups=4)
        assert len(r["steps_by_pid"]) == 3
        assert not r["missing"]

    def test_message_breakdown_by_kind(self):
        r = measure_collision_free("primcast", 2, n_groups=4)
        kinds = r["messages_by_kind"]
        assert kinds["start"] == 6
        assert kinds["ack"] == 36


class TestMeasureConvoy:
    def test_window_scales_with_epsilon(self):
        small = measure_primcast_convoy(True, epsilon_ms=0.5)
        large = measure_primcast_convoy(True, epsilon_ms=2.0)
        assert small["window_steps"] < large["window_steps"]

    def test_plain_window_is_two_steps(self):
        r = measure_primcast_convoy(False)
        assert r["window_steps"] == pytest.approx(2.0)

    def test_result_fields(self):
        r = measure_primcast_convoy(False)
        assert set(r) == {
            "protocol",
            "measured_steps",
            "analytic_steps",
            "collision_free_steps",
            "window_steps",
        }
