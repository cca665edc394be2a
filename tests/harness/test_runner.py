"""Tests for the experiment runner and reporting."""

from dataclasses import replace

import pytest

from repro.harness.report import (
    THROUGHPUT_HEADERS,
    format_table,
    max_throughput_by_protocol,
    print_results,
    throughput_latency_rows,
)
from repro.harness.runner import PROTOCOLS, RunResult, build_system, run_load_point
from repro.sim.costs import zero_cost_model
from repro.workload.scenarios import lan_scenario


def small_scenario():
    return lan_scenario(n_groups=3, group_size=3)


class TestBuildSystem:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_builds_all_protocols(self, protocol):
        system = build_system(protocol, small_scenario())
        assert len(system.processes) == 9
        assert len(system.replicas) == 9

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            build_system("zab", small_scenario())

    def test_primcast_with_oracles(self):
        system = build_system("primcast", replace(small_scenario(), suspect_ms=100.0))
        assert system.oracles is not None
        assert set(system.oracles) == set(system.config.all_pids)
        for pid, proc in system.processes.items():
            assert proc.omega is system.oracles[pid]
            assert proc.omega.suspect_ms == 100.0
        assert build_system("primcast", small_scenario()).oracles is None

    def test_hc_gets_physical_clocks(self):
        scenario = replace(small_scenario(), epsilon_ms=1.5)
        system = build_system("primcast-hc", scenario)
        for proc in system.replicas:
            assert proc.physical_clock is not None
            assert abs(proc.physical_clock.offset_us) <= 1500
        # Plain PrimCast has no clock, so it proposes by clock + 1 (§6).
        for proc in build_system("primcast", scenario).replicas:
            assert proc.physical_clock is None

    def test_deterministic_by_seed(self):
        r1 = run_load_point(
            "primcast", small_scenario(), 2, 2, seed=5, warmup_ms=20, measure_ms=50,
            cost_model=zero_cost_model(),
        )
        r2 = run_load_point(
            "primcast", small_scenario(), 2, 2, seed=5, warmup_ms=20, measure_ms=50,
            cost_model=zero_cost_model(),
        )
        assert r1.throughput == r2.throughput
        assert r1.latency == r2.latency

    def test_different_seed_differs(self):
        kw = dict(warmup_ms=20, measure_ms=50, cost_model=zero_cost_model())
        r1 = run_load_point("primcast", small_scenario(), 2, 2, seed=5, **kw)
        r2 = run_load_point("primcast", small_scenario(), 2, 2, seed=6, **kw)
        assert r1.samples != r2.samples


class TestRunLoadPoint:
    def test_result_shape(self):
        r = run_load_point(
            "primcast", small_scenario(), 2, 2, warmup_ms=20, measure_ms=50,
            cost_model=zero_cost_model(),
        )
        assert r.protocol == "primcast"
        assert r.throughput > 0
        assert r.latency["p95"] >= r.latency["p50"] > 0
        assert r.throughput_kmsgs == pytest.approx(r.throughput / 1000.0)
        assert r.message_counts["start"] > 0
        assert r.events > 0

    def test_warmup_excluded(self):
        r = run_load_point(
            "primcast", small_scenario(), 1, 1, warmup_ms=30, measure_ms=30,
            cost_model=zero_cost_model(),
        )
        for _, when, _ in r.samples:
            assert 30.0 <= when < 60.0

    def test_latencies_for_filters_by_pid(self):
        r = run_load_point(
            "primcast", small_scenario(), 2, 1, warmup_ms=20, measure_ms=40,
            cost_model=zero_cost_model(),
        )
        all_lats = [lat for _, _, lat in r.samples]
        subset = r.latencies_for({0, 3, 6})
        assert len(subset) < len(all_lats)
        assert set(subset) <= set(all_lats)


class TestStreamingStats:
    def test_streaming_aggregates_match_exact_run(self):
        """Streaming mode bounds collection memory without perturbing the
        run: the schedule, counts and running aggregates are identical;
        only per-sample retention changes."""
        kw = dict(warmup_ms=20, measure_ms=80, seed=3, cost_model=zero_cost_model())
        exact = run_load_point("primcast", small_scenario(), 2, 2, **kw)
        streamed = run_load_point(
            "primcast", small_scenario(), 2, 2, streaming_stats=True, **kw
        )
        assert streamed.events == exact.events  # same simulation schedule
        assert streamed.message_counts == exact.message_counts
        assert streamed.latency["count"] == exact.latency["count"] > 0
        assert streamed.throughput == exact.throughput
        # Mean comes from running sums, so accumulation order differs.
        assert streamed.latency["mean"] == pytest.approx(
            exact.latency["mean"], rel=1e-12
        )
        # At this size no client ring overflows: percentiles exact too.
        for key in ("p50", "p95", "p99"):
            assert streamed.latency[key] == exact.latency[key]
        # The memory saving: no per-sample list is retained.
        assert streamed.samples == []
        assert exact.samples


class TestReport:
    def _results(self):
        return [
            RunResult("primcast", "LAN", 2, 4, 12345.0,
                      {"count": 10, "mean": 1.2, "p50": 1.0, "p95": 2.0, "p99": 3.0}),
            RunResult("fastcast", "LAN", 2, 4, 2345.0,
                      {"count": 10, "mean": 4.2, "p50": 4.0, "p95": 6.0, "p99": 9.0}),
        ]

    def test_rows_match_headers(self):
        rows = throughput_latency_rows(self._results())
        assert len(rows[0]) == len(THROUGHPUT_HEADERS)
        assert rows[0][0] == "primcast"
        assert rows[0][3] == "12.35"

    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [["x", "y"], ["long", "z"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_print_results_smoke(self, capsys):
        print_results("Fig X", self._results())
        out = capsys.readouterr().out
        assert "Fig X" in out and "primcast" in out

    def test_max_throughput(self):
        best = max_throughput_by_protocol(self._results())
        assert best == {"primcast": 12345.0, "fastcast": 2345.0}
