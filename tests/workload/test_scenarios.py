"""Tests for the Table 2 deployment scenarios."""

import random

import pytest

from repro.workload.scenarios import (
    LAN_RTT_MS,
    all_scenarios,
    exact_network,
    lan_scenario,
    wan_colocated_leaders,
    wan_distributed_leaders,
)


@pytest.fixture
def rng():
    return random.Random(1)


def test_three_scenarios_at_paper_scale():
    scenarios = all_scenarios()
    assert len(scenarios) == 3
    for s in scenarios:
        assert s.n_groups == 8
        assert s.group_size == 3
        config = s.make_config()
        assert len(config.all_pids) == 24


def test_lan_latency_uniform(rng):
    s = lan_scenario()
    model = s.make_latency(s.make_config())
    # One-way mean = RTT/2 everywhere.
    assert model.mean(0, 23) == pytest.approx(LAN_RTT_MS / 2)
    assert model.mean(5, 6) == pytest.approx(LAN_RTT_MS / 2)


def test_exact_network_is_constant_delta_without_jitter():
    s = exact_network(3, 3, delta_ms=10.0)
    assert s.cross_group_rtt_ms == 20.0 and s.epsilon_ms == 0.0
    model = s.make_latency(s.make_config())
    pids = s.make_config().all_pids
    for src in pids:
        for dst in pids:
            mean, stddev, _floor = model.pair_params(src, dst)
            assert (mean, stddev) == (10.0, 0.0)


class TestColocatedLeaders:
    def test_leaders_share_a_region(self):
        s = wan_colocated_leaders()
        config = s.make_config()
        model = s.make_latency(config)
        leaders = [config.initial_leader(g) for g in range(8)]
        for a in leaders:
            for b in leaders:
                if a != b:
                    assert model.mean(a, b) == pytest.approx(LAN_RTT_MS / 2)

    def test_intra_group_rtts_match_table2(self):
        s = wan_colocated_leaders()
        config = s.make_config()
        model = s.make_latency(config)
        g0 = config.members(0)
        rtts = sorted(
            round(2 * model.mean(a, b), 2)
            for i, a in enumerate(g0)
            for b in g0[i + 1 :]
        )
        assert rtts == [60.0, 76.0, 130.0]


class TestDistributedLeaders:
    def test_cross_group_is_90ms_rtt(self):
        s = wan_distributed_leaders()
        config = s.make_config()
        model = s.make_latency(config)
        l0 = config.initial_leader(0)
        l1 = config.initial_leader(1)
        assert 2 * model.mean(l0, l1) == pytest.approx(90.0)

    def test_intra_group_is_30ms_rtt(self):
        s = wan_distributed_leaders()
        config = s.make_config()
        model = s.make_latency(config)
        g0 = config.members(0)
        assert 2 * model.mean(g0[0], g0[1]) == pytest.approx(30.0)

    def test_each_replica_in_own_datacenter(self):
        s = wan_distributed_leaders()
        config = s.make_config()
        model = s.make_latency(config)
        g0 = config.members(0)
        # distinct sites -> never the LAN diagonal
        for i, a in enumerate(g0):
            for b in g0[i + 1 :]:
                assert 2 * model.mean(a, b) > 1.0


def test_table2_rows_render():
    for s in all_scenarios():
        row = s.table2_row()
        assert len(row) == 4
        assert s.name in row[0]


def test_custom_sizes_supported():
    s = wan_distributed_leaders(n_groups=3, group_size=5)
    config = s.make_config()
    assert config.n_groups == 3
    model = s.make_latency(config)
    assert 2 * model.mean(config.members(0)[0], config.members(2)[0]) == pytest.approx(90.0)
