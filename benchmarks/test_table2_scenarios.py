"""Table 2 — deployment scenarios.

Prints the scenario table and verifies each deployment's latency
geometry (leader-to-leader and intra-group RTTs) matches the paper's
numbers by sampling the built latency models.
"""

import pytest

from repro.harness.report import format_table
from repro.workload.scenarios import all_scenarios, lan_scenario, wan_colocated_leaders, wan_distributed_leaders


def test_table2_rows():
    scenarios = all_scenarios()
    print("\n== Table 2 (deployment scenarios) ==")
    print(
        format_table(
            ["Scenario", "Cross-group RTT (leaders)", "Intra-group RTT", "Description"],
            [s.table2_row() for s in scenarios],
        )
    )
    assert [s.name for s in scenarios] == [
        "LAN",
        "WAN - colocated leaders",
        "WAN - distributed leaders",
    ]


def test_lan_geometry():
    s = lan_scenario()
    model = s.make_latency(s.make_config())
    assert 2 * model.mean(0, 23) == pytest.approx(0.09)


def test_colocated_geometry():
    s = wan_colocated_leaders()
    config = s.make_config()
    model = s.make_latency(config)
    leaders = [config.initial_leader(g) for g in range(8)]
    assert 2 * model.mean(leaders[0], leaders[7]) == pytest.approx(0.09)
    g0 = config.members(0)
    intra = sorted(
        round(2 * model.mean(a, b), 1) for i, a in enumerate(g0) for b in g0[i + 1 :]
    )
    assert intra == [60.0, 76.0, 130.0]


def test_distributed_geometry():
    s = wan_distributed_leaders()
    config = s.make_config()
    model = s.make_latency(config)
    assert 2 * model.mean(config.initial_leader(0), config.initial_leader(1)) == pytest.approx(90.0)
    g0 = config.members(0)
    assert 2 * model.mean(g0[0], g0[2]) == pytest.approx(30.0)
