"""Statistical tests on the workload's destination distribution (§7.2)."""

import random
from collections import Counter

from repro.harness.runner import build_system
from repro.sim.costs import zero_cost_model
from repro.workload.generator import Client
from repro.workload.scenarios import lan_scenario


def make_client(n_dest, n_groups=8, pid=0):
    scenario = lan_scenario(n_groups=n_groups, group_size=3)
    system = build_system("primcast", scenario, cost_model=zero_cost_model())
    replica = system.processes[pid]
    return Client(replica, n_dest, n_groups, 1, random.Random(99))


def test_other_groups_chosen_uniformly():
    client = make_client(n_dest=2, n_groups=8, pid=0)
    counts = Counter()
    n = 7000
    for _ in range(n):
        dest = client._pick_dest()
        for g in dest:
            if g != 0:
                counts[g] += 1
    # Each of the 7 other groups should get ~n/7 picks.
    expected = n / 7
    for g in range(1, 8):
        assert abs(counts[g] - expected) < 0.15 * expected, counts


def test_no_duplicate_groups_in_destination():
    client = make_client(n_dest=4)
    for _ in range(200):
        dest = client._pick_dest()
        assert len(dest) == 4  # sets: all distinct


def test_all_groups_destination_includes_everyone():
    client = make_client(n_dest=8)
    assert client._pick_dest() == set(range(8))
