"""Tests for the convoy latency-decomposition probes."""

import pytest

from helpers import MiniSystem, random_workload
from repro.harness.diagnostics import ConvoyProbe, attach_probes, merged_summary


def test_probe_records_every_delivery():
    sys_ = MiniSystem(n_groups=2)
    probe = ConvoyProbe(sys_.processes[0])
    for _ in range(5):
        sys_.multicast(1, {0, 1})
    sys_.run_to_quiescence()
    assert len(probe.records) == 5


def test_collision_free_has_no_convoy_gap():
    sys_ = MiniSystem(n_groups=2)
    probe = ConvoyProbe(sys_.processes[0])
    sys_.multicast(4, {0, 1})
    sys_.run_to_quiescence()
    (_, commit, gap), = probe.records
    assert gap == pytest.approx(0.0, abs=1e-6)
    assert commit > 0


def test_crafted_convoy_shows_in_gap():
    """A blocked message's wait shows up as convoy gap, not commit."""
    sys_ = MiniSystem(n_groups=2)
    probe = ConvoyProbe(sys_.processes[1])
    # Raise group 1's clock so m's final comes from the remote group.
    for _ in range(3):
        sys_.multicast(3, {1})
    sys_.run(until=50)
    m = sys_.multicast(5, {0, 1})
    # A conflicting global message from group 0's primary inside the
    # convoy window.
    sys_.scheduler.call_at(
        sys_.scheduler.now + 1.5, sys_.multicast, 0, {0, 1}
    )
    sys_.run_to_quiescence()
    gaps = {mid: gap for mid, _, gap in probe.records}
    assert gaps[m.mid] > 0.5  # m waited for the blocker's commit


def test_attach_and_merge():
    sys_ = MiniSystem(n_groups=3)
    probes = attach_probes(sys_.processes)
    assert len(probes) == 9
    random_workload(sys_, 30, seed=4)
    sys_.run_to_quiescence()
    pooled = merged_summary(probes)
    assert pooled["commit"]["count"] > 0
    assert pooled["convoy_gap"]["count"] == pooled["commit"]["count"]
    assert pooled["commit"]["mean"] > 0


def test_since_filter():
    sys_ = MiniSystem(n_groups=2)
    probe = ConvoyProbe(sys_.processes[0])
    sys_.multicast(1, {0})
    sys_.run_to_quiescence()
    assert probe.summary(since_ms=0.0)["commit"]["count"] == 1
    assert probe.summary(since_ms=1e9)["commit"]["count"] == 0
