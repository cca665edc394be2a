"""Cross-protocol integration tests: same workload, every protocol."""

import pytest

from helpers import MiniSystem, random_workload
from repro.sim.latency import JitteredLatency
from repro.sim.trace import record_flights

PROTOCOLS = ["primcast", "whitebox", "fastcast", "classic"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", [1, 2])
def test_full_property_suite_under_jitter(protocol, seed):
    sys_ = MiniSystem(
        protocol=protocol,
        n_groups=4,
        latency=JitteredLatency(3.0, 0.4),
        seed=seed,
    )
    flights = record_flights(sys_.network)
    random_workload(sys_, 60, seed=seed * 100, spread_ms=60)
    sys_.run_to_quiescence()
    assert sys_.violations(flights=flights, group_of=sys_.config.group_of) == []


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_burst_of_conflicting_globals(protocol):
    """Every client multicasts to all groups simultaneously — the
    worst-case conflict pattern (§7, 8-destination workload)."""
    sys_ = MiniSystem(protocol=protocol, n_groups=3)
    all_groups = {0, 1, 2}
    for pid in sys_.config.all_pids:
        sys_.multicast(pid, all_groups)
    sys_.run_to_quiescence()
    assert sys_.violations() == []
    # Atomic broadcast: all processes deliver all messages in ONE order.
    orders = {tuple(mid for mid, _, _ in log) for log in sys_.logs.values()}
    assert len(orders) == 1
    assert len(next(iter(orders))) == 9


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_pipeline_sequential_from_one_sender(protocol):
    sys_ = MiniSystem(protocol=protocol, n_groups=2)
    mids = []
    for i in range(10):
        sys_.scheduler.call_at(
            i * 0.5, lambda: mids.append(sys_.multicast(1, {0, 1}).mid)
        )
    sys_.run_to_quiescence()
    assert sys_.violations() == []
    for pid in range(6):
        assert [m for m, _, _ in sys_.logs[pid]] == mids


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_disjoint_destinations_proceed_independently(protocol):
    """Genuineness consequence: load on groups {2,3} does not delay a
    message addressed to {0,1}."""
    sys_ = MiniSystem(protocol=protocol, n_groups=4)
    for i in range(20):
        sys_.multicast(8, {2, 3})
    m = sys_.multicast(1, {0, 1})
    sys_.run_to_quiescence()
    assert sys_.violations() == []
    times = [t for pid in (0, 1, 2, 3, 4, 5) for mid, _, t in sys_.logs[pid] if mid == m.mid]
    expected = {
        "primcast": 3.0,
        "whitebox": 4.0,
        "fastcast": 4.0,
        "classic": 6.0,
    }[protocol]
    assert max(times) == pytest.approx(expected, abs=1e-6)


def test_primcast_vs_baselines_latency_ordering():
    """PrimCast delivers at the last destination no later than the
    baselines on an identical single-message run."""
    last_delivery = {}
    for protocol in PROTOCOLS:
        sys_ = MiniSystem(protocol=protocol, n_groups=2)
        sys_.multicast(4, {0, 1})
        sys_.run_to_quiescence()
        last_delivery[protocol] = max(
            t for pid in range(6) for _, _, t in sys_.logs[pid]
        )
    assert last_delivery["primcast"] < last_delivery["whitebox"]
    assert last_delivery["primcast"] < last_delivery["fastcast"]
    assert last_delivery["fastcast"] < last_delivery["classic"]
