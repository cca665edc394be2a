"""Property-based tests (hypothesis) on core invariants.

Strategies generate random workloads — senders, destination sets, send
times, network jitter — and assert the §2.2 atomic multicast properties
plus protocol-level invariants on the resulting executions, for PrimCast
and both baselines.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import MiniSystem
from repro.core.config import GroupConfig
from repro.harness.metrics import percentile
from repro.sim.latency import JitteredLatency

# Keep runs small: each example spins a full simulation.
FAST = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

workload_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),  # sender pid (3 groups x 3)
        st.sets(st.integers(min_value=0, max_value=2), min_size=1, max_size=3),
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


def run_protocol(protocol, workload, seed=1, jitter=False):
    """Run ``workload`` to quiescence; every §2.2 property holds,
    Validity included (nothing fails, so every multicast is owed)."""
    latency = JitteredLatency(1.0, 0.3) if jitter else None
    sys_ = MiniSystem(protocol=protocol, n_groups=3, latency=latency, seed=seed)
    for sender, dest, when in workload:
        sys_.scheduler.call_at(when, sys_.multicast, sender, frozenset(dest))
    sys_.run_to_quiescence()
    assert sys_.violations() == []
    return sys_


@FAST
@given(workload=workload_st, seed=st.integers(min_value=0, max_value=10**6))
def test_primcast_properties_hold(workload, seed):
    run_protocol("primcast", workload, seed=seed, jitter=True)


@FAST
@given(workload=workload_st)
def test_primcast_hc_properties_hold(workload):
    run_protocol("primcast-hc", workload, jitter=True)


@FAST
@given(workload=workload_st)
def test_whitebox_properties_hold(workload):
    run_protocol("whitebox", workload, jitter=True)


@FAST
@given(workload=workload_st)
def test_fastcast_properties_hold(workload):
    run_protocol("fastcast", workload, jitter=True)


@FAST
@given(workload=workload_st)
def test_classic_properties_hold(workload):
    run_protocol("classic", workload, jitter=True)


@FAST
@given(
    clocks=st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=1000),
        min_size=0,
        max_size=5,
    )
)
def test_quorum_clock_is_quorum_intersection_safe(clocks):
    """quorum-clock() invariant (§5.2.3): any future primary must pick a
    starting clock >= quorum-clock(), because it reads a quorum and any
    two quorums intersect."""
    config = GroupConfig([[0, 1, 2, 3, 4]])
    qc = config.quorum_clock_value(0, clocks)
    values = [clocks.get(pid, 0) for pid in range(5)]
    # For EVERY possible promise quorum, the max clock in it is >= qc.
    from itertools import combinations

    for quorum in combinations(range(5), 3):
        assert max(values[p] for p in quorum) >= qc


@FAST
@given(
    data=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200),
    q=st.floats(min_value=0, max_value=100),
)
def test_percentile_bounds(data, q):
    p = percentile(data, q)
    assert min(data) <= p <= max(data)


@FAST
@given(st.data())
def test_deliveries_monotone_in_final_ts(data):
    workload = data.draw(workload_st)
    sys_ = run_protocol("primcast", workload)
    for log in sys_.logs.values():
        keys = [(ts, mid) for mid, ts, _ in log]
        assert keys == sorted(keys)
