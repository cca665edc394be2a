"""Genuineness tests: only senders and destinations take steps (§2.2)."""

import pytest

from helpers import MiniSystem, random_workload
from repro.election import attach_omegas
from repro.sim import FailureInjector
from repro.verify import GenuinenessTracer, PropertyViolation


def run_with_tracer(protocol, n_groups=4, n_messages=40, seed=3, suspect_ms=None):
    """A traced run; with ``suspect_ms``, every process runs a heartbeat
    Ω and group 0's primary crashes mid-workload (a failover system)."""
    sys_ = MiniSystem(protocol=protocol, n_groups=n_groups)
    tracer = GenuinenessTracer(sys_.config)
    sys_.network.add_trace_hook(tracer)
    random_workload(sys_, n_messages, seed=seed, max_dest_groups=2)
    if suspect_ms is None:
        sys_.run_to_quiescence()
    else:
        attach_omegas(sys_.processes, suspect_ms)
        FailureInjector(sys_.scheduler, sys_.processes).crash_at(0, 20.0)
        sys_.run(until=1000.0)
    dest_pids = sys_.dest_pids_of()
    origins = {mid: mid[0] for mid in sys_.multicasts}
    return sys_, tracer, dest_pids, origins


@pytest.mark.parametrize(
    "protocol, suspect_ms",
    [
        pytest.param("primcast", None, id="primcast"),
        pytest.param("whitebox", None, id="whitebox"),
        pytest.param("fastcast", None, id="fastcast"),
        pytest.param("primcast", 100.0, id="primcast-failover"),
    ],
)
def test_protocol_is_genuine(protocol, suspect_ms):
    sys_, tracer, dest_pids, origins = run_with_tracer(protocol, suspect_ms=suspect_ms)
    tracer.check(dest_pids, origins)
    if suspect_ms is not None:
        # Heartbeats and the epoch change are traced, and check() held
        # them to their group.
        kinds = {kind for _, _, kind in tracer.anonymous}
        assert {"heartbeat", "new-epoch"} <= kinds


def test_local_messages_never_leave_their_group():
    sys_ = MiniSystem(protocol="primcast", n_groups=4)
    tracer = GenuinenessTracer(sys_.config)
    sys_.network.add_trace_hook(tracer)
    sys_.multicast(0, {0})
    sys_.run_to_quiescence()
    group0 = set(sys_.config.members(0))
    for pairs in tracer.endpoints.values():
        for src, dst in pairs:
            assert src in group0 and dst in group0


def test_tracer_flags_non_genuine_traffic():
    sys_ = MiniSystem(n_groups=3)
    tracer = GenuinenessTracer(sys_.config)

    class Fake:
        kind = "ack"
        mid = (0, 0)

    tracer(0, 8, Fake(), 1.0)  # p8 (group 2) is neither dest nor origin
    with pytest.raises(PropertyViolation, match="non-genuine"):
        tracer.check({(0, 0): {0, 1, 2}}, {(0, 0): 0})


def test_tracer_flags_cross_group_housekeeping():
    sys_ = MiniSystem(n_groups=2)
    tracer = GenuinenessTracer(sys_.config)

    class Anon:
        kind = "bump"

    tracer(0, 4, Anon(), 1.0)  # bump crossing groups would be a bug
    with pytest.raises(PropertyViolation, match="cross-group"):
        tracer.check({}, {})


def test_bumps_stay_inside_groups_in_real_runs():
    sys_, tracer, dest_pids, origins = run_with_tracer("primcast", n_messages=30)
    group_of = sys_.config.group_of
    bumps = [(s, d) for s, d, k in tracer.anonymous if k == "bump"]
    assert bumps, "expected some bump traffic"
    for src, dst in bumps:
        assert group_of[src] == group_of[dst]
