"""Genuineness tests: only senders and destinations take steps (§2.2)."""

from dataclasses import replace

import pytest

from helpers import MiniSystem, random_workload
from repro.election import attach_omegas
from repro.harness.runner import build_system
from repro.rmcast.fifo import Batch, Envelope
from repro.sim import FailureInjector
from repro.sim.trace import Flight, record_flights
from repro.verify import PropertyViolation, check_genuineness, collect_violations
from repro.workload.scenarios import lan_scenario


def run_recorded(protocol, n_groups=4, n_messages=40, seed=3, suspect_ms=None):
    """A recorded run; with ``suspect_ms``, every process runs a
    heartbeat Ω and group 0's primary crashes mid-workload (a failover
    system)."""
    sys_ = MiniSystem(protocol=protocol, n_groups=n_groups)
    flights = record_flights(sys_.network)
    random_workload(sys_, n_messages, seed=seed, max_dest_groups=2)
    if suspect_ms is None:
        sys_.run_to_quiescence()
    else:
        attach_omegas(sys_.processes, suspect_ms)
        FailureInjector(sys_.scheduler, sys_.processes).crash_at(0, 20.0)
        sys_.run(until=1000.0)
    return sys_, flights


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
    sys_, flights = run_recorded(protocol, suspect_ms=suspect_ms)
    assert collect_violations(
        sys_.logs,
        set(sys_.multicasts),
        sys_.dest_pids_of(),
        sys_.correct_pids(),
        flights=flights,
        group_of=sys_.config.group_of,
    ) == []
    if suspect_ms is not None:
        # Heartbeats and the epoch change were recorded, and the verdict
        # held them to their group.
        kinds = {f.kind for f in flights if f.mid is None}
        assert {"heartbeat", "new-epoch"} <= kinds


def test_local_messages_never_leave_their_group():
    sys_ = MiniSystem(protocol="primcast", n_groups=4)
    flights = record_flights(sys_.network)
    sys_.multicast(0, {0})
    sys_.run_to_quiescence()
    group0 = set(sys_.config.members(0))
    assert flights
    for flight in flights:
        assert flight.src in group0 and flight.dst in group0


def test_tracer_flags_non_genuine_traffic():
    sys_ = MiniSystem(n_groups=3)
    # p8 (group 2) is neither a destination nor the origin.
    flights = [Flight(0, 8, "ack", (0, 0), 1.0, 2.0)]
    with pytest.raises(PropertyViolation, match="non-genuine") as caught:
        check_genuineness(flights, {(0, 0): {0, 1, 2}}, sys_.config.group_of)
    assert caught.value.prop == "genuineness"
    assert caught.value.mids == ((0, 0),)


def test_tracer_flags_cross_group_housekeeping():
    sys_ = MiniSystem(n_groups=2)
    # A bump crossing groups would be a bug.
    flights = [Flight(0, 4, "bump", None, 1.0, 2.0)]
    with pytest.raises(PropertyViolation, match="cross-group"):
        check_genuineness(flights, {}, sys_.config.group_of)


def test_bumps_stay_inside_groups_in_real_runs():
    sys_, flights = run_recorded("primcast", n_messages=30)
    group_of = sys_.config.group_of
    bumps = [(f.src, f.dst) for f in flights if f.kind == "bump"]
    assert bumps, "expected some bump traffic"
    for src, dst in bumps:
        assert group_of[src] == group_of[dst]


def test_batched_run_is_genuine():
    """A Batch carries no mid of its own: each envelope it carries is
    judged, so coalesced acks and bumps pass like unbatched ones."""
    system = build_system("primcast", replace(lan_scenario(2, 3), batching_ms=5.0))
    flights = record_flights(system.network)
    config = system.config
    multicasts = {}
    for i in range(20):
        sender = system.processes[config.all_pids[i % len(config.all_pids)]]
        m = sender.a_multicast({0, 1}, f"m{i}")
        multicasts[m.mid] = m
    system.scheduler.run(until=500.0)
    batches = sum(proc.rm.batches_sent for proc in system.processes.values())
    assert batches > 0, "expected the run to send batches"
    logs = {pid: proc.delivery_log for pid, proc in system.processes.items()}
    assert all(len(log) == 20 for log in logs.values())
    dest_pids_of = {mid: set(config.dest_pids(m.dest)) for mid, m in multicasts.items()}
    assert collect_violations(
        logs,
        set(multicasts),
        dest_pids_of,
        set(config.all_pids),
        flights=flights,
        group_of=config.group_of,
    ) == []


def test_cross_group_bump_inside_a_batch_is_flagged():
    sys_ = MiniSystem(n_groups=2)
    flights = record_flights(sys_.network)

    class Bump:
        kind = "bump"

    class Ack:
        kind = "ack"
        mid = (0, 0)

    batch = Batch((Envelope(0, 0, Ack(), (4,)), Envelope(0, 1, Bump(), (4,))))
    sys_.network.transmit(0, 4, batch, 0.0)
    assert [(f.kind, f.mid) for f in flights] == [("ack", (0, 0)), ("bump", None)]
    # The ack is genuine (p4 is a destination of (0, 0)); the bump is not.
    violations = collect_violations(
        {}, set(), {(0, 0): {0, 1, 2, 3, 4, 5}}, set(),
        flights=flights, group_of=sys_.config.group_of,
    )
    assert [(v.prop, v.message) for v in violations] == [
        ("genuineness", "cross-group housekeeping message bump: 0 -> 4")
    ]
