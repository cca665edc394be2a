"""Unit tests for the Ω leader oracle as the simulator wires it: one
:class:`HeartbeatOmega` per process, fed by heartbeats on the sim
network (:func:`attach_omegas`)."""

import pytest

from helpers import MiniSystem
from repro.core import PrimCastProcess, uniform_groups
from repro.election import HB_INTERVAL_MS, HEARTBEAT, HeartbeatOmega, attach_omegas
from repro.sim.events import Scheduler
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.rng import child_rng

SUSPECT_MS = 100.0


def outputs(omegas):
    return {pid: omega.leader for pid, omega in omegas.items()}


def test_initial_output_is_first_member():
    omegas = MiniSystem(n_groups=1, suspect_ms=SUSPECT_MS).oracles
    assert outputs(omegas) == {0: 0, 1: 0, 2: 0}


def test_subscribe_fires_immediately():
    omegas = MiniSystem(n_groups=1, suspect_ms=SUSPECT_MS).oracles
    seen = []
    omegas[1].subscribe(lambda gid, pid: seen.append((gid, pid)))
    assert seen == [(0, 0)]


def test_static_oracle_never_changes_without_polling():
    # An Ω that is never started runs no rounds: it keeps its output.
    sched = Scheduler()
    omega = HeartbeatOmega(0, [0, 1, 2], 2, sched, lambda: None)
    sched.run(until=1000.0)
    assert omega.leader == 0 and sched.pending() == 0


def test_detects_crash_within_one_interval():
    sys_ = MiniSystem(n_groups=1, suspect_ms=SUSPECT_MS)
    sched, procs, omegas = sys_.scheduler, sys_.processes, sys_.oracles
    seen = []
    omegas[1].subscribe(lambda gid, pid: seen.append((sched.now, pid)))
    procs[0].crash()
    sched.run(until=400.0)
    assert outputs(omegas) == {0: 0, 1: 1, 2: 1}
    assert seen[-1][1] == 1
    assert seen[-1][0] <= SUSPECT_MS + HB_INTERVAL_MS + 1e-9


def test_cascading_crashes_elect_next_correct():
    sys_ = MiniSystem(n_groups=1, suspect_ms=SUSPECT_MS)
    sched, procs, omegas = sys_.scheduler, sys_.processes, sys_.oracles
    procs[0].crash()
    procs[1].crash()
    sched.run(until=400.0)
    assert omegas[2].leader == 2


def test_all_crashed_keeps_last_output():
    sys_ = MiniSystem(n_groups=1, suspect_ms=SUSPECT_MS)
    sched, procs, omegas = sys_.scheduler, sys_.processes, sys_.oracles
    for p in procs.values():
        p.crash()
    sched.run(until=400.0)
    # Nobody is heard from, but an Ω never suspects its own process: the
    # first member's keeps its last output, and no output leaves the group.
    assert omegas[0].leader == 0
    assert set(outputs(omegas).values()) <= {0, 1, 2}


def test_attach_omegas_one_per_process():
    sys_ = MiniSystem(suspect_ms=SUSPECT_MS)
    sched, net, procs, omegas = sys_.scheduler, sys_.network, sys_.processes, sys_.oracles
    assert set(omegas) == set(procs)
    for pid, omega in omegas.items():
        assert omega.own_pid == pid
        assert omega.group_id == procs[pid].gid
        assert omega.members == procs[pid].group_members
    assert outputs(omegas) == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 3}
    sched.run(until=2 * HB_INTERVAL_MS)
    # Every round heartbeats each group peer. The first round's 12
    # arrivals are stamped and dropped: 12 rounds + 12 arrivals, and no
    # CPU-queue job for any of them.
    assert net.counts_by_kind["heartbeat"] == 2 * 6 * 2
    assert sched.events_processed == 12 + 12


def test_attach_after_first_transmit():
    """Channels built before ``attach_omegas`` still reach the wrapped
    receive callback: the early heartbeats are stamped and dropped (not
    handed to the protocol), and no live leader is suspected."""
    config = uniform_groups(1, 3)
    sched = Scheduler()
    net = Network(sched, ConstantLatency(1.0), child_rng(1, "o"))
    procs = {pid: PrimCastProcess(pid, config, sched, net) for pid in config.all_pids}
    for src in procs:
        for dst in procs:
            if dst != src:
                net.transmit(src, dst, HEARTBEAT, 0.0)
    omegas = attach_omegas(procs, SUSPECT_MS)
    changes = []
    for omega in omegas.values():
        omega.subscribe(lambda gid, pid: changes.append(pid))
    sched.run(until=1000.0)
    assert changes == [0, 0, 0]
    assert outputs(omegas) == {0: 0, 1: 0, 2: 0}


def test_empty_group_rejected():
    with pytest.raises(ValueError):
        HeartbeatOmega(0, [], 0, Scheduler(), lambda: None)


def test_bad_suspect_timeout_rejected():
    # A NaN threshold fails every comparison, so no peer would ever be
    # suspected; an infinite one never suspects either.
    for suspect_ms in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="suspect_ms must be positive and finite"):
            HeartbeatOmega(0, [0], 0, Scheduler(), lambda: None, suspect_ms=suspect_ms)
        with pytest.raises(ValueError, match="suspect_ms must be positive and finite"):
            MiniSystem(n_groups=1, suspect_ms=suspect_ms)


def test_stability_no_spurious_changes():
    sys_ = MiniSystem(n_groups=1, suspect_ms=SUSPECT_MS)
    sched, omegas = sys_.scheduler, sys_.oracles
    changes = []
    for omega in omegas.values():
        omega.subscribe(lambda gid, pid: changes.append(pid))
    sched.run(until=1000.0)
    assert changes == [0, 0, 0]  # only the initial notifications
    assert HEARTBEAT.kind == "heartbeat" and not hasattr(HEARTBEAT, "mid")
