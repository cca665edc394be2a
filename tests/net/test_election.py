"""The net backend's Ω: heartbeat rounds on the housekeeping grid, and
heartbeats implied by traffic.

:class:`HeartbeatOmega` runs here on the deterministic simulator
scheduler (it is written against the runtime seam), so every time below
is exact. ``NetNode._omega_round`` runs against a stub transport.
"""

from __future__ import annotations

import asyncio
import os

from helpers import CountingLoop, serving_node
from repro.core import Multicast, Start
from repro.core.gc import next_grid_time
from repro.election import HB_INTERVAL_MS, HeartbeatOmega
from repro.net.cluster import ClusterSpec, make_topology
from repro.net.codec import FrameDecoder, encode_msg_frame
from repro.net.host import NetNode
from repro.rmcast.fifo import Envelope
from repro.sim import Scheduler


def _omega(sched, own_pid=2, suspect_ms=200.0):
    rounds = []
    omega = HeartbeatOmega(
        0, [0, 1, 2], own_pid, sched, lambda: rounds.append(sched.now), suspect_ms=suspect_ms
    )
    outputs = []
    omega.subscribe(lambda gid, leader: outputs.append((sched.now, leader)))
    return omega, rounds, outputs


def _keep_alive(sched, omega, pid, until):
    """``pid`` is heard from every 30 ms up to ``until``."""
    for t in range(30, int(until), 30):
        sched.call_at(float(t), omega.heard_from, pid)


def test_start_counts_every_peer_as_heard():
    sched = Scheduler()
    omega, _, _ = _omega(sched)
    sched.run(until=40.0)
    omega.start()
    assert omega._last_heard == {0: 40.0, 1: 40.0}
    assert not any(omega.suspected(pid) for pid in (0, 1, 2))
    sched.run(until=240.0)  # 200 ms of silence: not yet *more* than suspect_ms
    assert not omega.suspected(0)
    sched.run(until=240.5)
    assert omega.suspected(0) and omega.suspected(1) and not omega.suspected(2)


def test_a_silent_peer_is_suspected_and_the_next_member_elected():
    sched = Scheduler()
    omega, _, outputs = _omega(sched)
    _keep_alive(sched, omega, 1, 1000.0)
    omega.start()
    sched.run(until=1000.0)
    # Pid 0 is silent from t = 0: the first round after 200 ms elects 1,
    # and the subscriber hears of it then (and once only).
    assert omega.leader == 1 and omega.suspected(0) and not omega.suspected(1)
    assert outputs == [(0.0, 0), (250.0, 1)]


def test_heard_from_clears_the_suspicion():
    sched = Scheduler()
    omega, _, outputs = _omega(sched)
    _keep_alive(sched, omega, 1, 1000.0)
    omega.start()
    sched.run(until=400.0)
    assert omega.suspected(0) and omega.leader == 1
    sched.call_at(410.0, omega.heard_from, 0)
    sched.run(until=420.0)
    assert not omega.suspected(0) and omega.leader == 1  # until the next round
    sched.run(until=460.0)
    assert omega.leader == 0
    assert outputs == [(0.0, 0), (250.0, 1), (450.0, 0)]


def test_rounds_land_on_multiples_of_the_heartbeat_interval():
    sched = Scheduler()
    omega, rounds, _ = _omega(sched)
    sched.call_at(17.3, omega.start)  # started off the grid
    sched.run(until=300.0)
    assert rounds == [50.0, 100.0, 150.0, 200.0, 250.0, 300.0]
    omega.stop()
    omega.stop()
    assert sched.pending() == 0  # stop() cancels the armed tick
    sched.run(until=1000.0)
    assert len(rounds) == 6


def test_a_late_or_early_timer_stays_on_the_grid():
    # A round that fires late is not followed by a period of its own:
    # the next one is the next grid point. One that fires a hair early
    # (an event loop's clock resolution) counts as on its grid point.
    assert next_grid_time(0.0, HB_INTERVAL_MS) == 50.0
    assert next_grid_time(130.0, HB_INTERVAL_MS) == 150.0
    assert next_grid_time(100.0, HB_INTERVAL_MS) == 150.0
    assert next_grid_time(100.0 - 1e-7, HB_INTERVAL_MS) == 150.0
    assert next_grid_time(99.9, HB_INTERVAL_MS) == 100.0
    assert next_grid_time(1000.0, 250.0) == 1250.0


class _Link:
    def __init__(self):
        self.writes = 0


class _StubTransport:
    """Every frame is one socket write (``coalesce=False``): a heartbeat
    moves its link's ``writes``, as it does on the wire."""

    def __init__(self, pids):
        self.peers = {pid: _Link() for pid in pids}
        self.sent = []

    def send_frame_bytes(self, dst, data):
        self.sent.append(dst)
        self.peers[dst].writes += 1


def test_a_round_heartbeats_only_links_without_a_write_since_the_previous_round(tmp_path):
    # Pid 0 of a 2x3 cluster: group peers 1 and 2; pids 3-5 are in the
    # other group and never get a heartbeat.
    node = NetNode(make_topology(ClusterSpec(n_groups=2, group_size=3)), 0, tmp_path)
    transport = node._transport = _StubTransport([1, 2, 3, 4, 5])

    def round_():
        transport.sent.clear()
        node._omega_round()
        return sorted(transport.sent)

    assert round_() == [1, 2]  # the first round: no previous one
    assert round_() == []  # each link's write was that heartbeat
    transport.peers[1].writes += 1  # protocol traffic to pid 1
    assert round_() == [2]  # the silent link gets exactly one
    transport.peers[1].writes += 5
    transport.peers[2].writes += 1
    assert round_() == []
    assert round_() == [1, 2]
    assert node._heartbeats == 5


def test_call_count_a_round_encodes_no_heartbeat_and_stats_stop_once(tmp_path, monkeypatch):
    # The heartbeat frame and the STOP path are the node's constants:
    # a round sends the one frame built at construction and makes one
    # stat call on a ready-made path string, once the node is done.
    node = NetNode(make_topology(ClusterSpec(n_groups=2, group_size=3, codec="binary")), 0, tmp_path)
    transport = node._transport = _StubTransport([1, 2, 3, 4, 5])
    frames = []
    transport.send_frame_bytes = lambda dst, data: frames.append(data)
    encodes = []
    monkeypatch.setattr("repro.net.host.encode_hb_frame", lambda *a, **k: encodes.append(a))
    looks = []
    real_exists = os.path.exists
    monkeypatch.setattr(os.path, "exists", lambda path: looks.append(path) or real_exists(path))
    node._stop = asyncio.Event()
    for _ in range(3):
        node._omega_round()
    (tmp_path / "STOP").write_text("")
    node._omega_round()
    assert node._stop.is_set()
    node._omega_round()  # stopped: no further look
    assert encodes == []
    assert len(frames) == 10 and all(data is node._hb_frame for data in frames)
    assert looks == [str(tmp_path / "STOP")] * 4


def test_omega_keeps_the_stamps_of_group_peers_only(tmp_path):
    # Pid 0 of a 2x3 cluster hears from pid 3 (group 1) and pid 1 (its
    # own group): only pid 1's stamp moves, and no other pid enters.
    loop = CountingLoop()
    node, _ = serving_node(tmp_path, loop)
    started = dict(node.omega._last_heard)
    assert sorted(started) == [1, 2]

    def receive(src, seq):
        start = Start(Multicast((src, seq), frozenset({0, 1}), None))
        (frame,) = FrameDecoder().feed(encode_msg_frame(src, Envelope(src, seq, start, (0,)), binary=True))
        node._on_frame(src, frame)

    receive(3, 0)
    assert node.omega._last_heard == started
    receive(1, 0)
    assert sorted(node.omega._last_heard) == [1, 2]
    assert node.omega._last_heard[1] > started[1] and node.omega._last_heard[2] == started[2]
    node.omega.heard_from(4)
    node.omega.heard_from(0)  # this node
    assert sorted(node.omega._last_heard) == [1, 2]
