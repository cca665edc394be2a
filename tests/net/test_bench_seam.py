"""The names ``bench/`` reaches for in ``repro``, pinned in tier-1.

``bench/trace.py`` wraps layer entry points by ``setattr`` on the class
(or module) that owns them and *skips a name it cannot find*;
``bench/netbench.py`` reads work counters off live objects. A refactor
that renames or bypasses one of them would zero a per-layer metric
instead of failing, and ``bench/`` may not be edited by the change that
does it — so the contract lives here, next to the code it constrains.
(The CI ``bench-smoke`` job also runs one traced workload and requires
every wrapped layer to have recorded time.)
"""

from __future__ import annotations

import asyncio
import inspect
from collections import Counter

import pytest

import repro.net.host
from repro.net.cluster import ClusterSpec, make_topology, run_cluster_inprocess
from repro.net.codec import FrameDecoder
from repro.net.host import NetNode, NetScheduler, TransportFacade
from repro.net.transport import PeerConnection, Transport

#: (owner, attribute, positional parameters after ``self``) of every
#: function ``Tracer.install`` replaces; its labels index ``args`` by
#: position, so the leading parameters are part of the contract.
WRAPPED = [
    (Transport, "send_frame_bytes", ["dst", "data"]),
    (PeerConnection, "send_bytes", ["data", "frames"]),
    (FrameDecoder, "feed", ["data"]),
    (NetScheduler, "drain", []),
    (TransportFacade, "transmit", ["src", "dst", "msg", "depart_time"]),
]


@pytest.mark.parametrize("owner,attr,params", WRAPPED, ids=lambda v: getattr(v, "__name__", None))
def test_traced_entry_points_are_plain_methods_looked_up_on_the_class(owner, attr, params):
    fn = vars(owner).get(attr)
    assert inspect.isfunction(fn), f"{owner.__name__}.{attr} must be a def on the class itself"
    assert list(inspect.signature(fn).parameters)[1:] == params


def test_host_encodes_through_its_own_module_global():
    # trace.py rebinds ``repro.net.host.encode_msg_frame``; transmit must
    # look the name up there on every call, not hold another reference.
    assert inspect.isfunction(repro.net.host.encode_msg_frame)
    assert list(inspect.signature(repro.net.host.encode_msg_frame).parameters) == [
        "src", "msg", "binary"
    ]
    assert "encode_msg_frame" in TransportFacade.transmit.__code__.co_names


def test_in_process_run_encodes_once_per_staged_protocol_frame_and_drains_every_stimulus(
    tmp_path, monkeypatch
):
    # bench/netbench.py derives heartbeat frames as transport.send calls
    # minus codec.encode calls, so encode_msg_frame must be called once
    # per staged protocol frame however much it memoises. And it times
    # host.drain by wrapping NetScheduler.drain: every received frame
    # and every timer must run its heap work through that method.
    counts: Counter = Counter()
    encode, send = repro.net.host.encode_msg_frame, Transport.send_frame_bytes
    drain, fire, on_frame = NetScheduler.drain, NetScheduler._fire, NetNode._on_frame

    def counting_encode(src, msg, binary=False):
        counts["encode"] += 1
        return encode(src, msg, binary)

    def counting_send(self, dst, data):
        counts["send"] += 1
        send(self, dst, data)

    def counting_drain(self):
        counts["drains"] += 1
        before = self.events_processed
        drain(self)
        counts["drained"] += self.events_processed - before

    def checked(run, stimulus):
        def wrapper(self, *args):
            before, dead = counts["drains"], getattr(self, "dead", False)
            run(self, *args)
            if not dead:  # a closed node's timer runs nothing at all
                counts[stimulus] += 1
                counts[stimulus + " without a drain"] += counts["drains"] == before
        return wrapper

    def checked_on_frame(self, src, frame):
        (checked(on_frame, "frame") if frame["t"] == "m" else on_frame)(self, src, frame)

    monkeypatch.setattr(repro.net.host, "encode_msg_frame", counting_encode)
    monkeypatch.setattr(Transport, "send_frame_bytes", counting_send)
    monkeypatch.setattr(NetScheduler, "drain", counting_drain)
    monkeypatch.setattr(NetScheduler, "_fire", checked(fire, "timer"))
    monkeypatch.setattr(NetNode, "_on_frame", checked_on_frame)
    spec = ClusterSpec(n_groups=2, group_size=3, n_messages=24, seed=4, driver_mode="open",
                       clients=4, window=3, rate_hz=200.0, codec="binary")
    result = asyncio.run(run_cluster_inprocess(make_topology(spec), tmp_path))
    assert result.ok
    summaries = [o.summary for o in result.outcomes.values()]
    heartbeats = sum(s["heartbeats_sent"] for s in summaries)
    assert counts["encode"] > 24 * 9 and counts["encode"] == counts["send"] - heartbeats
    assert counts["frame"] > 0 and counts["timer"] > 0
    assert counts["frame without a drain"] == counts["timer without a drain"] == 0
    assert counts["drained"] == sum(s["events"] for s in summaries)


def test_counters_netbench_reads_exist_with_the_right_types(tmp_path):
    async def build():
        conn = PeerConnection(0, 1, "127.0.0.1", 1, lambda event, data: None)
        transport = Transport(0, {0: ("127.0.0.1", 1)}, on_frame=lambda src, frame: None)
        return conn, transport

    conn, transport = asyncio.run(build())
    for name in ("frames_sent", "writes", "bytes_sent", "reconnects"):
        assert type(getattr(conn, name)) is int and getattr(conn, name) == 0, name
    assert transport.peers == {} and type(transport.overload_events) is int
    node = NetNode(make_topology(ClusterSpec(n_groups=1, group_size=1)), 0, tmp_path)
    assert "_transport" in vars(node) and "_epochs_seen" in vars(node)


def test_run_header_backend_name():
    # bench/run.py prints ``backend_info()["backend"]`` in its run header;
    # the name lives on until a ``benchmark`` PR drops that import.
    import repro
    from repro._backend import backend_info

    assert backend_info()["backend"] == "pure-python"
    assert repro.backend_info is backend_info
