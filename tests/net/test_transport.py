"""Transport tests: bad bytes, the read path, reconnect and retransmit.

Real ``Transport`` objects on one event loop over loopback sockets, plus
a raw socket or a raw listener playing the misbehaving peer.
"""

from __future__ import annotations

import asyncio

import repro.net.codec as codec_mod
from repro.core.messages import Multicast, Start
from repro.net.cluster import allocate_ports
from repro.net.codec import (
    LEN_STRUCT,
    FrameDecoder,
    canonical_message_bytes,
    encode_frame,
    encode_hb_frame,
    encode_msg_frame,
)
from repro.net.host import NetScheduler, TransportFacade
from repro.net.transport import RECV_BUFFER_BYTES, PeerConnection, Transport
from repro.rmcast.fifo import Envelope

HELLO = encode_frame({"t": "hello", "pid": 0})
#: A binary message frame whose body stops in the middle of the message.
TRUNCATED = LEN_STRUCT.pack(9) + b"\x00\x03\x03\x00\x00\x00\x00\x02\x0d"
#: A complete, once valid frame of binary format 1 (a Bump from pid 0).
V1_FRAME = LEN_STRUCT.pack(18) + b"\x00\x01\x03\x00\x00\x00\x00\x03\x01\x02\x01\x04\x02\x01\x2c\x01\x04\x00"


async def _until(predicate, timeout_s: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.01)


def _loopback(n: int):
    """Free loopback addresses for pids ``0..n-1``."""
    return {pid: ("127.0.0.1", port) for pid, port in enumerate(allocate_ports(n))}


async def _pair(on_frame, on_frame_a=lambda src, frame: None):
    """Nodes 0 and 1, connected; node 1 records frames and probes."""
    addresses = _loopback(2)
    probes = []
    a = Transport(0, addresses, on_frame=on_frame_a)
    b = Transport(1, addresses, on_frame=on_frame, probe=lambda e, d: probes.append((e, d)))
    await a.start()
    await b.start()
    await a.connect_all(5.0)
    await b.connect_all(5.0)
    return a, b, addresses[1], probes


def test_garbage_frame_closes_only_that_connection():
    async def scenario():
        received = []
        a, b, b_address, probes = await _pair(lambda src, f: received.append((src, f)))
        try:
            # One more connection claims to be pid 0, then sends bytes
            # that are not a frame — cut short, or of the wire format
            # this one replaced: node 1 must drop that connection ...
            for n, garbage in enumerate((TRUNCATED, V1_FRAME), start=1):
                reader, writer = await asyncio.open_connection(*b_address)
                writer.write(HELLO)
                await _until(lambda: probes.count(("peer_hello", 0)) == 1 + n)
                writer.write(garbage)
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
                assert probes.count(("bad_frame", 0)) == n
            assert received == []
            # ... and keep serving node 0's real one.
            a.send_frame_bytes(1, encode_hb_frame(0, binary=True))
            await _until(lambda: received == [(0, {"t": "hb", "pid": 0})])
            assert a.peers[1].reconnects == 0
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_good_frames_before_garbage_in_one_read_are_handled_then_the_connection_closes():
    # Hello, two good frames and garbage in one write, so in one read:
    # the frames arrive as they would had TCP cut the read before the
    # garbage, then the connection is dropped with one bad_frame.
    async def scenario():
        received = []
        node, address, probes = await _lone_node(lambda src, f: received.append((src, f)))
        try:
            reader, writer = await asyncio.open_connection(*address)
            writer.write(HELLO + _hb(1) + _hb(2) + TRUNCATED)
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            assert received == [(0, _hb_frame(1)), (0, _hb_frame(2))]
            assert probes == [("peer_hello", 0), ("bad_frame", 0)]
        finally:
            await node.close()

    asyncio.run(scenario())


def test_handler_exceptions_are_not_mistaken_for_bad_frames():
    # Only the decoder's verdict drops a connection quietly; a protocol
    # handler that raises (here even a ValueError, CodecError's base)
    # still surfaces through the loop's exception handler.
    async def scenario():
        def on_frame(src, frame):
            raise ValueError("handler bug")

        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context.get("exception"))
        )
        a, b, _, probes = await _pair(on_frame)
        try:
            a.send_frame_bytes(1, encode_hb_frame(0))
            await _until(lambda: unhandled)
            assert [str(exc) for exc in unhandled] == ["handler bug"]
            assert not [p for p in probes if p[0] == "bad_frame"]
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# the read path: one loop callback per socket read
# ----------------------------------------------------------------------


def _hb(i: int) -> bytes:
    """A small frame carrying a sequence number (decodes to ``_hb_frame(i)``)."""
    return encode_hb_frame(i, binary=True)


def _hb_frame(i: int):
    return {"t": "hb", "pid": i}


async def _lone_node(on_frame):
    """A node with no peers: only its listening side is exercised."""
    addresses = _loopback(1)
    probes = []
    node = Transport(0, addresses, on_frame=on_frame, probe=lambda e, d: probes.append((e, d)))
    await node.start()
    return node, addresses[0], probes


def test_any_chunking_of_the_byte_stream_yields_the_same_frames():
    async def scenario():
        received = []
        node, address, probes = await _lone_node(lambda src, f: received.append((src, f)))
        stream = HELLO + _hb(1) + _hb(2) + _hb(3)
        expected = [(0, _hb_frame(i)) for i in (1, 2, 3)]
        try:
            for chunks in ([stream], [stream[i : i + 1] for i in range(len(stream))]):
                del received[:]
                _, writer = await asyncio.open_connection(*address)
                for chunk in chunks:
                    writer.write(chunk)
                    await asyncio.sleep(0)  # let the node read what there is
                await _until(lambda: len(received) >= 3)
                assert received == expected
                writer.close()
            assert probes == [("peer_hello", 0)] * 2
            assert node.frames_received == 6
        finally:
            await node.close()

    asyncio.run(scenario())


def test_first_frame_that_is_no_hello_closes_the_connection_quietly():
    async def scenario():
        received = []
        node, address, probes = await _lone_node(lambda src, f: received.append((src, f)))
        try:
            reader, writer = await asyncio.open_connection(*address)
            writer.write(_hb(1) + HELLO + _hb(2))
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            assert (received, probes) == ([], [])
        finally:
            await node.close()

    asyncio.run(scenario())


def test_a_message_frame_from_another_pid_ends_the_connection():
    # Every frame on a connection is its hello pid's: one that names
    # another src is a protocol violation, in either format. The frames
    # before it are handled, it and the rest are not.
    async def scenario():
        received = []
        node, address, probes = await _lone_node(lambda src, f: received.append((src, f["src"])))
        start = Start(Multicast((0, 1), frozenset({0}), "x"))
        try:
            for n, binary in enumerate((True, False), start=1):
                reader, writer = await asyncio.open_connection(*address)
                own, forged = (encode_msg_frame(pid, start, binary=binary) for pid in (0, 5))
                writer.write(HELLO + own + forged + own)
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
                assert received == [(0, 0)] * n
                assert probes == [("peer_hello", 0), ("bad_frame", 0)] * n
        finally:
            await node.close()

    asyncio.run(scenario())


def test_frames_of_one_read_run_one_handler_at_a_time_and_write_later(monkeypatch):
    # 60 frames arrive in one socket read; every handler answers the
    # sender. The handlers run back to back inside that read's callback,
    # never nested, and the answers reach a socket only from the flush
    # callback afterwards.
    n = 60
    fed = []
    feed = FrameDecoder.feed
    monkeypatch.setattr(
        FrameDecoder, "feed", lambda self, data: fed.append(feed(self, data)) or fed[-1]
    )
    depth = {"now": 0, "max": 0, "at_write": []}
    send_bytes = PeerConnection.send_bytes

    def traced_send_bytes(conn, data, frames=1):
        depth["at_write"].append(depth["now"])
        send_bytes(conn, data, frames)

    monkeypatch.setattr(PeerConnection, "send_bytes", traced_send_bytes)

    async def scenario():
        answers = []

        def on_frame(src, frame):
            depth["now"] += 1
            depth["max"] = max(depth["max"], depth["now"])
            b.send_frame_bytes(src, _hb(frame["pid"]))
            depth["now"] -= 1

        a, b, _, _ = await _pair(on_frame, lambda src, f: answers.append(f))
        try:
            a.peers[1].send_bytes(b"".join(_hb(i) for i in range(n)), n)
            await _until(lambda: len(answers) == n)
            assert answers == [_hb_frame(i) for i in range(n)]
            assert max(len(frames) for frames in fed) >= 50
            assert depth["max"] == 1
            assert depth["at_write"] and set(depth["at_write"]) == {0}
            # ... and coalesced: far fewer socket writes than answers.
            assert b.peers[0].frames_sent == n and b.peers[0].writes < n / 10
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_a_frame_larger_than_the_receive_buffer_reassembles_across_reads(monkeypatch):
    # 200 KiB of payload through a 64 KiB receive buffer: several reads,
    # none longer than the buffer, one frame — and the next frame after
    # it is intact too.
    reads = []
    feed = FrameDecoder.feed
    monkeypatch.setattr(
        FrameDecoder, "feed", lambda self, data: reads.append(len(data)) or feed(self, data)
    )
    text = "".join(chr(0x20 + i % 0x5F) for i in range(200 * 1024))
    big = Envelope(0, 0, Start(Multicast((0, 0), frozenset({0}), text)), (1,))

    async def scenario():
        received = []
        a, b, _, probes = await _pair(lambda src, f: received.append((src, f)))
        try:
            a.send_frame_bytes(1, encode_msg_frame(0, big, binary=True))
            a.send_frame_bytes(1, _hb(7))
            await _until(lambda: len(received) == 2)
            (src, frame), tail = received
            assert (src, frame["t"], frame["src"]) == (0, "m", 0)
            assert canonical_message_bytes(frame["msg"]) == canonical_message_bytes(big)
            assert frame["msg"].payload.multicast.payload == text
            assert tail == (0, _hb_frame(7))
            assert not [p for p in probes if p[0] == "bad_frame"]
            assert max(reads) <= RECV_BUFFER_BYTES < sum(reads) and len(reads) >= 4
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_two_connections_share_the_receive_buffer_without_mixing_their_frames(monkeypatch):
    # Both connections of one transport read into the same buffer. Each
    # is fed one frame and the head of the next per write, alternately,
    # so every read leaves a partial frame behind while the other
    # connection's bytes pass through the buffer.
    reads = []
    feed = FrameDecoder.feed
    monkeypatch.setattr(
        FrameDecoder, "feed", lambda self, data: reads.append(bytes(data)) or feed(self, data)
    )
    n = 12

    def frame(pid: int, i: int) -> bytes:
        return encode_frame({"t": "x", "from": pid, "i": i, "pad": chr(65 + pid) * (50 + 7 * i)})

    async def scenario():
        received = []
        node, address, probes = await _lone_node(lambda src, f: received.append((src, f)))
        try:
            writers, streams = {}, {}
            for pid in (5, 6):
                _, writers[pid] = await asyncio.open_connection(*address)
                streams[pid] = encode_frame({"t": "hello", "pid": pid}) + b"".join(
                    frame(pid, i) for i in range(n)
                )
            cuts = {pid: 0 for pid in streams}
            step = 0
            while any(cuts[pid] < len(streams[pid]) for pid in streams):
                pid = (5, 6)[step % 2]
                step += 1
                chunk = streams[pid][cuts[pid] : cuts[pid] + 97]
                if not chunk:
                    continue
                cuts[pid] += len(chunk)
                before = len(reads)
                writers[pid].write(chunk)
                await _until(lambda: len(reads) > before)  # read before the other one writes
            await _until(lambda: len(received) == 2 * n)
            for pid in (5, 6):
                mine = [f for src, f in received if src == pid]
                assert [(f["from"], f["i"]) for f in mine] == [(pid, i) for i in range(n)]
                assert all(f["pad"] == chr(65 + pid) * (50 + 7 * f["i"]) for f in mine)
            assert sorted(p for p in probes) == [("peer_hello", 5), ("peer_hello", 6)]
            assert [conn.get_buffer(-1) is node._recv_buf for conn in node._accepted] == [True, True]
            assert b"".join(reads[0::2]) == streams[5] and b"".join(reads[1::2]) == streams[6]
            for writer in writers.values():
                writer.close()
        finally:
            await node.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# what a frame costs: encoded once per envelope, staged by reference,
# decoded in place
# ----------------------------------------------------------------------


def _unstarted_transport(peer_pids):
    """A Transport whose peers have no socket yet: what it is asked to
    write is queued on each PeerConnection."""
    transport = Transport(0, {0: ("127.0.0.1", 1)}, on_frame=lambda src, f: None)
    transport.peers = {
        pid: PeerConnection(0, pid, "127.0.0.1", 1, lambda e, d: None) for pid in peer_pids
    }
    return transport


def test_call_count_an_envelope_to_five_peers_is_one_encode_and_one_bytes_object(monkeypatch):
    envelope_codec = codec_mod._CODECS[Envelope]
    puts = []

    def counting_put(out, env):
        puts.append(env)
        envelope_codec.put(out, env)

    monkeypatch.setitem(codec_mod._CODECS, Envelope, envelope_codec._replace(put=counting_put))

    async def scenario():
        transport = _unstarted_transport(range(1, 6))
        facade = TransportFacade(NetScheduler(asyncio.get_running_loop()), binary=True)
        facade.bind(transport)
        env = Envelope(0, 7, Start(Multicast((0, 3), frozenset({0, 1}), "x" * 64)), tuple(range(6)))
        for dst in range(1, 6):
            facade.transmit(0, dst, env, 0.0)
        staged = [conn.staged for conn in transport.peers.values()]
        assert [len(frames) for frames in staged] == [1] * 5
        assert len({id(frames[0]) for frames in staged}) == 1 and staged[0][0] is env.frame
        assert puts == [env]
        assert transport.queued_bytes() == 5 * len(env.frame)
        await asyncio.sleep(0)  # the flush
        assert transport.queued_bytes() == 5 * len(env.frame)  # now queued, unsent

    asyncio.run(scenario())


def test_call_count_a_lone_staged_frame_reaches_send_bytes_without_a_copy(monkeypatch):
    written = []
    send_bytes = PeerConnection.send_bytes

    def recording_send_bytes(conn, data, frames=1):
        written.append((conn.peer_pid, data, frames))
        send_bytes(conn, data, frames)

    monkeypatch.setattr(PeerConnection, "send_bytes", recording_send_bytes)

    async def scenario():
        transport = _unstarted_transport([1, 2])
        lone, first, second = _hb(1), _hb(2), _hb(3)
        transport.send_frame_bytes(1, lone)
        transport.send_frame_bytes(2, first)
        transport.send_frame_bytes(2, second)
        assert written == []  # staged until the flush
        await asyncio.sleep(0)
        assert [(pid, frames) for pid, _, frames in written] == [(1, 1), (2, 2)]
        assert written[0][1] is lone
        assert written[1][1] == first + second  # several: joined once

    asyncio.run(scenario())


class _UntouchableBuffer(bytearray):
    """A reassembly buffer that fails the test if anything is put in it."""

    def __iadd__(self, other):
        raise AssertionError("a whole frame went through the reassembly buffer")

    extend = __iadd__


def test_call_count_whole_frames_never_touch_the_reassembly_buffer():
    frames = [_hb(i) for i in range(8)] + [encode_frame({"t": "x", "i": 8})]
    decoder = FrameDecoder()
    decoder._buf = _UntouchableBuffer()
    got = decoder.feed(memoryview(b"".join(frames)))
    assert got == [_hb_frame(i) for i in range(8)] + [{"t": "x", "i": 8}]
    # Only the head of a frame the read ends inside is kept, and the
    # next read completes it from its own head.
    decoder = FrameDecoder()
    assert decoder.feed(frames[0] + frames[1][:5]) == [_hb_frame(0)]
    assert decoder._buf == frames[1][:5]
    assert decoder.feed(frames[1][5:] + frames[2]) == [_hb_frame(1), _hb_frame(2)]
    assert decoder._buf == b""


# ----------------------------------------------------------------------
# reconnect and retransmit against a flaky peer
# ----------------------------------------------------------------------


class FlakyPeer:
    """A raw listener playing the node's peer: it decodes what it reads,
    can leave its sockets unread, and can vanish — reset every
    connection, as a crashed host would, and stop listening."""

    def __init__(self, address, reading: bool = True) -> None:
        self.address = address
        self.reading = reading
        #: Every frame read, hellos included, in arrival order.
        self.frames = []
        self._socks = []
        self._server = None

    async def listen(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _FlakyPeerSocket(self), *self.address
        )

    async def vanish(self) -> None:
        self._server.close()
        for sock in self._socks:
            sock.abort()
        del self._socks[:]
        await self._server.wait_closed()


class _FlakyPeerSocket(asyncio.Protocol):
    def __init__(self, peer: FlakyPeer) -> None:
        self.peer = peer
        self.decoder = FrameDecoder()

    def connection_made(self, sock) -> None:
        self.peer._socks.append(sock)
        if not self.peer.reading:
            sock.pause_reading()

    def data_received(self, data: bytes) -> None:
        self.peer.frames.extend(self.decoder.feed(data))


async def _node_and_flaky_peer(reading: bool = True, **transport_kwargs):
    """Node 0, a real Transport, dialing a FlakyPeer that plays node 1."""
    addresses = _loopback(2)
    probes = []
    node = Transport(
        0, addresses, on_frame=lambda src, f: None,
        probe=lambda e, d: probes.append((e, d)), **transport_kwargs
    )
    peer = FlakyPeer(addresses[1], reading)
    await peer.listen()
    await node.start()
    await node.connect_all(5.0)
    return node, peer, probes


def test_frames_sent_while_the_peer_is_down_arrive_once_in_order_after_reconnect():
    k, n = 3, 20
    hello = {"t": "hello", "pid": 0}

    async def scenario():
        node, peer, probes = await _node_and_flaky_peer()
        conn = node.peers[1]
        try:
            for i in range(k):
                node.send_frame_bytes(1, _hb(i))
            await _until(lambda: len(peer.frames) == 1 + k)
            await peer.vanish()
            # From the moment the node has seen the reset nothing is
            # lost. (What the kernel takes before that moment is: there
            # are no acknowledgements inside a connection.)
            await _until(lambda: not conn.connected.is_set())
            for i in range(k, k + n):
                node.send_frame_bytes(1, _hb(i))
            await _until(lambda: probes.count(("connect_failed", 1)) >= 2)
            assert conn.queued() > 0 and conn.queued_bytes == n * len(_hb(0))
            await peer.listen()
            await _until(lambda: len(peer.frames) >= 2 + k + n)
            await _until(lambda: conn.queued() == 0)
            assert peer.frames == (
                [hello] + [_hb_frame(i) for i in range(k)]
                + [hello] + [_hb_frame(i) for i in range(k, k + n)]
            )
            assert (conn.connects, conn.reconnects) == (2, 1)
            assert probes.count(("reconnect", 1)) == 1
            assert conn.frames_sent == k + n
            assert (conn.queued_bytes, node.queued_bytes()) == (0, 0)
            assert node.overloaded() is False and node.overload_events == 0
        finally:
            await node.close()
            await peer.vanish()

    asyncio.run(scenario())


def test_unread_bytes_back_up_into_the_queue_and_the_tail_is_retransmitted():
    # The peer accepts but does not read: once the socket buffers are
    # full, chunks stay queued (the kernel has not taken them), the
    # backpressure signal turns on, and after the peer's reset the whole
    # unconfirmed tail goes out again behind the next hello.
    def frame(i: int) -> bytes:
        return encode_frame({"t": "x", "i": i, "pad": "p" * 16384})

    async def scenario():
        node, peer, probes = await _node_and_flaky_peer(
            reading=False, max_queue_bytes=256 * 1024
        )
        conn = node.peers[1]
        try:
            sent = 0
            while conn.queued_bytes <= node.max_queue_bytes:
                assert sent < 4096, "64 MiB written and the socket took it all"
                for _ in range(64):  # 1 MiB
                    node.send_frame_bytes(1, frame(sent))
                    sent += 1
                await asyncio.sleep(0.01)
            assert node.overloaded() and node.overloaded()
            assert node.overload_events == 1
            assert peer.frames == []
            unconfirmed = conn.queued_bytes
            await peer.vanish()
            peer.reading = True
            await peer.listen()
            await _until(lambda: node.queued_bytes() == 0, timeout_s=20.0)
            await _until(lambda: peer.frames and peer.frames[-1].get("i") == sent - 1)
            assert peer.frames[0] == {"t": "hello", "pid": 0}
            seqs = [f["i"] for f in peer.frames[1:]]
            # No gap from the first retransmitted frame to the last one
            # sent. What the kernel had taken before the reset is gone.
            assert seqs == list(range(seqs[0], sent))
            assert sum(len(frame(i)) for i in seqs) >= unconfirmed
            assert conn.reconnects == 1 and conn.frames_sent == sent
            assert node.overloaded() is False and node.overload_events == 1
        finally:
            await node.close()
            await peer.vanish()

    asyncio.run(scenario())
