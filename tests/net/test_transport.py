"""Transport tests: what one connection's bad bytes may and may not do.

Two real ``Transport`` objects on one event loop over loopback sockets,
plus a raw socket playing the misbehaving peer.
"""

from __future__ import annotations

import asyncio

from repro.net.cluster import allocate_ports
from repro.net.codec import LEN_STRUCT, encode_frame, encode_hb_frame
from repro.net.transport import Transport

HELLO = encode_frame({"t": "hello", "pid": 0})
#: A binary message frame whose body stops in the middle of the message.
TRUNCATED = LEN_STRUCT.pack(9) + b"\x00\x01\x03\x00\x00\x00\x00\x02\x0d"


async def _until(predicate, timeout_s: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.01)


async def _pair(on_frame):
    """Nodes 0 and 1, connected; node 1 records frames and probes."""
    ports = allocate_ports(2)
    addresses = {pid: ("127.0.0.1", ports[pid]) for pid in (0, 1)}
    probes = []
    a = Transport(0, addresses, on_frame=lambda src, frame: None)
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
            # A second connection claims to be pid 0, then sends bytes
            # that are not a frame: node 1 must drop that connection ...
            reader, writer = await asyncio.open_connection(*b_address)
            writer.write(HELLO)
            await _until(lambda: probes.count(("peer_hello", 0)) == 2)
            writer.write(TRUNCATED)
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            assert ("bad_frame", 0) in probes
            assert received == []
            # ... and keep serving node 0's real one.
            a.send_frame_bytes(1, encode_hb_frame(0, binary=True))
            await _until(lambda: received == [(0, {"t": "hb", "pid": 0})])
            assert a.peers[1].reconnects == 0
        finally:
            await a.close()
            await b.close()

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
