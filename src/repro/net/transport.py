"""Per-peer TCP connection manager for the asyncio backend.

Topology is a full mesh: every node *dials* one outgoing connection to
each peer and *accepts* one incoming connection from each peer. A
node's frames to a given peer all travel on its single outgoing
connection, so per-``(src, dst)`` FIFO — the property the rmcast
watermark dedupe requires of any transport — is inherited from TCP's
byte-stream ordering, exactly as the paper's prototype relies on it
(§7.1).

Reliability model:

* A written chunk stays in the peer's send queue (and in
  ``queued_bytes``) until the socket's write buffer has been *seen
  empty* after the write — at once (the chunk is then counted sent and
  never queued), or when asyncio reports it drained — i.e. until the
  kernel holds every byte. When the connection is lost,
  whatever is still queued is rewritten in order right behind the next
  connection's hello. A frame the peer *did* receive may therefore
  arrive twice, which is safe — the rmcast layer deduplicates by
  ``(origin, seq)`` and the control frames (hello/heartbeat) are
  idempotent. Bytes the kernel took before a reset are *not* sent again
  and can be lost: there are no acknowledgements inside a connection.
* Reconnects use exponential backoff (:data:`BACKOFF_BASE_S` doubling
  to :data:`BACKOFF_CAP_S`), reset after a successful connect. A dead
  peer costs one pending connect attempt per backoff interval and
  nothing else.

The first frame on every connection is a ``hello`` identifying the
dialing node; all subsequent frames on that connection are attributed
to that pid, and a message frame naming another ``src`` is a protocol
violation that ends the connection (``bad_frame``). Incoming
connections are read-only (responses travel on the receiver's own
outgoing connection).

Both ends are asyncio protocol objects, not streams: a socket event is
one loop callback, and no task or future sits between the loop and a
frame (:class:`PeerConnection` writes, ``_AcceptedConnection`` reads —
a ``BufferedProtocol``: the loop receives into the transport's one
:data:`RECV_BUFFER_BYTES` buffer instead of allocating per read).

Write coalescing (the throughput path): with ``coalesce`` on, outgoing
frames are *staged* per peer instead of being handed to the connection
one at a time. The first staged frame schedules one ``call_soon``
flush, so every frame produced by the current cascade of event-loop
callbacks — a handler burst typically fans the same Batch out to five
peers and acks back — lands in a single ``write()`` per peer instead of
one per frame. Staging is by reference: a peer's stage is a list of
the frames' ``bytes`` objects (one envelope's frame is one object for
every peer, ``repro.net.codec``) and a byte count; a lone frame is
written as it is, several are joined once. A stage crossing
:data:`COALESCE_MAX_BYTES` is flushed immediately, bounding both
staging latency and single-write size. Coalescing changes only *write
grouping*, never order: per-``(src, dst)`` FIFO is preserved because
staging is strictly FIFO per peer.

Backpressure: each peer connection tracks its queued (staged + unsent)
bytes. When the total crosses ``max_queue_bytes`` the transport reports
:meth:`Transport.overloaded`; open-loop drivers poll it to defer
submissions instead of growing the queue without bound. Frames are
never dropped — the rmcast layer has retransmit-on-reconnect but no
loss recovery inside a live connection, so shedding load must happen at
the submission edge, not the wire.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from collections import deque

from .codec import CodecError, FrameDecoder, Held, encode_frame, nothing_held

#: Reconnect backoff: first retry after BACKOFF_BASE_S, doubling per
#: failure up to BACKOFF_CAP_S.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 1.0

#: Coalescing buffer flush threshold: a peer's staged bytes are flushed
#: to its connection as soon as they cross this, independent of the
#: per-drain ``call_soon`` flush.
COALESCE_MAX_BYTES = 64 * 1024

#: Size of a transport's receive buffer, shared by its accepted
#: connections. A frame larger than this is reassembled over several
#: reads by the connection's ``FrameDecoder``.
RECV_BUFFER_BYTES = 64 * 1024

#: Default per-transport backpressure threshold (staged + unsent bytes
#: across all peers) above which ``overloaded()`` reports True.
MAX_QUEUE_BYTES = 4 * 1024 * 1024

#: Callback invoked for every decoded frame: ``on_frame(src_pid, obj)``.
FrameHandler = Callable[[int, Dict[str, Any]], None]

#: Substrate probe: ``probe(event, data)`` on connection events
#: (connect, connect_failed, reconnect, peer_hello, bad_frame,
#: overloaded).
ProbeFn = Callable[[str, Any], None]


class PeerConnection(asyncio.Protocol):
    """One outgoing connection: the protocol of its own socket, the
    retransmit queue and the dial / backoff loop."""

    def __init__(
        self,
        own_pid: int,
        peer_pid: int,
        host: str,
        port: int,
        probe: ProbeFn,
    ) -> None:
        self.own_pid = own_pid
        self.peer_pid = peer_pid
        self.host = host
        self.port = port
        self._probe = probe
        #: Chunks the kernel is not yet known to hold, oldest first.
        #: While ``_sock`` is set every one of them has been written to it.
        self._queue: Deque[Tuple[bytes, int]] = deque()
        self._sock: Optional[asyncio.WriteTransport] = None
        self._lost = asyncio.Event()
        self._task: Optional[asyncio.Task[None]] = None
        #: Set while a connection is established (first hello written).
        self.connected = asyncio.Event()
        self._closing = False
        self.frames_sent = 0
        self.bytes_sent = 0
        #: Socket writes; ``frames_sent / writes`` is the coalescing
        #: ratio the bench records.
        self.writes = 0
        self.queued_bytes = 0
        self.connects = 0
        self.reconnects = 0
        #: Frames staged by the owning Transport for the next write, and
        #: their total length.
        self.staged: List[bytes] = []
        self.staged_bytes = 0

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    def send_bytes(self, data: bytes, frames: int = 1) -> None:
        """Write one chunk (possibly many coalesced frames) while
        connected, and queue it unless the kernel took all of it at once;
        event-loop context only."""
        sock = self._sock
        if sock is not None:
            sock.write(data)
            self.writes += 1
            if sock.get_write_buffer_size() == 0 and not sock.is_closing():
                # The kernel holds this chunk and every one before it.
                self.frames_sent += frames
                self.bytes_sent += len(data)
                if self._queue:
                    self.resume_writing()
                return
        self._queue.append((data, frames))
        self.queued_bytes += len(data)

    def flush_staged(self) -> None:
        """Write what the owning Transport staged: a lone frame as it is,
        several joined once."""
        staged = self.staged
        if staged:
            self.staged = []
            self.staged_bytes = 0
            self.send_bytes(staged[0] if len(staged) == 1 else b"".join(staged), len(staged))

    def queued(self) -> int:
        return len(self._queue)

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        backoff = BACKOFF_BASE_S
        while not self._closing:
            try:
                await loop.create_connection(lambda: self, self.host, self.port)
            except OSError:
                self._probe("connect_failed", self.peer_pid)
            else:
                backoff = BACKOFF_BASE_S
                await self._lost.wait()
                if self._closing:
                    return
                self.reconnects += 1
                self._probe("reconnect", self.peer_pid)
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2.0, BACKOFF_CAP_S)

    # -- asyncio.Protocol ------------------------------------------------

    def connection_made(self, sock: asyncio.BaseTransport) -> None:
        assert isinstance(sock, asyncio.WriteTransport)
        # High-water mark 0: asyncio calls resume_writing exactly when
        # the write buffer has emptied.
        sock.set_write_buffer_limits(high=0)
        sock.write(encode_frame({"t": "hello", "pid": self.own_pid}))
        if self._queue:  # what the last connection left unconfirmed
            sock.writelines([data for data, _ in self._queue])
            self.writes += 1
        self._sock = sock
        self._lost.clear()
        self.connects += 1
        self.connected.set()
        self._probe("connect", self.peer_pid)
        if sock.get_write_buffer_size() == 0:
            self.resume_writing()

    def resume_writing(self) -> None:
        """The write buffer is empty: the kernel holds every queued
        chunk. (A failed socket's buffer is empty too; that one is
        closing, and its chunks wait for the next connection.)"""
        if self._sock is None or self._sock.is_closing():
            return
        for data, frames in self._queue:
            self.frames_sent += frames
            self.bytes_sent += len(data)
        self._queue.clear()
        self.queued_bytes = 0

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Reset, or EOF (the default eof_received closes the socket).
        self._sock = None
        self.connected.clear()
        self._lost.set()

    async def close(self) -> None:
        """Give the kernel 2 s to take what is buffered, then drop it."""
        self._closing = True
        if self._task is None:
            return
        if self._sock is not None:
            self._sock.close()  # connection_lost follows the flush
        else:
            self._task.cancel()  # dialing or backing off
        _, pending = await asyncio.wait({self._task}, timeout=2.0)
        if pending and self._sock is not None:
            self._sock.abort()  # the peer is not reading; ends _run too


class _AcceptedConnection(asyncio.BufferedProtocol):
    """One accepted connection. A socket read runs ``get_buffer`` →
    ``recv_into`` → ``buffer_updated`` → ``FrameDecoder.feed`` →
    ``on_frame`` for each frame it completed, one after the other,
    inside the loop's read callback.

    Every connection of a transport receives into the same buffer (the
    stream protocol's ``recv(256 KiB)`` allocated one per read, and
    whether glibc recycled or re-faulted that chunk followed the
    start-up heap layout — EXPERIMENTS.md, "two modes"). Sharing is safe
    because the buffer is only live between ``get_buffer`` and the
    return of ``feed``: ``feed`` copies each whole frame's body out of it
    and the tail of a frame the read ends inside into the connection's
    own reassembly buffer, and it decodes all of that before it returns,
    so no frame handler runs while the buffer holds anything still
    needed, and one loop runs one read callback at a time."""

    def __init__(self, owner: "Transport") -> None:
        self._owner = owner
        self._decoder = FrameDecoder(owner.held)
        self._src: Optional[int] = None

    def connection_made(self, sock: asyncio.BaseTransport) -> None:
        self.sock = sock
        self._owner._accepted.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._owner._accepted.discard(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._owner._recv_buf

    def buffer_updated(self, nbytes: int) -> None:
        owner = self._owner
        bad = False
        try:
            frames = self._decoder.feed(owner._recv_buf[:nbytes])
        except CodecError as exc:
            # The well-formed frames before the bad bytes are handled as
            # they would be had TCP ended the read there.
            bad, frames = True, exc.frames
        src = self._src
        for frame in frames:
            if src is not None:
                if frame.get("src", src) != src:
                    # A message frame claiming another sender: the same
                    # verdict as bytes that are no frame.
                    bad = True
                    break
                owner.frames_received += 1
                owner.on_frame(src, frame)
            elif frame.get("t") == "hello":
                src = self._src = int(frame["pid"])
                owner.probe("peer_hello", src)
            else:
                self.sock.close()  # protocol violation
                return
        if bad:
            # Not frames, or not this peer's: this connection cannot be
            # trusted again; the node and its other connections are
            # unaffected.
            owner.probe("bad_frame", src)
            self.sock.close()


class Transport:
    """The node-level transport: one server, one dialer per peer.

    Args:
        pid: this node's process id.
        addresses: pid -> (host, port) for every node (self included).
        on_frame: synchronous handler for every decoded incoming frame;
            runs on the event loop, one frame at a time (handler
            atomicity is preserved by construction).
        probe: substrate event hook.
        held: the node's lookup of the multicasts it holds, handed to
            every connection's ``FrameDecoder`` (``repro.net.codec``).
        coalesce: stage outgoing frames per peer and flush once per
            event-loop drain (see module docstring). Off restores the
            PR-9 one-write-per-frame behaviour.
        max_queue_bytes: total queued-bytes threshold above which
            :meth:`overloaded` reports True (backpressure signal; no
            frame is ever dropped).
    """

    def __init__(
        self,
        pid: int,
        addresses: Dict[int, Tuple[str, int]],
        on_frame: FrameHandler,
        probe: Optional[ProbeFn] = None,
        held: Held = nothing_held,
        coalesce: bool = True,
        max_queue_bytes: int = MAX_QUEUE_BYTES,
    ) -> None:
        self.pid = pid
        self.addresses = dict(addresses)
        self.on_frame = on_frame
        self.probe: ProbeFn = probe if probe is not None else (lambda e, d: None)
        self.held = held
        self.coalesce = coalesce
        self.max_queue_bytes = max_queue_bytes
        self.peers: Dict[int, PeerConnection] = {}
        #: Peers that staged a frame since the last flush, in staging
        #: order (one flushed early at COALESCE_MAX_BYTES may be listed
        #: twice; its second flush finds an empty stage).
        self._staged: List[PeerConnection] = []
        self._flush_scheduled = False
        self.overload_events = 0
        self._over = False
        self._server: Optional[asyncio.base_events.Server] = None
        #: Live accepted connections, so that close() can end them.
        self._accepted: Set[_AcceptedConnection] = set()
        #: What every accepted connection reads into (see there).
        self._recv_buf = memoryview(bytearray(RECV_BUFFER_BYTES))
        self.frames_received = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start every peer dialer.

        Dialers begin immediately so ``send_frame_bytes`` can *queue*
        from the moment the node is up — an incoming frame may trigger
        replies before our own outgoing links are established (peers
        finish their barriers at different times), and those replies
        must park in the per-peer queue rather than fail.
        """
        host, port = self.addresses[self.pid]
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _AcceptedConnection(self), host, port
        )
        for peer_pid, (peer_host, peer_port) in sorted(self.addresses.items()):
            if peer_pid == self.pid:
                continue
            conn = PeerConnection(self.pid, peer_pid, peer_host, peer_port, self.probe)
            self.peers[peer_pid] = conn
            conn.start()

    async def connect_all(self, timeout_s: float = 30.0) -> None:
        """Wait until every outgoing link is up (dialing started in
        :meth:`start`; reconnect loops keep retrying underneath).

        Raises :class:`ConnectionError` naming the peers still down
        after ``timeout_s`` — not ``TimeoutError``, which a caller's own
        watchdog would be indistinguishable from.
        """
        waiters = [conn.connected.wait() for conn in self.peers.values()]
        if not waiters:
            return
        try:
            await asyncio.wait_for(asyncio.gather(*waiters), timeout=timeout_s)
        except asyncio.TimeoutError:
            down = sorted(
                pid for pid, conn in self.peers.items() if not conn.connected.is_set()
            )
            raise ConnectionError(
                f"no connection to peer(s) {down} after {timeout_s:g} s"
            ) from None

    async def flush(self, timeout_s: float = 2.0) -> bool:
        """Best-effort: wait until every peer's queue drained (True) or
        the timeout passed (False — e.g. a dead peer's queue)."""
        self._flush_pending()
        deadline = asyncio.get_running_loop().time() + timeout_s
        while True:
            if all(conn.queued() == 0 for conn in self.peers.values()):
                return True
            if asyncio.get_running_loop().time() >= deadline:
                return False
            await asyncio.sleep(0.01)

    async def close(self) -> None:
        """Stop listening and close every connection, dialed *and*
        accepted: peers see EOF, as they would from a killed process."""
        self._flush_pending()
        for conn in self.peers.values():
            await conn.close()
        for accepted in list(self._accepted):
            accepted.sock.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- sending ---------------------------------------------------------

    def send_frame_bytes(self, dst: int, data: bytes) -> None:
        """Queue a pre-encoded frame (fan-out encodes once per envelope).

        With coalescing on, the frame is staged for the peer by
        reference; one ``call_soon`` flush per drain hands each peer's
        stage to its connection in a single write.
        """
        conn = self.peers.get(dst)
        if conn is None:
            raise KeyError(f"no connection for pid {dst}")
        if not self.coalesce:
            conn.send_bytes(data)
            return
        staged = conn.staged
        if not staged:
            self._staged.append(conn)
            if not self._flush_scheduled:
                self._flush_scheduled = True
                asyncio.get_running_loop().call_soon(self._flush_pending)
        staged.append(data)
        conn.staged_bytes += len(data)
        if conn.staged_bytes >= COALESCE_MAX_BYTES:
            conn.flush_staged()

    def _flush_pending(self) -> None:
        self._flush_scheduled = False
        staged, self._staged = self._staged, []
        for conn in staged:
            conn.flush_staged()

    # -- backpressure ----------------------------------------------------

    def queued_bytes(self) -> int:
        """Staged + unsent bytes across all peers."""
        return sum(c.staged_bytes + c.queued_bytes for c in self.peers.values())

    def overloaded(self) -> bool:
        """True while queued bytes exceed ``max_queue_bytes``. Open-loop
        drivers poll this to defer submissions (frames themselves are
        never dropped)."""
        over = self.queued_bytes() > self.max_queue_bytes
        if over and not self._over:
            self.overload_events += 1
            self.probe("overloaded", self.queued_bytes())
        self._over = over
        return over

    # -- stats -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        frames_sent = sum(c.frames_sent for c in self.peers.values())
        writes = sum(c.writes for c in self.peers.values())
        return {
            "frames_received": self.frames_received,
            "frames_sent": frames_sent,
            "bytes_sent": sum(c.bytes_sent for c in self.peers.values()),
            "writes": writes,
            "coalesce_ratio": (frames_sent / writes) if writes else 0.0,
            "connects": sum(c.connects for c in self.peers.values()),
            "reconnects": sum(c.reconnects for c in self.peers.values()),
            "queued": sum(c.queued() for c in self.peers.values()),
            "overload_events": self.overload_events,
        }
