"""Per-peer TCP connection manager for the asyncio backend.

Topology is a full mesh: every node *dials* one outgoing connection to
each peer and *accepts* one incoming connection from each peer. A
node's frames to a given peer all travel on its single outgoing
connection, so per-``(src, dst)`` FIFO — the property the rmcast
watermark dedupe requires of any transport — is inherited from TCP's
byte-stream ordering, exactly as the paper's prototype relies on it
(§7.1).

Reliability model:

* An outgoing frame stays in the peer's send queue until a ``drain()``
  of the connection succeeds. On connection failure the undrained tail
  is retransmitted after reconnect; a frame the peer *did* receive may
  therefore arrive twice, which is safe — the rmcast layer deduplicates
  by ``(origin, seq)`` and the control frames (hello/heartbeat) are
  idempotent.
* Reconnects use exponential backoff (:data:`BACKOFF_BASE_S` doubling
  to :data:`BACKOFF_CAP_S`), reset after a successful connect. A dead
  peer costs one pending connect attempt per backoff interval and
  nothing else.

The first frame on every connection is a ``hello`` identifying the
dialing node; all subsequent frames on that connection are attributed
to that pid. Incoming connections are read-only (responses travel on
the receiver's own outgoing connection).

Write coalescing (the throughput path): with ``coalesce`` on, outgoing
frames are *staged* in a per-peer byte buffer instead of being handed
to the connection one at a time. The first staged frame schedules one
``call_soon`` flush, so every frame produced by the current cascade of
event-loop callbacks — a handler burst typically fans the same Batch
out to five peers and acks back — lands in a single ``write()`` per
peer instead of one per frame. A buffer crossing
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
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from collections import deque

from .codec import CodecError, FrameDecoder, encode_frame

#: Reconnect backoff: first retry after BACKOFF_BASE_S, doubling per
#: failure up to BACKOFF_CAP_S.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 1.0

#: Coalescing buffer flush threshold: a peer's staged bytes are flushed
#: to its connection as soon as they cross this, independent of the
#: per-drain ``call_soon`` flush.
COALESCE_MAX_BYTES = 64 * 1024

#: Default per-transport backpressure threshold (staged + unsent bytes
#: across all peers) above which ``overloaded()`` reports True.
MAX_QUEUE_BYTES = 4 * 1024 * 1024

#: Callback invoked for every decoded frame: ``on_frame(src_pid, obj)``.
FrameHandler = Callable[[int, Dict[str, Any]], None]

#: Substrate probe: ``probe(event, data)`` (see Runtime.probe).
ProbeFn = Callable[[str, Any], None]


class PeerConnection:
    """One outgoing connection: queue, writer task, reconnect loop."""

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
        self._queue: Deque[Tuple[bytes, int]] = deque()
        self._wakeup = asyncio.Event()
        self._task: Optional[asyncio.Task[None]] = None
        #: Set while a connection is established (first hello written).
        self.connected = asyncio.Event()
        self._closing = False
        self.frames_sent = 0
        self.bytes_sent = 0
        #: Socket write+drain cycles; ``frames_sent / writes`` is the
        #: coalescing ratio the bench records.
        self.writes = 0
        self.queued_bytes = 0
        self.connects = 0
        self.reconnects = 0

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    def send_bytes(self, data: bytes, frames: int = 1) -> None:
        """Queue one write (possibly many coalesced frames); event-loop
        context only."""
        self._queue.append((data, frames))
        self.queued_bytes += len(data)
        self._wakeup.set()

    def queued(self) -> int:
        return len(self._queue)

    async def _run(self) -> None:
        backoff = BACKOFF_BASE_S
        while not self._closing:
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError:
                self._probe("connect_failed", self.peer_pid)
                await self._sleep(backoff)
                backoff = min(backoff * 2.0, BACKOFF_CAP_S)
                continue
            try:
                writer.write(encode_frame({"t": "hello", "pid": self.own_pid}))
                await writer.drain()
            except (ConnectionError, OSError):
                writer.close()
                await self._sleep(backoff)
                backoff = min(backoff * 2.0, BACKOFF_CAP_S)
                continue
            backoff = BACKOFF_BASE_S
            self.connects += 1
            self.connected.set()
            self._probe("connect", self.peer_pid)
            try:
                await self._pump(writer)
                # _pump only returns on clean close.
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                return
            except (ConnectionError, OSError):
                self.connected.clear()
                self.reconnects += 1
                self._probe("reconnect", self.peer_pid)
                writer.close()
                await self._sleep(backoff)
                backoff = min(backoff * 2.0, BACKOFF_CAP_S)

    async def _pump(self, writer: asyncio.StreamWriter) -> None:
        """Drain the queue into the socket until close is requested.

        Frames are only dequeued after a successful ``drain()``; a
        failure mid-batch leaves the whole batch queued for the next
        connection (at-least-once, deduplicated upstream).
        """
        queue = self._queue
        while True:
            if not queue:
                if self._closing:
                    return
                self._wakeup.clear()
                if not queue and not self._closing:
                    await self._wakeup.wait()
                continue
            batch = len(queue)
            for i in range(batch):
                writer.write(queue[i][0])
            await writer.drain()
            for _ in range(batch):
                data, frames = queue.popleft()
                self.queued_bytes -= len(data)
                self.frames_sent += frames
                self.bytes_sent += len(data)
            self.writes += 1

    async def _sleep(self, seconds: float) -> None:
        # Backoff sleep that close() can cut short via the wakeup event.
        try:
            await asyncio.wait_for(self._wakeup.wait(), timeout=seconds)
            self._wakeup.clear()
        except asyncio.TimeoutError:
            pass

    async def close(self) -> None:
        self._closing = True
        self._wakeup.set()
        if self._task is not None:
            try:
                await asyncio.wait_for(self._task, timeout=2.0)
            except asyncio.TimeoutError:
                self._task.cancel()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


class Transport:
    """The node-level transport: one server, one dialer per peer.

    Args:
        pid: this node's process id.
        addresses: pid -> (host, port) for every node (self included).
        on_frame: synchronous handler for every decoded incoming frame;
            runs on the event loop, one frame at a time (handler
            atomicity is preserved by construction).
        probe: substrate event hook.
        coalesce: stage outgoing frames per peer and flush once per
            event-loop drain (see module docstring). Off restores the
            PR-9 one-write-per-frame behaviour.
        coalesce_max_bytes: flush a peer's staged buffer immediately
            once it crosses this size.
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
        coalesce: bool = True,
        coalesce_max_bytes: int = COALESCE_MAX_BYTES,
        max_queue_bytes: int = MAX_QUEUE_BYTES,
    ) -> None:
        self.pid = pid
        self.addresses = dict(addresses)
        self.on_frame = on_frame
        self.probe: ProbeFn = probe if probe is not None else (lambda e, d: None)
        self.coalesce = coalesce
        self.coalesce_max_bytes = coalesce_max_bytes
        self.max_queue_bytes = max_queue_bytes
        self.peers: Dict[int, PeerConnection] = {}
        self._pending: Dict[int, bytearray] = {}
        self._pending_frames: Dict[int, int] = {}
        self._flush_scheduled = False
        self.overload_events = 0
        self._over = False
        self._server: Optional[asyncio.base_events.Server] = None
        self.frames_received = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start every peer dialer.

        Dialers begin immediately so ``send_frame`` can *queue* from the
        moment the node is up — an incoming frame may trigger replies
        before our own outgoing links are established (peers finish
        their barriers at different times), and those replies must park
        in the per-peer queue rather than fail.
        """
        host, port = self.addresses[self.pid]
        self._server = await asyncio.start_server(self._accept, host, port)
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
        self._flush_pending()
        for conn in self.peers.values():
            await conn.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- sending ---------------------------------------------------------

    def send_frame(self, dst: int, obj: Dict[str, Any]) -> None:
        """Encode and queue one frame for ``dst`` (event-loop context)."""
        if dst == self.pid:
            # Self-frames never touch a socket (the host facade delivers
            # locally before reaching here; this is a safety net).
            self.on_frame(self.pid, obj)
            return
        self.send_frame_bytes(dst, encode_frame(obj))

    def send_frame_bytes(self, dst: int, data: bytes) -> None:
        """Queue a pre-encoded frame (fan-out encodes once per frame).

        With coalescing on, the frame is staged in the peer's buffer;
        one ``call_soon`` flush per drain hands all staged bytes to the
        connections in a single write each.
        """
        conn = self.peers.get(dst)
        if conn is None:
            raise KeyError(f"no connection for pid {dst}")
        if not self.coalesce:
            conn.send_bytes(data)
            return
        buf = self._pending.get(dst)
        if buf is None:
            buf = self._pending[dst] = bytearray()
            self._pending_frames[dst] = 0
        buf += data
        self._pending_frames[dst] += 1
        if len(buf) >= self.coalesce_max_bytes:
            self._flush_peer(dst)
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_pending)

    def _flush_peer(self, dst: int) -> None:
        buf = self._pending.pop(dst, None)
        if not buf:
            return
        frames = self._pending_frames.pop(dst, 0)
        self.peers[dst].send_bytes(bytes(buf), frames)

    def _flush_pending(self) -> None:
        self._flush_scheduled = False
        for dst in list(self._pending):
            self._flush_peer(dst)

    # -- backpressure ----------------------------------------------------

    def queued_bytes(self) -> int:
        """Staged + unsent bytes across all peers."""
        pending = sum(len(b) for b in self._pending.values())
        return pending + sum(c.queued_bytes for c in self.peers.values())

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

    # -- receiving -------------------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder()
        src: Optional[int] = None
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except CodecError:
                    # Bytes that are not frames: this connection cannot
                    # be resynchronized, the node and its other
                    # connections are unaffected.
                    self.probe("bad_frame", src)
                    return
                for frame in frames:
                    if src is None:
                        if frame.get("t") != "hello":
                            return  # protocol violation; drop connection
                        src = int(frame["pid"])
                        self.probe("peer_hello", src)
                        continue
                    self.frames_received += 1
                    self.on_frame(src, frame)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Loop teardown (node shutdown) cancels in-flight reads;
            # nothing to salvage on this connection.
            pass
        finally:
            writer.close()

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
