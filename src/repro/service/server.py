"""The asyncio transport: TCP server and in-memory stream pairs.

One connection = one reader loop + one writer task + one bounded
outbox.  The transport is deliberately thin: every decision lives in
the synchronous :class:`~repro.service.core.GTMService`, which is why
the session state machine can be tested under the simulator while this
module only shuttles bytes.

Backpressure: the service's sink enqueues into a bounded per-session
outbox; the writer task drains it into the socket at the peer's pace.
A client that stops reading until the outbox overflows is forcibly
detached — which the protocol already models as ⟨sleep⟩, so a slow
reader degrades into a disconnected one instead of growing the heap.

The in-memory transport (:func:`memory_pair`) is the same duplex
stream discipline without file descriptors, so load runs can hold
thousands of concurrent sessions without touching the fd limit, and
unit tests can run a full client/server conversation in one loop.
Its read end is a :class:`MemoryReader`, a line buffer with
:class:`asyncio.StreamReader`'s ``readline`` contract and none of its
transport flow control; TCP connections keep ``StreamReader``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.errors import ReproError, WireFormatError
from repro.service.core import GTMService
from repro.service.mailbox import Mailbox, QueueFull
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
)

#: Sentinel pushed into an outbox to stop the writer task.
_CLOSE = object()


# ---------------------------------------------------------------------------
# in-memory duplex transport
# ---------------------------------------------------------------------------


class MemoryReader:
    """Read end of an in-memory stream: a line buffer.

    ``readline`` keeps :meth:`asyncio.StreamReader.readline`'s
    contract: it returns one line with its ``\\n``, the partial last
    line at EOF and ``b""`` after it; a line longer than ``limit``
    (or more than ``limit`` bytes with no newline yet) raises
    ``ValueError`` after discarding that line.  A parked reader wakes
    through one future, one loop turn after each write.
    Data fed after EOF is dropped, as bytes sent to a peer that has
    shut its read side are.
    """

    __slots__ = ("_buffer", "_eof", "_waiter", "_limit")

    def __init__(self, limit: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._eof = False
        self._waiter: asyncio.Future | None = None
        self._limit = limit

    def feed_data(self, data: bytes) -> None:
        if data and not self._eof:
            self._buffer += data
            self._wakeup()

    def feed_eof(self) -> None:
        self._eof = True
        self._wakeup()

    def _wakeup(self) -> None:
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if not waiter.cancelled():
                waiter.set_result(None)

    async def readline(self) -> bytes:
        buffer = self._buffer
        offset = 0
        while True:
            end = buffer.find(b"\n", offset)
            if end != -1:
                break
            offset = len(buffer)
            if offset > self._limit:
                buffer.clear()
                raise ValueError(
                    "Separator is not found, and chunk exceed the limit")
            if self._eof:
                line = bytes(buffer)
                buffer.clear()
                return line
            if self._waiter is not None:
                raise RuntimeError("readline() called while another "
                                   "coroutine is already waiting")
            self._waiter = asyncio.get_running_loop().create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
        if end > self._limit:
            del buffer[:end + 1]
            raise ValueError(
                "Separator is found, but chunk is longer than limit")
        if end + 1 == len(buffer):
            # the common case: the buffer holds exactly this line.
            line = bytes(buffer)
            buffer.clear()
        else:
            line = bytes(buffer[:end + 1])
            del buffer[:end + 1]
        return line


class MemoryWriter:
    """Write end of an in-memory stream, duck-typed to StreamWriter."""

    __slots__ = ("_reader", "_closed")

    def __init__(self, reader: MemoryReader) -> None:
        self._reader = reader
        self._closed = False

    def write(self, data: bytes) -> None:
        if not self._closed:
            self._reader.feed_data(data)

    async def drain(self) -> None:
        # The peer consumes from the same loop; no kernel buffer to
        # fill, so drain is a cancellation point and nothing more.
        await asyncio.sleep(0)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._reader.feed_eof()

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        return None


def memory_pair() -> tuple[tuple[MemoryReader, MemoryWriter],
                           tuple[MemoryReader, MemoryWriter]]:
    """A connected duplex pair: ``(client_side, server_side)``.

    Each side is a ``(reader, writer)`` tuple with the stream API the
    server and client already speak — no sockets, no fds.
    """
    to_server = MemoryReader()
    to_client = MemoryReader()
    client_side = (to_client, MemoryWriter(to_server))
    server_side = (to_server, MemoryWriter(to_client))
    return client_side, server_side


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------


class ServiceServer:
    """Serves a :class:`GTMService` over asyncio streams."""

    def __init__(self, service: GTMService) -> None:
        self.service = service
        self._tcp_server: asyncio.AbstractServer | None = None
        self._connections: set["_Connection"] = set()
        self._shutting_down = False

    # -- lifecycle ------------------------------------------------------

    async def start_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> tuple[str, int]:
        """Listen on TCP; returns the bound ``(host, port)``."""
        self._tcp_server = await asyncio.start_server(
            self._on_connection, host, port, limit=MAX_FRAME_BYTES)
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def connect_memory(self) -> tuple[MemoryReader, MemoryWriter]:
        """Open an in-memory connection; returns the client side."""
        client_side, server_side = memory_pair()
        asyncio.ensure_future(self._on_connection(*server_side))
        return client_side

    async def shutdown(self) -> None:
        """Graceful stop: no new connections, notify, flush, close."""
        self._shutting_down = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        self.service.shutdown()
        for conn in list(self._connections):
            conn.request_close()
        while self._connections:
            await asyncio.sleep(0.01)

    # -- per-connection machinery --------------------------------------

    async def _on_connection(self, reader: Any, writer: Any) -> None:
        conn = _Connection(self, reader, writer)
        self._connections.add(conn)
        try:
            await conn.run()
        finally:
            self._connections.discard(conn)


class _Connection:
    """One live transport: reader loop, writer task, bounded outbox."""

    def __init__(self, server: ServiceServer, reader: Any,
                 writer: Any) -> None:
        self.server = server
        self.service = server.service
        self.reader = reader
        self.writer = writer
        self.outbox = Mailbox(maxsize=self.service.config.max_outbox)
        self.session = None
        self._overflowed = False
        self._closing = False

    # The service-facing sink: synchronous, never blocks the handler.
    def sink(self, frame: dict[str, Any]) -> None:
        if self._closing:
            return
        try:
            self.outbox.put_nowait(encode_frame(frame))
        except QueueFull:
            # Slow reader: degrade to a disconnect (= ⟨sleep⟩).
            self._overflowed = True
            self.service.metrics.counter("service_outbox_overflows").inc()
            self._closing = True

    def request_close(self) -> None:
        self._closing = True
        try:
            self.outbox.put_nowait(_CLOSE)
        except QueueFull:
            pass  # the writer will hit the _closing flag instead
        # Unblock a read loop parked in readline().
        try:
            self.reader.feed_eof()
        except (AssertionError, RuntimeError):
            pass

    async def run(self) -> None:
        writer_task = asyncio.ensure_future(self._drain_outbox())
        try:
            await self._read_loop()
        finally:
            self.request_close()
            await writer_task
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (OSError, ConnectionError):
                pass
            if (self.session is not None
                    and self.session.sink == self.sink):
                # Dropped (or overflowed) without `bye`: ⟨sleep⟩.
                self.service.disconnect(self.session)

    async def _read_loop(self) -> None:
        while not self._closing:
            try:
                line = await self.reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                self.sink(error_frame(WireFormatError(
                    f"frame exceeds {MAX_FRAME_BYTES} bytes")))
                return
            except (OSError, ConnectionError):
                return
            if not line:
                return  # EOF: the peer dropped
            try:
                frame = decode_frame(line)
            except ReproError as exc:
                self.sink(error_frame(exc))
                continue
            if self.session is None:
                self.session = self.service.connect(frame, self.sink)
                if self.session is None:
                    return  # rejected hello; error frame is queued
            else:
                self.service.handle(self.session, frame)
                if not self.session.connected:
                    return  # `bye` closed the session
            if self._overflowed:
                return


    async def _drain_outbox(self) -> None:
        while True:
            item = await self.outbox.get()
            if item is _CLOSE:
                break
            try:
                self.writer.write(item)
                await self.writer.drain()
            except (OSError, ConnectionError):
                break
            if self._closing and self.outbox.empty():
                break


# ---------------------------------------------------------------------------
# connector helpers (used by the client and the load harness)
# ---------------------------------------------------------------------------


Connector = Callable[[], Any]


def tcp_connector(host: str, port: int) -> Connector:
    async def _connect():
        return await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES)
    return _connect


def memory_connector(server: ServiceServer) -> Connector:
    async def _connect():
        return server.connect_memory()
    return _connect
