"""TCP transport: the wire protocol over asyncio, one ``Protocol`` per connection.

Each connection must introduce itself with a HELLO frame (trust on first
assert — there is no authentication layer); after that every decoded client
message goes through the engine with the wall clock injected; a later
HELLO naming someone else gets ALREADY_INTRODUCED. Direct responses and a
POLL's answer return on the handling connection; Notify pushes go to every
live connection registered for the recipient, the sender's others too.
The engine builds a push frame only for a connected recipient (the server
passes it the participants it has connections for). Participants without
a live connection simply poll later — the queues keep everything.

Each read (``data_received``) is handled as one batch, with one reading
of the clock. Every frame it completes goes through the engine in order,
all with that one ``now``; then the records of the whole read are
committed to the log with one write and one flush, and only then does any
reply or push for them leave. Pushes to other connections are
written first, then the sender's replies, each connection's share in one
write and in request order, with an ERR in place of each frame that could
not be handled. A frame's refusal (undecodable, a server frame, no HELLO
yet, or a HELLO naming someone else) becomes its ERR in one clause here; a
command's refusal becomes its ERR in ``engine.handle``. The connection's
``FrameBuffer`` applies the frame limit. It returns only the frames before
one longer than ``MAX_FRAME_BYTES``, whose newline need not have come, and
those are handled and committed; then the connection gets one
FRAME_TOO_LARGE and is closed.

No read waits for any connection to drain, and each connection's unsent
bytes stay bounded. A connection's own replies slow it down: while its
transport holds more than the high-water mark, the server stops reading
from it. Pushes come from other connections, which must not wait: a
connection whose unsent bytes exceed ``MAX_OUTBOUND_BYTES`` after a push
is cut off, and its participant resumes by POLL from the durable queue.
A connection that ends with an error logs one line naming its participant
and the error, never a coordinate.

A commit that fails (``LogWriteFailed``) stops the whole server: nothing
of that read leaves, no connection is served again, and ``stopped``
(which ``serve_forever`` awaits) raises the error. The engine's state is
then ahead of its log and must not answer anyone; a restart replays the
committed records.
"""

from __future__ import annotations

import asyncio
import logging
import time

from .engine import Engine
from .errors import Refused, SyncError
from .eventlog import LogWriteFailed
from .wire import (
    CLIENT_MESSAGES, MAX_FRAME_BYTES, Err, FrameBuffer, Hello, Notify, Poll, decode, encode,
)

log = logging.getLogger(__name__)

# Unsent bytes above which a push cuts its connection off.
MAX_OUTBOUND_BYTES = 1024 * 1024


class Connection(asyncio.Protocol):
    """One client connection: its framing, its participant and its transport."""

    def __init__(self, server: SyncServer):
        self.server = server
        self.buf = FrameBuffer()
        self.participant: str | None = None
        self.transport: asyncio.Transport | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._open.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._forget(self)
        if exc is not None:
            who = "before HELLO" if self.participant is None else f"of {self.participant}"
            log.warning("connection %s ended: %s", who, exc)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def write(self, lines: list[str]) -> int:
        """Send ``lines`` in one write; returns the bytes not yet sent."""
        self.transport.write("".join(lines).encode("utf-8"))
        return self.transport.get_write_buffer_size()

    def data_received(self, data: bytes) -> None:
        server = self.server
        if server.stopped.done():
            self.transport.close()
            return
        engine, conns = server.engine, server._conns
        participant, now = self.participant, server.clock()
        replies: list[str] = []  # to this connection, in request order
        pushes: dict[Connection, list[str]] = {}
        for frame in self.buf.feed(data):
            if not frame or frame.isspace():
                continue
            try:
                msg = decode(frame)
                if not isinstance(msg, CLIENT_MESSAGES):
                    raise Refused("NOT_A_CLIENT_MESSAGE", "server frames are not accepted")
                if participant is None:
                    if not isinstance(msg, Hello):
                        raise Refused("HELLO_REQUIRED", "introduce yourself first")
                    participant = self.participant = msg.participant
                    conns.setdefault(participant, []).append(self)
                elif isinstance(msg, Hello) and msg.participant != participant:
                    raise Refused(
                        "ALREADY_INTRODUCED", f"this connection speaks for {participant!r}"
                    )
            except SyncError as e:  # a frame's refusal; a command's is engine.handle's
                replies.append(encode(Err(e.code, e.detail)))
                continue
            for to, out in engine.handle(msg, participant, now, conns):
                line = encode(out)
                if to == participant:
                    replies.append(line)
                    # A push reaches the sender's other connections too; a POLL's answer does not.
                    if out.__class__ is not Notify or msg.__class__ is Poll:
                        continue
                for conn in conns[to]:
                    if conn is not self:
                        pushes.setdefault(conn, []).append(line)
        if self.buf.oversized:
            replies.append(encode(Err(
                "FRAME_TOO_LARGE", f"no newline within {MAX_FRAME_BYTES} bytes")))
        try:
            engine.commit()
        except LogWriteFailed as e:
            if not server.stopped.done():
                server.stopped.set_exception(e)
            self.transport.close()
            return
        for conn, lines in pushes.items():
            unsent = conn.write(lines)
            if unsent > MAX_OUTBOUND_BYTES:
                log.warning("cutting off a connection of %s: %d bytes unsent",
                            conn.participant, unsent)
                server._forget(conn)
                conn.transport.abort()
        if replies:
            self.write(replies)
        if self.buf.oversized:
            self.transport.close()


class SyncServer:
    def __init__(self, engine: Engine, clock=None):
        self.engine = engine
        self.clock = clock or (lambda: int(time.time()))
        self._conns: dict[str, list[Connection]] = {}  # participant -> its connections
        self._open: set[Connection] = set()  # every connection, before HELLO too
        self.stopped: asyncio.Future | None = None  # set by ``start``

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        loop = asyncio.get_running_loop()
        self.stopped = loop.create_future()
        server = await loop.create_server(lambda: Connection(self), host, port)
        addrs = ", ".join(str(s.getsockname()) for s in server.sockets)
        log.info("listening on %s", addrs)
        return server

    def _forget(self, conn: Connection) -> None:
        """Stop pushing to ``conn``; safe to call more than once."""
        self._open.discard(conn)
        conns = self._conns.get(conn.participant, [])
        if conn in conns:
            conns.remove(conn)
            if not conns:
                del self._conns[conn.participant]

    def abort_connections(self) -> None:
        """Drop every open connection, whatever it has not yet sent."""
        for conn in list(self._open):
            conn.transport.abort()


async def serve_forever(engine: Engine, host: str, port: int) -> None:
    """Serve until cancelled; raises the ``LogWriteFailed`` that stops the server."""
    sync = SyncServer(engine, clock=None)
    server = await sync.start(host, port)
    async with server:
        try:
            await sync.stopped
        finally:
            # The server's exit waits for its connections (Python 3.12 on).
            sync.abort_connections()
