"""TCP transport: the wire protocol over asyncio streams.

Each connection must introduce itself with a HELLO frame (trust on first
assert — there is no authentication layer); after that every decoded client
message goes through the engine with the wall clock injected. Direct
responses return on the handling connection; Notify pushes go to every
live connection registered for the recipient. Participants without a live
connection simply poll later — the queues keep everything.

Each read is handled as one batch. Every frame it completes goes through
the engine in order; then the records of the whole read are committed to
the log with one write and one flush, and only then does any reply or push
for them leave. Pushes to other connections are written first, then the
sender's replies, each connection's share in one write and in request
order, with an ERR in place of each frame that could not be handled.

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
from .errors import SyncError
from .eventlog import LogWriteFailed
from .wire import CLIENT_MESSAGES, MAX_FRAME_BYTES, Err, FrameBuffer, Hello, decode, encode

log = logging.getLogger(__name__)


async def _drain(writer: asyncio.StreamWriter) -> None:
    try:
        await writer.drain()
    except ConnectionError:
        pass


class SyncServer:
    def __init__(self, engine: Engine, clock=None):
        self.engine = engine
        self.clock = clock or (lambda: int(time.time()))
        self._conns: dict[str, list[asyncio.StreamWriter]] = {}
        self.stopped: asyncio.Future | None = None  # set by ``start``

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        self.stopped = asyncio.get_running_loop().create_future()
        server = await asyncio.start_server(self._client, host, port)
        addrs = ", ".join(str(s.getsockname()) for s in server.sockets)
        log.info("listening on %s", addrs)
        return server

    def _register(self, participant: str, writer: asyncio.StreamWriter) -> None:
        self._conns.setdefault(participant, []).append(writer)

    def _unregister(self, participant: str, writer: asyncio.StreamWriter) -> None:
        writers = self._conns.get(participant, [])
        if writer in writers:
            writers.remove(writer)
        if not writers:
            self._conns.pop(participant, None)

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        buf = FrameBuffer()
        participant: str | None = None
        try:
            while True:
                data = await reader.read(4096)
                if not data or self.stopped.done():
                    break
                replies: list[str] = []  # to this connection, in request order
                pushes: dict[asyncio.StreamWriter, list[str]] = {}
                for frame in buf.feed(data):
                    if not frame.strip():
                        continue
                    try:
                        msg = decode(frame)
                    except SyncError as e:
                        replies.append(encode(Err(e.code, e.detail)))
                        continue
                    if not isinstance(msg, CLIENT_MESSAGES):
                        replies.append(encode(
                            Err("NOT_A_CLIENT_MESSAGE", "server frames are not accepted")
                        ))
                        continue
                    if participant is None:
                        if not isinstance(msg, Hello):
                            replies.append(encode(
                                Err("HELLO_REQUIRED", "introduce yourself first")
                            ))
                            continue
                        participant = msg.participant
                        self._register(participant, writer)
                    for to, out in self.engine.handle(msg, participant, self.clock()):
                        if to == participant:
                            replies.append(encode(out))
                        elif to in self._conns:
                            line = encode(out)
                            for w in self._conns[to]:
                                pushes.setdefault(w, []).append(line)
                oversized = len(buf.pending) > MAX_FRAME_BYTES
                if oversized:
                    replies.append(encode(Err(
                        "FRAME_TOO_LARGE", f"no newline within {MAX_FRAME_BYTES} bytes"
                    )))
                try:
                    self.engine.commit()
                except LogWriteFailed as e:
                    if not self.stopped.done():
                        self.stopped.set_exception(e)
                    break
                for w, lines in pushes.items():
                    w.write("".join(lines).encode("utf-8"))
                if replies:
                    writer.write("".join(replies).encode("utf-8"))
                for w in pushes:
                    await _drain(w)
                if replies:
                    await _drain(writer)
                if oversized:
                    break
        except asyncio.CancelledError:
            # Only the loop's shutdown cancels a connection. Returning
            # instead of re-raising keeps asyncio's stream protocol, whose
            # done-callback asks the task for its exception, from logging a
            # CancelledError traceback for every open connection.
            pass
        finally:
            if participant is not None:
                self._unregister(participant, writer)
            writer.close()


async def serve_forever(engine: Engine, host: str, port: int) -> None:
    """Serve until cancelled; raises the ``LogWriteFailed`` that stops the server."""
    sync = SyncServer(engine, clock=None)
    server = await sync.start(host, port)
    async with server:
        await sync.stopped
