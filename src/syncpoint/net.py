"""TCP transport: the wire protocol over asyncio streams.

Each connection must introduce itself with a HELLO frame (trust on first
assert — there is no authentication layer); after that every decoded client
message goes through the engine with the wall clock injected. Direct
responses return on the handling connection; Notify pushes go to every
live connection registered for the recipient. Participants without a live
connection simply poll later — the queues keep everything.
"""

from __future__ import annotations

import asyncio
import logging
import time

from .engine import Engine
from .errors import SyncError
from .wire import CLIENT_MESSAGES, Err, FrameBuffer, Hello, decode, encode

log = logging.getLogger(__name__)


class SyncServer:
    def __init__(self, engine: Engine, clock=None):
        self.engine = engine
        self.clock = clock or (lambda: int(time.time()))
        self._conns: dict[str, list[asyncio.StreamWriter]] = {}

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
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

    async def _send(self, writer: asyncio.StreamWriter, msg) -> None:
        writer.write(encode(msg).encode("utf-8"))
        try:
            await writer.drain()
        except ConnectionError:
            pass

    async def _route(self, outbound, sender: str, sender_writer) -> None:
        for to, msg in outbound:
            if to == sender:
                await self._send(sender_writer, msg)
            else:
                for w in self._conns.get(to, []):
                    await self._send(w, msg)

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        buf = FrameBuffer()
        participant: str | None = None
        try:
            while True:
                data = await reader.read(4096)
                if not data:
                    break
                for frame in buf.feed(data):
                    if not frame.strip():
                        continue
                    try:
                        msg = decode(frame)
                    except SyncError as e:
                        await self._send(writer, Err(e.code, e.detail))
                        continue
                    if not isinstance(msg, CLIENT_MESSAGES):
                        await self._send(
                            writer,
                            Err("NOT_A_CLIENT_MESSAGE", "server frames are not accepted"),
                        )
                        continue
                    if participant is None:
                        if not isinstance(msg, Hello):
                            await self._send(
                                writer, Err("HELLO_REQUIRED", "introduce yourself first")
                            )
                            continue
                        participant = msg.participant
                        self._register(participant, writer)
                    outbound = self.engine.handle(msg, participant, self.clock())
                    await self._route(outbound, participant, writer)
        finally:
            if participant is not None:
                self._unregister(participant, writer)
            writer.close()


async def serve_forever(engine: Engine, host: str, port: int) -> None:
    server = await SyncServer(engine, clock=None).start(host, port)
    async with server:
        await server.serve_forever()
