"""Live TCP server: hello handshake, pushes, and polling over sockets."""

import asyncio
import logging
import socket
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from genmsg import CENTER, at_distance
from syncpoint.activities import (
    ActivityKind, ActivitySpec, InviteAnswer, ParticipantStatus, TimeWindow,
)
import syncpoint.engine as engine_module
from syncpoint.engine import Engine, replay
from syncpoint.eventlog import ArmSet, FixAccepted, load_log
from syncpoint.geo import Geofence, Zone
from syncpoint import net
from syncpoint.net import SyncServer
from syncpoint.wire import (
    MAX_FRAME_BYTES, Ack, Arm, Err, Fix, FrameBuffer, Hello, Notify, Poll, RespondInvite, TaskDone,
    Welcome, decode, encode,
)


class Client:
    def __init__(self):
        self.reader = None
        self.writer = None

    async def connect(self, port):
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", port)

    async def send(self, msg):
        self.writer.write(encode(msg).encode())
        await self.writer.drain()

    async def recv(self):
        line = await asyncio.wait_for(self.reader.readline(), timeout=5)
        return decode(line.decode())

    async def send_raw(self, data: bytes):
        self.writer.write(data)
        await self.writer.drain()

    async def close(self):
        self.writer.close()


async def _run_session():
    engine = Engine()
    # Virtual clock: the transport injects it into every command.
    now = {"t": 100}
    server_obj = SyncServer(engine, clock=lambda: now["t"])
    server = await server_obj.start("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]

    (act,), _, _ = engine.create_activities([ActivitySpec(
        title="Fair", kind=ActivityKind.MEETUP,
        window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
        organizer="ana", participants=("ana", "bruno"),
    )], now=0)

    ana, bruno = Client(), Client()
    await ana.connect(port)
    await bruno.connect(port)
    results = {}

    # Frames before HELLO are refused.
    await bruno.send(Arm(act.id))
    err = await bruno.recv()
    results["pre_hello"] = err

    await ana.send(Hello("ana"))
    results["welcome_ana"] = await ana.recv()
    await bruno.send(Hello("bruno"))
    results["welcome_bruno"] = await bruno.recv()

    # bruno catches up on the queued invitation by polling.
    await bruno.send(Poll(0))
    results["poll_1"] = await bruno.recv()
    results["poll_1_ack"] = await bruno.recv()

    for who, client in (("ana", ana), ("bruno", bruno)):
        await client.send(RespondInvite(act.id, InviteAnswer.ACCEPT))
        results[f"accept_{who}"] = await client.recv()

    await bruno.send(Arm(act.id))
    results["arm"] = await bruno.recv()

    # Split one frame across two writes: framing must reassemble it.
    now["t"] = 2000
    frame = encode(Fix(act.id, at_distance(50), 2000)).encode()
    await bruno.send_raw(frame[:10])
    await asyncio.sleep(0.05)
    await bruno.send_raw(frame[10:])

    results["fix_ack"] = await bruno.recv()
    results["self_ack"] = await bruno.recv()
    results["push_to_ana"] = await ana.recv()

    # Re-poll with the cursor: nothing is delivered twice.
    await ana.send(Poll(1))
    results["ana_repoll"] = await ana.recv()

    await ana.close()
    await bruno.close()
    server.close()
    await server.wait_closed()
    return act, results


def test_tcp_session():
    act, r = asyncio.run(_run_session())
    assert r["pre_hello"].code == "HELLO_REQUIRED"
    assert r["welcome_ana"].server_time == 100
    assert isinstance(r["poll_1"], Notify) and r["poll_1"].seq == 1
    assert r["poll_1_ack"].of == "POLL"
    assert r["accept_ana"].of == "RESPOND_INVITE"
    assert r["arm"].of == "ARM"
    assert r["fix_ack"].of == "FIX"
    assert r["self_ack"].notification.activity == act.id
    # ana (organizer, no invitation) gets the arrival notice pushed as seq 1.
    assert isinstance(r["push_to_ana"], Notify)
    assert r["push_to_ana"].seq == 1
    assert r["push_to_ana"].notification.identity == "bruno"
    assert r["ana_repoll"].of == "POLL"  # nothing new: straight to the ack


def test_server_frame_errors():
    async def run():
        engine = Engine()
        server_obj = SyncServer(engine, clock=lambda: 1)
        server = await server_obj.start("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        c = Client()
        await c.connect(port)
        await c.send_raw(b"this is not json\n")
        malformed = await c.recv()
        await c.send_raw(b'{"type":"WELCOME","server_time":1}\n')
        not_client = await c.recv()
        await c.close()
        server.close()
        await server.wait_closed()
        return malformed, not_client

    malformed, not_client = asyncio.run(run())
    assert malformed.code == "MALFORMED"
    assert not_client.code == "NOT_A_CLIENT_MESSAGE"


async def _start_sync(sync):
    server = await sync.start("127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def _start(engine, clock):
    return await _start_sync(SyncServer(engine, clock=clock))


def _fair(engine):
    """A meetup of ana (organizer) and bruno, both accepted."""
    (act,), _, _ = engine.create_activities([ActivitySpec(
        title="Fair", kind=ActivityKind.MEETUP,
        window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
        organizer="ana", participants=("ana", "bruno"),
    )], now=0)
    for who in ("ana", "bruno"):
        engine.handle(RespondInvite(act.id, InviteAnswer.ACCEPT), who, 10)
    return act


def _summary(msg):
    if isinstance(msg, Ack):
        return ("ACK", msg.of)
    if isinstance(msg, Err):
        return ("ERR", msg.code)
    if isinstance(msg, Notify):
        return ("NOTIFY", msg.seq, type(msg.notification).__name__)
    if isinstance(msg, Welcome):
        return ("WELCOME",)
    raise AssertionError(f"unexpected reply {msg!r}")


def test_one_write_of_mixed_frames_gets_its_replies_in_order():
    async def run():
        engine = Engine()
        server, port = await _start(engine, lambda: 2000)
        act = _fair(engine)
        ana, bruno = Client(), Client()
        await ana.connect(port)
        await bruno.connect(port)
        await ana.send(Hello("ana"))
        await ana.recv()
        frames = [
            encode(Hello("bruno")),
            "this is not json\n",
            '{"type":"WELCOME","server_time":1}\n',
            encode(Arm(act.id)),
            encode(Fix(act.id, at_distance(500), 2001)),
            encode(Fix(act.id, at_distance(300), 2002)),
            encode(Fix(act.id, at_distance(50), 2003)),  # the arrival
            encode(Fix(act.id, at_distance(40), 2004)),
            encode(Poll(0)),
        ]
        await bruno.send_raw("".join(frames).encode())
        replies = [await bruno.recv()]
        while replies[-1] != Ack("POLL"):
            replies.append(await bruno.recv())
        push = await ana.recv()
        await ana.close()
        await bruno.close()
        server.close()
        await server.wait_closed()
        return replies, push

    replies, push = asyncio.run(run())
    assert [_summary(m) for m in replies] == [
        ("WELCOME",),
        ("ERR", "MALFORMED"),
        ("ERR", "NOT_A_CLIENT_MESSAGE"),
        ("ACK", "ARM"),
        ("ACK", "FIX"),
        ("ACK", "FIX"),
        ("ACK", "FIX"),
        ("NOTIFY", 2, "SelfArrivalAck"),
        ("ACK", "FIX"),
        ("NOTIFY", 1, "Invitation"),
        ("NOTIFY", 2, "SelfArrivalAck"),
        ("ACK", "POLL"),
    ]
    assert _summary(push) == ("NOTIFY", 1, "ArrivalNotice")
    assert push.notification.identity == "bruno"


def test_records_are_flushed_before_pushes_and_replies_leave(tmp_path, monkeypatch):
    log = tmp_path / "events.log"
    server_writes = []  # (frames written by the server, records on disk at that moment)
    write = net.Connection.write

    def watching_write(self, lines):
        data = "".join(lines)
        if '"type":"ACK"' in data or '"type":"NOTIFY"' in data:
            server_writes.append(
                ([_summary(decode(line)) for line in data.splitlines()], list(load_log(log)))
            )
        return write(self, lines)

    monkeypatch.setattr(net.Connection, "write", watching_write)

    async def run():
        engine = Engine(log_path=log)
        server, port = await _start(engine, lambda: 2000)
        act = _fair(engine)
        ana, bruno = Client(), Client()
        for who, c in (("ana", ana), ("bruno", bruno)):
            await c.connect(port)
            await c.send(Hello(who))
            await c.recv()
        await bruno.send(Arm(act.id))
        await bruno.recv()
        await bruno.send(Fix(act.id, at_distance(500), 2001))
        ack = await bruno.recv()
        on_disk_at_ack = list(load_log(log))
        await bruno.send(Fix(act.id, at_distance(50), 2002))  # the arrival
        for c in (bruno, bruno, ana):  # ack, self-ack; the push
            await c.recv()
        await ana.close()
        await bruno.close()
        server.close()
        await server.wait_closed()
        engine.close()
        return act, ack, on_disk_at_ack, engine.state

    act, ack, on_disk_at_ack, state = asyncio.run(run())
    assert ack == Ack("FIX")
    assert on_disk_at_ack[-1].event == FixAccepted(act.id, "bruno", Zone.OUTSIDE, 2001)
    # Each write leaves after its records are on disk; the arrival's push
    # to ana goes before bruno's own replies, which leave in one write.
    assert [(frames, len(on_disk)) for frames, on_disk in server_writes] == [
        ([("ACK", "ARM")], 4),
        ([("ACK", "FIX")], 5),
        ([("NOTIFY", 1, "ArrivalNotice")], 7),
        ([("ACK", "FIX"), ("NOTIFY", 2, "SelfArrivalAck")], 7),
    ]
    assert replay(server_writes[-1][1]) == state


def test_every_record_of_one_read_carries_one_clock_reading(tmp_path):
    engine = Engine(log_path=tmp_path / "events.log")
    act = _fair(engine)
    set_up = engine.state.record_count
    readings = []

    def clock():
        readings.append(2000 + len(readings))
        return readings[-1]

    fixes = [encode(Fix(act.id, at_distance(m), 2001 + i)) for i, m in enumerate((500, 300, 50))]
    reads = [
        "".join([encode(Hello("bruno")), encode(Arm(act.id)), *fixes]).encode(),
        encode(Fix(act.id, at_distance(40), 2010)).encode() + b"\n" + encode(Poll(0)).encode(),
    ]

    async def run():
        conn, transport = _connect(engine, clock)
        for read in reads:
            conn.data_received(read)
        return transport

    transport = asyncio.run(run())
    engine.close()
    records = list(load_log(tmp_path / "events.log"))[set_up:]
    assert readings == [2000, 2001]
    # ARM, three fixes and the arrival from the first read; one fix from the second.
    assert [r.at for r in records] == [2000] * 5 + [2001]
    assert decode(transport.written[0].splitlines()[0]) == Welcome(2000)


def test_endless_frame_is_refused():
    async def run():
        engine = Engine()
        server, port = await _start(engine, lambda: 1)
        c = Client()
        await c.connect(port)
        await c.send(Hello("ana"))
        await c.recv()
        # A tail of exactly the limit is still read to its newline.
        await c.send_raw(b"x" * MAX_FRAME_BYTES + b"\n")
        at_limit = await c.recv()
        await c.send_raw(b"x" * (MAX_FRAME_BYTES + 1))
        refused = await c.recv()
        rest = await asyncio.wait_for(c.reader.read(), timeout=5)
        await c.close()
        server.close()
        await server.wait_closed()
        return at_limit, refused, rest

    at_limit, refused, rest = asyncio.run(run())
    assert at_limit.code == "MALFORMED"
    assert refused.code == "FRAME_TOO_LARGE"
    assert rest == b""  # and the server hung up


class _Transport:
    """Collects what a connection writes; never has unsent bytes."""

    def __init__(self):
        self.written, self.closed = [], False

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def get_write_buffer_size(self) -> int:
        return 0

    def close(self) -> None:
        self.closed = True


def _connect(engine, clock=lambda: 1):
    """A connection to a server on ``engine``, over a ``_Transport``; run it in a loop."""
    sync = SyncServer(engine, clock=clock)
    sync.stopped = asyncio.get_running_loop().create_future()
    conn, transport = net.Connection(sync), _Transport()
    conn.connection_made(transport)
    return conn, transport


def _replies(transport):
    return [_summary(decode(frame)) for frame in b"".join(transport.written).splitlines()]


def _frames(*msgs) -> bytes:
    return "".join(map(encode, msgs)).encode()


def test_a_push_to_the_sender_reaches_its_other_connections_and_a_poll_answer_does_not():
    async def run():
        engine = Engine()
        act = _fair(engine)
        sync = SyncServer(engine, clock=lambda: 2000)
        sync.stopped = asyncio.get_running_loop().create_future()
        conns = []
        for who in ("bruno", "bruno", "ana"):
            conn, transport = net.Connection(sync), _Transport()
            conn.connection_made(transport)
            conn.data_received(_frames(Hello(who)))
            conns.append((conn, transport))
        (first, on_first), (second, on_second), (_, on_ana) = conns
        first.data_received(_frames(Arm(act.id), Fix(act.id, at_distance(50), 2000)))
        second.data_received(_frames(Poll(0)))
        return on_first, on_second, on_ana

    on_first, on_second, on_ana = asyncio.run(run())
    assert _replies(on_first) == [
        ("WELCOME",), ("ACK", "ARM"), ("ACK", "FIX"), ("NOTIFY", 2, "SelfArrivalAck"),
    ]
    assert _replies(on_second) == [
        ("WELCOME",), ("NOTIFY", 2, "SelfArrivalAck"),  # the push
        ("NOTIFY", 1, "Invitation"), ("NOTIFY", 2, "SelfArrivalAck"), ("ACK", "POLL"),
    ]
    assert _replies(on_ana) == [("WELCOME",), ("NOTIFY", 1, "ArrivalNotice")]


def test_a_push_to_someone_else_reaches_each_of_their_connections():
    async def run():
        engine = Engine()
        act = _fair(engine)
        sync = SyncServer(engine, clock=lambda: 2000)
        sync.stopped = asyncio.get_running_loop().create_future()
        transports = []
        for who in ("ana", "ana", "bruno"):
            conn, transport = net.Connection(sync), _Transport()
            conn.connection_made(transport)
            conn.data_received(_frames(Hello(who)))
            transports.append((conn, transport))
        crosser, _ = transports[2]
        crosser.data_received(_frames(Arm(act.id), Fix(act.id, at_distance(50), 2000)))
        return [t for _, t in transports]

    on_first, on_second, on_bruno = asyncio.run(run())
    assert _replies(on_bruno) == [
        ("WELCOME",), ("ACK", "ARM"), ("ACK", "FIX"), ("NOTIFY", 2, "SelfArrivalAck"),
    ]
    for on_ana in (on_first, on_second):
        assert _replies(on_ana) == [("WELCOME",), ("NOTIFY", 1, "ArrivalNotice")]
    assert on_first.written[1:] == on_second.written[1:]


def test_a_crossing_builds_frames_only_for_the_connected(monkeypatch):
    """In a 32-person meetup with one other participant connected, a crossing
    builds the self-ack and that participant's notice, not one frame per
    recipient; the notice is the line a frame per recipient encoded to."""
    roster = tuple(f"p{i:02d}" for i in range(32))
    built = []
    monkeypatch.setattr(engine_module, "Notify", lambda *a: built.append(a) or Notify(*a))

    async def run():
        engine = Engine()
        # Earlier invitations give every queue its own depth: p01 has 31, p31 has 1.
        *_, act = engine.create_activities([ActivitySpec(
            title="Big fair", kind=ActivityKind.MEETUP,
            window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
            organizer="p00", participants=roster[:k],
        ) for k in (*range(32, 1, -1), 32)], now=0)[0]
        for who in roster:
            engine.handle(RespondInvite(act.id, InviteAnswer.ACCEPT), who, 10)
        sync = SyncServer(engine, clock=lambda: 2000)
        sync.stopped = asyncio.get_running_loop().create_future()
        transports = []
        for who in ("p05", "p07"):
            conn, transport = net.Connection(sync), _Transport()
            conn.connection_made(transport)
            conn.data_received(_frames(Hello(who), Arm(act.id)))
            transports.append((conn, transport))
        (crosser, on_crosser), (_, on_other) = transports
        built.clear()
        crosser.data_received(_frames(Fix(act.id, at_distance(50), 2000)))
        return on_crosser, on_other, engine

    on_crosser, on_other, engine = asyncio.run(run())
    assert [seq for seq, _ in built] == [29, 27]  # the self-ack and the one notice
    assert _replies(on_crosser)[-2:] == [("ACK", "FIX"), ("NOTIFY", 29, "SelfArrivalAck")]
    assert on_other.written[-1] == (
        b'{"type":"NOTIFY","notification":{"kind":"ARRIVAL_NOTICE","activity":"a32",'
        b'"at":2000,"identity":"p05"},"seq":27}\n'
    )
    # Everyone else's queue has the notice all the same.
    assert all(engine.state.queues[who][-1] == built[1][1] for who in roster if who != "p05")


def test_a_second_hello_naming_someone_else_is_refused_and_the_connection_kept():
    async def run():
        engine = Engine()
        (act,), _, _ = engine.create_activities([ActivitySpec(
            title="Fair", kind=ActivityKind.MEETUP,
            window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
            organizer="ana", participants=("ana", "bo"),
        )], now=0)
        conn, transport = _connect(engine)
        conn.data_received(_frames(
            Hello("ana"), Hello("bo"), Hello("ana"), RespondInvite(act.id, InviteAnswer.DECLINE),
        ))
        return engine.state.presence[act.id], transport

    presence, transport = asyncio.run(run())
    assert _replies(transport) == [
        ("WELCOME",), ("ERR", "ALREADY_INTRODUCED"), ("WELCOME",), ("ACK", "RESPOND_INVITE"),
    ]
    assert decode(b"".join(transport.written).splitlines()[1]) == Err(
        "ALREADY_INTRODUCED", "this connection speaks for 'ana'"
    )
    assert (presence["ana"].status, presence["bo"].status) == (
        ParticipantStatus.DECLINED, ParticipantStatus.INVITED,
    )


def test_a_fix_out_of_range_gets_the_err_line_it_always_got():
    async def run():
        conn, transport = _connect(Engine())
        conn.data_received(_frames(Hello("ana")) + b'{"type":"FIX","activity":"a1","at":1,'
                           b'"lat":91.0,"lon":0.0}\n')
        return transport

    written = b"".join(asyncio.run(run()).written).splitlines(keepends=True)
    assert written[1] == (b'{"type":"ERR","code":"FIELD_INVALID",'
                          b'"detail":"invalid field \'lat\': latitude 91.0 outside [-90, 90]"}\n')


def test_each_refused_frame_gets_its_err_line_byte_for_byte():
    """Every refusal of a frame, before the engine sees it, as it is written."""
    reads = (
        b'{"type":"ARM","activity":"a1"}\n' b"not json\n" b'{"type":"NOPE"}\n' b"[1]\n"
        b'{"type":"WELCOME","server_time":1}\n' b'{"type":"HELLO","participant":"ana"}\n'
        b'{"type":"HELLO","participant":"bo"}\n' b'{"type":"HELLO"}\n'
        + b"x" * (MAX_FRAME_BYTES + 1) + b"\n" + encode(Poll(0)).encode()
    )

    async def run():
        conn, transport = _connect(Engine(), clock=lambda: 7)
        conn.data_received(reads)
        return transport

    transport = asyncio.run(run())
    assert b"".join(transport.written).decode().splitlines() == [
        '{"type":"ERR","code":"HELLO_REQUIRED","detail":"introduce yourself first"}',
        '{"type":"ERR","code":"MALFORMED","detail":'
        '"not valid JSON: Expecting value: line 1 column 1 (char 0)"}',
        '{"type":"ERR","code":"UNKNOWN_TYPE","detail":"unknown message type \'NOPE\'"}',
        '{"type":"ERR","code":"MALFORMED","detail":"frame is not a JSON object"}',
        '{"type":"ERR","code":"NOT_A_CLIENT_MESSAGE","detail":"server frames are not accepted"}',
        '{"type":"WELCOME","server_time":7}',
        '{"type":"ERR","code":"ALREADY_INTRODUCED","detail":"this connection speaks for \'ana\'"}',
        '{"type":"ERR","code":"FIELD_MISSING","detail":"missing field \'participant\'"}',
        '{"type":"ERR","code":"FRAME_TOO_LARGE","detail":"no newline within 65536 bytes"}',
    ]
    assert transport.closed


def test_an_endless_frame_fed_a_byte_at_a_time_is_refused_in_linear_time():
    async def run():
        conn, transport = _connect(Engine())
        t0 = time.perf_counter()
        for _ in range(MAX_FRAME_BYTES + 1):
            assert not transport.closed
            conn.data_received(b"x")
        return time.perf_counter() - t0, transport

    seconds, transport = asyncio.run(run())
    assert [decode(frame) for frame in b"".join(transport.written).splitlines()] == [
        Err("FRAME_TOO_LARGE", f"no newline within {MAX_FRAME_BYTES} bytes"),
    ]
    assert transport.closed
    assert seconds < 0.5, seconds


TOO_LARGE = b"x" * (MAX_FRAME_BYTES + 1) + b"\n"


@pytest.mark.parametrize("cut", [None, len(TOO_LARGE) - 1, 1000])
def test_a_frame_over_the_limit_is_refused_however_the_reads_split_it(tmp_path, cut):
    """Whether its newline comes in the same read or not, an oversized frame
    is refused undecoded; the frames before it are answered and committed,
    and the frames after it are dropped."""
    engine = Engine(log_path=tmp_path / "events.log")
    act = _fair(engine)
    arm = encode(Arm(act.id)).encode()
    data = arm + TOO_LARGE + encode(Poll(0)).encode()
    reads = [data] if cut is None else [data[:len(arm) + cut], data[len(arm) + cut:]]

    async def run():
        conn, transport = _connect(engine, clock=lambda: 2000)
        conn.data_received(encode(Hello("bruno")).encode())
        for read in reads:
            if not transport.closed:
                conn.data_received(read)
        return transport

    transport = asyncio.run(run())
    on_disk = list(load_log(tmp_path / "events.log"))  # before the engine closes
    engine.close()
    assert _replies(transport) == [("WELCOME",), ("ACK", "ARM"), ("ERR", "FRAME_TOO_LARGE")]
    assert transport.closed
    assert on_disk[-1].event == ArmSet(act.id, "bruno")


@pytest.mark.parametrize("cut", [None, MAX_FRAME_BYTES, MAX_FRAME_BYTES + 1])
def test_a_crlf_frame_of_exactly_the_limit_is_read_however_the_reads_split_it(cut):
    data = b"x" * MAX_FRAME_BYTES + b"\r\n" + encode(Poll(0)).encode()
    reads = [data] if cut is None else [data[:cut], data[cut:]]

    async def run():
        conn, transport = _connect(Engine())
        conn.data_received(encode(Hello("ana")).encode())
        for read in reads:
            conn.data_received(read)
        return transport

    transport = asyncio.run(run())
    assert _replies(transport) == [("WELCOME",), ("ERR", "MALFORMED"), ("ACK", "POLL")]
    assert not transport.closed


# Lines a fuzzed stream is made of, each without its line ending: frames the
# server answers, blank lines, a line of exactly the limit and lines over it.
STREAM_LINES = [
    encode(Poll(0)).rstrip("\n").encode(), encode(Arm("a1")).rstrip("\n").encode(),
    "{\"type\":\"STATUS\",\"activity\":\"café\"}".encode(), b"not json", b"", b" \t",
    b"x" * MAX_FRAME_BYTES, b"x" * (MAX_FRAME_BYTES + 1), b"y" * (MAX_FRAME_BYTES + 70),
    # With its drawn ending, each of these ends in "\r\n" or "\r\r\n".
    encode(Poll(0)).rstrip("\n").encode() + b"\r", b"x" * (MAX_FRAME_BYTES - 1) + b"\r",
    b"x" * MAX_FRAME_BYTES + b"\r",
]


def _length(line: bytes) -> int:
    """A line's length against the frame limit: its bytes but one final "\\r"."""
    return len(line) - line.endswith(b"\r")


def _feed(reads: list[bytes]) -> tuple[list[tuple], bool]:
    """The replies and whether the connection closed, for ``reads`` in turn,
    through a stub transport; a closed connection is fed nothing more."""
    loop = asyncio.new_event_loop()
    try:
        sync = SyncServer(Engine(), clock=lambda: 1)
        sync.stopped = loop.create_future()
        conn, transport = net.Connection(sync), _Transport()
        conn.connection_made(transport)
        for read in reads:
            if not transport.closed:
                conn.data_received(read)
    finally:
        loop.close()
    return _replies(transport), transport.closed


class TestFramingFuzz:
    """ROADMAP item 15 for ``FrameBuffer`` and the frame limit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_how_the_reads_split_a_stream_changes_no_frame_and_no_reply(self, data):
        lines = data.draw(st.lists(st.sampled_from(STREAM_LINES), max_size=8))
        endings = [data.draw(st.sampled_from([b"\n", b"\r\n"])) for _ in lines]
        ended = data.draw(st.booleans())  # whether the last line has its ending
        stream, ends = encode(Hello("ana")).encode(), []
        for line, ending in zip(lines, endings):
            stream += line + ending
            ends.append(len(stream))
        if lines and not ended:
            stream = stream[:-len(endings[-1])]
        # A cut anywhere, or just before, at or after the end of a line.
        near_ends = [min(max(end + d, 0), len(stream)) for end in ends for d in (-2, -1, 0, 1)]
        cuts = sorted(data.draw(st.lists(
            st.one_of(st.integers(0, len(stream)), st.sampled_from(near_ends or [0])),
            max_size=8,
        )))
        reads = [stream[i:j] for i, j in zip([0, *cuts], [*cuts, len(stream)])]

        whole, split = FrameBuffer(), FrameBuffer()
        assert [f for read in reads for f in split.feed(read)] == whole.feed(stream)
        # The same limit reached, and the same tail held: a newline completes it alike.
        assert split.oversized == whole.oversized
        assert split.feed(b"\n") == whole.feed(b"\n")

        replies, closed = _feed(reads)
        # Each line as read, its newline aside; an unended last line lacks its whole ending.
        read_lines = [line + ending[:-1] for line, ending in zip(lines, endings)]
        if lines and not ended:
            read_lines[-1] = lines[-1]
        big = [i for i, line in enumerate(read_lines) if _length(line) > MAX_FRAME_BYTES]
        complete = lines[:big[0]] if big else lines if ended else lines[:-1]
        # The WELCOME, one reply per line before the first one over the limit
        # but a blank or unended one, and one FRAME_TOO_LARGE; then the close.
        assert len(replies) == 1 + sum(1 for line in complete if line.strip()) + bool(big)
        assert replies.count(("ERR", "FRAME_TOO_LARGE")) == bool(big)
        assert closed == bool(big)
        assert (replies, closed) == _feed([stream])


def test_invalid_utf8_frame_gets_an_err_in_its_place():
    async def run():
        engine = Engine()
        server, port = await _start(engine, lambda: 1)
        c = Client()
        await c.connect(port)
        await c.send_raw(
            encode(Hello("ana")).encode() + encode(Poll(0)).encode()
            + b'{"type":"HELLO","participant":"an\xffa"}\n'
        )
        replies = [await c.recv() for _ in range(3)]
        await c.send(Poll(0))  # the connection is still open
        replies.append(await c.recv())
        await c.close()
        server.close()
        await server.wait_closed()
        return replies

    replies = asyncio.run(run())
    assert [_summary(m) for m in replies] == [
        ("WELCOME",), ("ACK", "POLL"), ("ERR", "MALFORMED"), ("ACK", "POLL"),
    ]


def _chores(engine):
    """A task of ana (organizer) and carla, both accepted."""
    (act,), _, _ = engine.create_activities([ActivitySpec(
        title="Chores", kind=ActivityKind.TASK,
        window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
        organizer="ana", participants=("ana", "carla"),
    )], now=0)
    for who in ("ana", "carla"):
        engine.handle(RespondInvite(act.id, InviteAnswer.ACCEPT), who, 10)
    return act


def _small_send_buffer(sync, participant):
    """Keep the kernel from taking more than a few KiB of what the server
    sends ``participant``, so the rest waits in the server."""
    (conn,) = sync._conns[participant]
    conn.transport.get_extra_info("socket").setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)


def test_a_client_that_reads_no_pushes_is_cut_off_without_stalling_the_sender(
    monkeypatch, caplog
):
    monkeypatch.setattr(net, "MAX_OUTBOUND_BYTES", 32 * 1024)

    async def run():
        engine = Engine()
        sync = SyncServer(engine, clock=lambda: 2000)
        server, port = await _start_sync(sync)
        act = _chores(engine)
        # carla says HELLO and then reads nothing, with a small receive buffer.
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", port))
        reader, writer = await asyncio.open_connection(sock=sock)
        writer.write(encode(Hello("carla")).encode())
        assert isinstance(decode(await reader.readline()), Welcome)
        _small_send_buffer(sync, "carla")
        ana = Client()
        await ana.connect(port)
        await ana.send(Hello("ana"))
        await ana.recv()
        # Each TASK_DONE pushes a notice to carla; ana must get every ACK.
        batch = encode(TaskDone(act.id, 2000)).encode() * 100
        acks = 0
        while "carla" in sync._conns and acks < 20_000:
            await ana.send_raw(batch)
            for _ in range(100):
                assert await ana.recv() == Ack("TASK_DONE")
                acks += 1
        carla_got = await asyncio.wait_for(reader.read(), 5)
        await ana.send(Poll(0))  # ana is still served
        assert await ana.recv() == Ack("POLL")
        writer.close()
        await ana.close()
        server.close()
        await server.wait_closed()
        return acks, carla_got, len(engine.state.queues["carla"])

    with caplog.at_level(logging.WARNING, logger="syncpoint.net"):
        acks, carla_got, queued = asyncio.run(run())
    assert acks < 20_000  # carla was cut off
    # What carla got before the cut is a prefix of her queue, which keeps it all.
    assert 0 < carla_got.count(b"\n") < queued == acks + 1  # the invitation, then the notices
    cut = [r.getMessage() for r in caplog.records if "cutting off" in r.getMessage()]
    assert len(cut) == 1 and "carla" in cut[0], cut


def test_a_client_that_reads_no_replies_is_paused_not_cut_off(monkeypatch):
    monkeypatch.setattr(net, "MAX_OUTBOUND_BYTES", 32 * 1024)
    n = 20_000  # about 1.3 MB of replies

    async def run():
        engine = Engine()
        sync = SyncServer(engine, clock=lambda: 1)
        server, port = await _start_sync(sync)
        ana = Client()
        await ana.connect(port)
        await ana.send(Hello("ana"))
        await ana.recv()
        _small_send_buffer(sync, "ana")
        frames = b"".join(encode(Arm(f"x{i}")).encode() for i in range(n))
        sending = asyncio.create_task(ana.send_raw(frames))
        (conn,) = sync._conns["ana"]
        # ana reads nothing until after the check, so the server must pause
        # reading her; how soon depends on the host, so wait up to 10 s.
        deadline = time.monotonic() + 10
        while conn.transport.is_reading() and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        paused = not conn.transport.is_reading()
        replies = [await ana.recv() for _ in range(n)]
        await sending
        await ana.close()
        server.close()
        await server.wait_closed()
        return paused, replies

    paused, replies = asyncio.run(run())
    assert paused
    assert [r.detail for r in replies] == [f"no such activity 'x{i}'" for i in range(n)]


def test_a_reset_connection_logs_one_line(caplog):
    async def run():
        sync = SyncServer(Engine(), clock=lambda: 1)
        server, port = await _start_sync(sync)
        ana, stranger = Client(), Client()
        for c in (ana, stranger):
            await c.connect(port)
        await ana.send(Hello("ana"))
        await ana.recv()
        for c in (ana, stranger):
            # Linger 0: closing sends a reset instead of a FIN.
            c.writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            c.writer.transport.abort()
        for _ in range(100):
            if not sync._open:
                break
            await asyncio.sleep(0.01)
        server.close()
        await server.wait_closed()

    with caplog.at_level(logging.INFO, logger="syncpoint.net"):
        asyncio.run(run())
    ended = sorted(r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING)
    assert len(ended) == 2, ended
    assert ended[0].startswith("connection before HELLO ended: ")
    assert ended[1].startswith("connection of ana ended: ") and "reset" in ended[1]
