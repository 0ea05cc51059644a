"""Load generator and output checks for the live TCP stage.

Two clients, one connection each, speak the wire protocol to a real
``syncpoint serve``. Frames are prepared from the seed before the clock
starts and written with this benchmark's own canonical JSON, so the
client does not use the program's codec.

Every request has exactly one final response (ACK, ERR, WELCOME or
STATUS_VIEW), sent in request order on its connection; NOTIFY frames are
pushes or poll results and never final. Responses are matched to requests
in that order, so a missing, extra or wrong response is seen at once.
"""

from __future__ import annotations

import asyncio
import json
import random
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from inputs import LIVE, WINDOW_START, inside_point, outside_point

ACK_FIX = b'{"type":"ACK","of":"FIX"}'
POLL_EVERY = 100  # a POLL after this many FIX frames


def fix_frame(activity: str, at: int, lat: float, lon: float) -> bytes:
    return (f'{{"type":"FIX","activity":"{activity}","at":{at},'
            f'"lat":{lat!r},"lon":{lon!r}}}\n').encode()


@dataclass
class Plan:
    """One live client's frames, made from the seed before the run."""

    who: str
    arms: list[tuple[str, bytes, None]]
    open: list[tuple[str, bytes | None, str | None]]
    closed: list[tuple[str, bytes | None, str | None]]
    crossings: dict[str, int]  # activity -> fix timestamp of the crossing


def make_plans(seed: int, events, open_frames: int, closed_frames: int) -> list[Plan]:
    """Fix streams for both live clients over the calendar's activities.

    The open phase visits every activity of a client the same number of
    times, in a seeded order, and exactly one visit per (client, activity)
    lands inside the fence: that is the crossing. Every other fix falls
    about a kilometre outside. The closed phase keeps visiting, always
    outside. A POLL follows every ``POLL_EVERY`` fixes.
    """
    plans = []
    n = len(events)
    for who in LIVE:
        rng = random.Random(f"live/{seed}/{who}")
        visits = max(2, open_frames // 2 // n)
        crossing_visit = [rng.randrange(1, visits) for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        crossings = {}

        def stream(first_visit: int, count: int | None):
            out, fixes, k = [], 0, first_visit
            while True:
                for e in order:
                    if count is not None and fixes >= count:
                        return out
                    ev = events[e]
                    at = WINDOW_START + 1 + k
                    crossing = k == crossing_visit[e]
                    if crossing:
                        lat, lon = inside_point(rng, ev.lat, ev.lon)
                        crossings[ev.activity] = at
                    else:
                        lat, lon = outside_point(rng, ev.lat, ev.lon)
                    out.append(("FIX", fix_frame(ev.activity, at, lat, lon),
                                ev.activity if crossing else None))
                    fixes += 1
                    if fixes % POLL_EVERY == 0:
                        out.append(("POLL", None, None))
                k += 1
                if count is None and k == visits:
                    return out

        arms = [("ARM", f'{{"type":"ARM","activity":"{ev.activity}"}}\n'.encode(), None)
                for ev in events]
        open_ = stream(0, None)
        closed = stream(visits, closed_frames // 2)
        plans.append(Plan(who, arms, open_, closed, crossings))
    return plans


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


@dataclass
class Shared:
    """What the two clients record together during one live stage."""

    tally: Tally
    recording: bool = False  # whether requests prepared now are timed
    fix_ack: list[float] = field(default_factory=list)
    poll_rtt: list[float] = field(default_factory=list)
    arrival_notify: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    crossing_due: dict[tuple[str, str], float] = field(default_factory=dict)
    # (recipient, activity, identity) -> [(seq, at), ...] of ARRIVAL_NOTICE
    notices: dict[tuple[str, str, str], list[tuple[int, int]]] = field(default_factory=dict)
    # (arriver, activity) -> [at, ...] of SELF_ARRIVAL_ACK
    self_acks: dict[tuple[str, str], list[int]] = field(default_factory=dict)


class Client:
    def __init__(self, who: str, shared: Shared):
        self.who = who
        self.shared = shared
        self.tally = shared.tally
        # (kind, due, info) per request in flight. info is whether a FIX is
        # timed, a POLL's bookkeeping, or the frame a STATUS must get back.
        self.pending: deque = deque()
        self.seen: dict[int, bytes] = {}  # NOTIFY seq -> frame
        self.max_seq = 0
        self.refill = None
        self.idle = asyncio.Event()
        self._buf = b""
        self._task = None

    async def connect(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", port)
        self._task = asyncio.create_task(self._read_loop())

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        if self._task is not None:
            await self._task

    # --- sending ---------------------------------------------------------

    def prepare(self, kind: str, data: bytes | None, due: float, info=None) -> bytes:
        """Register one request as in flight and return its bytes."""
        self.tally.attempted += 1
        if kind == "POLL":
            info = {"cursor": self.max_seq, "seqs": [], "full": False,
                    "timed": self.shared.recording}
            data = f'{{"type":"POLL","cursor":{self.max_seq}}}\n'.encode()
        elif kind == "FIX":
            info = self.shared.recording
        self.pending.append((kind, due, info))
        return data

    def request(self, kind: str, data: bytes, info=None) -> None:
        self.idle.clear()
        self.writer.write(self.prepare(kind, data, perf_counter(), info))

    def full_poll(self) -> None:
        """POLL from cursor 0: the whole queue, which must be dense."""
        self.idle.clear()
        self.tally.attempted += 1
        self.pending.append(("POLL", perf_counter(),
                             {"cursor": 0, "seqs": [], "full": True, "timed": False}))
        self.writer.write(b'{"type":"POLL","cursor":0}\n')

    async def wait_idle(self, timeout: float) -> None:
        deadline = perf_counter() + timeout
        while self.pending and not self.reader.at_eof():
            self.idle.clear()
            try:
                await asyncio.wait_for(self.idle.wait(), max(0.0, deadline - perf_counter()))
            except asyncio.TimeoutError:
                break
        for kind, _, _ in self.pending:
            self.tally.fail(f"{self.who}: no response to {kind}")
        self.pending.clear()

    # --- receiving -------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self.reader.read(1 << 16)
                if not data:
                    break
                t = perf_counter()
                *lines, self._buf = (self._buf + data).split(b"\n")
                for line in lines:
                    self._frame(line, t)
                if self.refill is not None:
                    self.refill()
        except ConnectionError as e:
            self.tally.fail(f"{self.who}: connection lost: {e}")
        finally:
            self.idle.set()

    def _frame(self, line: bytes, t: float) -> None:
        if line == ACK_FIX:
            self._respond("ACK", "FIX", t, line)
            return
        if b'"lat"' in line or b'"lon"' in line:
            self.tally.fail(f"{self.who}: coordinate in an outbound frame: {line[:80]!r}")
        try:
            msg = json.loads(line)
            type_ = msg["type"]
        except (ValueError, KeyError, TypeError):
            self.tally.fail(f"{self.who}: undecodable frame {line[:80]!r}")
            return
        if type_ == "NOTIFY":
            self._notify(msg, line, t)
        elif type_ == "ACK":
            self._respond("ACK", msg.get("of"), t, line)
        else:
            self._respond(type_, None, t, line, msg)

    def _respond(self, type_: str, of, t: float, line: bytes, msg=None) -> None:
        if not self.pending:
            self.tally.fail(f"{self.who}: unsolicited {type_} frame")
            return
        kind, due, info = self.pending.popleft()
        if not self.pending:
            self.idle.set()
        if type_ == "ACK":
            if of != kind:
                self.tally.fail(f"{self.who}: {kind} answered by ACK of {of}")
            elif kind == "FIX":
                if info:
                    self.shared.fix_ack.append(t - due)
            elif kind == "POLL":
                self._check_poll(info, t, due)
        elif type_ == "ERR":
            self.tally.fail(f"{self.who}: {kind} answered by ERR {msg.get('code')}")
        elif type_ == "WELCOME":
            if kind != "HELLO":
                self.tally.fail(f"{self.who}: {kind} answered by WELCOME")
        elif type_ == "STATUS_VIEW":
            if kind != "STATUS":
                self.tally.fail(f"{self.who}: {kind} answered by STATUS_VIEW")
            elif line != info:
                self.tally.fail(f"{self.who}: STATUS_VIEW differs from the generating "
                                f"state: {line[:120]!r}")
        else:
            self.tally.fail(f"{self.who}: {kind} answered by {type_}")

    def _notify(self, msg: dict, line: bytes, t: float) -> None:
        seq, n = msg.get("seq"), msg.get("notification")
        if not isinstance(seq, int) or not isinstance(n, dict):
            self.tally.fail(f"{self.who}: malformed NOTIFY {line[:80]!r}")
            return
        if self.pending and self.pending[0][0] == "POLL":
            self.pending[0][2]["seqs"].append(seq)
        prev = self.seen.get(seq)
        if prev is not None:
            if prev != line:
                self.tally.fail(f"{self.who}: seq {seq} delivered with two contents")
            return
        self.seen[seq] = line
        if seq > self.max_seq:
            self.max_seq = seq
        kind = n.get("kind")
        if kind == "ARRIVAL_NOTICE":
            key = (self.who, n.get("activity"), n.get("identity"))
            self.shared.notices.setdefault(key, []).append((seq, n.get("at")))
            due = self.shared.crossing_due.get(key[1:])
            if due is not None:
                self.shared.arrival_notify.append(t - due)
        elif kind == "SELF_ARRIVAL_ACK":
            self.shared.self_acks.setdefault((self.who, n.get("activity")), []).append(n.get("at"))

    def _check_poll(self, info: dict, t: float, due: float) -> None:
        seqs = sorted(set(info["seqs"]))
        if info["full"]:
            if seqs != list(range(1, self.max_seq + 1)):
                self.tally.fail(f"{self.who}: POLL from 0 returned {len(seqs)} seqs, "
                                f"not 1..{self.max_seq}")
            return
        if seqs and seqs != list(range(info["cursor"] + 1, seqs[-1] + 1)):
            self.tally.fail(f"{self.who}: POLL result not dense after {info['cursor']}")
        if info["timed"]:
            self.shared.poll_rtt.append(t - due)


# --- phases --------------------------------------------------------------------


async def hello(client: Client, timeout: float = 30.0) -> None:
    client.request("HELLO", f'{{"type":"HELLO","participant":"{client.who}"}}\n'.encode())
    await client.wait_idle(timeout)


async def windowed(client: Client, entries, window: int, timeout: float) -> None:
    """Closed loop: keep ``window`` requests in flight until all are answered."""
    i, n = 0, len(entries)

    def refill():
        nonlocal i
        parts = []
        while i < n and len(client.pending) < window:
            kind, data, _ = entries[i]
            parts.append(client.prepare(kind, data, perf_counter()))
            i += 1
        if parts:
            client.idle.clear()
            client.writer.write(b"".join(parts))

    client.refill = refill
    refill()
    try:
        deadline = perf_counter() + timeout
        while (i < n or client.pending) and not client.reader.at_eof():
            client.idle.clear()
            try:
                await asyncio.wait_for(client.idle.wait(), max(0.0, deadline - perf_counter()))
            except asyncio.TimeoutError:
                break
            if perf_counter() > deadline:
                break
    finally:
        client.refill = None
    for _ in range(n - i):
        client.tally.attempted += 1
        client.tally.fail(f"{client.who}: request never sent before the timeout")
    await client.wait_idle(0.0)


async def open_loop(client: Client, entries, rate: float, t0: float, offset: float,
                    warmup: int) -> int:
    """Send each entry at its due time ``t0 + (i + offset) / rate``.

    Requests are timed from when they were due, so a stall on either side
    delays every later request's clock too; the first ``warmup`` entries
    are sent but not timed. Returns the number of requests still
    unanswered when the last one was sent.
    """
    shared = client.shared
    period = 1.0 / rate
    i, n = 0, len(entries)
    while i < n:
        now = perf_counter()
        due = t0 + (i + offset) * period
        if due > now:
            # The loop's timer only wakes to the millisecond: sleep until
            # close, then yield without sleeping until the frame is due.
            await asyncio.sleep(due - now - 1e-3 if due - now > 2e-3 else 0)
            continue
        parts = []
        while i < n:
            due = t0 + (i + offset) * period
            if due > now:
                break
            kind, data, crossing = entries[i]
            shared.recording = i >= warmup
            parts.append(client.prepare(kind, data, due))
            if shared.recording:
                shared.lateness.append(now - due)
                if crossing is not None:
                    shared.crossing_due[(crossing, client.who)] = due
            i += 1
        client.idle.clear()
        client.writer.write(b"".join(parts))
    return len(client.pending)


def check_arrivals(plans: list[Plan], shared: Shared) -> None:
    """Exactly one arrival NOTIFY per crossing reaches the other live client."""
    tally = shared.tally
    live = {p.who for p in plans}
    expected = set()
    for plan in plans:
        other = next(p.who for p in plans if p.who != plan.who)
        for activity, at in plan.crossings.items():
            expected.add((other, activity, plan.who))
            tally.attempted += 1
            got = shared.notices.get((other, activity, plan.who), [])
            acks = shared.self_acks.get((plan.who, activity), [])
            if [a for _, a in got] != [at]:
                tally.fail(f"{other}: {len(got)} arrival notices for {plan.who} "
                           f"in {activity}, expected one at {at}")
            elif acks != [at]:
                tally.fail(f"{plan.who}: {len(acks)} self-acks in {activity}")
    for key in shared.notices:
        if key[2] in live and key not in expected:
            tally.fail(f"unscheduled arrival notice {key}")
