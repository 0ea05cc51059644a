"""Canonical wire codec: newline-delimited JSON frames.

Every message is one UTF-8 JSON object on one line, terminated by ``\\n``.
The ``type`` field names the variant in SCREAMING_SNAKE; remaining keys are
serialized in alphabetical order ("type" first). Nested notification
objects use a ``kind`` discriminator first, then alphabetical keys; all
other nested objects are purely alphabetical. Optional fields (a withheld
identity) are omitted, not null. Encoding equal messages is byte-identical,
which is what makes golden transcripts meaningful.

The schema table below (``MESSAGES``, one ``Schema`` per frame and per
notification) is the one place where each variant's fields, their checks
and their order live; ``syncpoint.schema`` compiles the encoders, the
decoders and the known-field sets from it.

``decode`` is the inverse of ``encode`` on valid frames and tolerates
unknown extra fields (ignored, with one logged warning per frame type).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import get_args

from .activities import ActivityKind, ActivityPhase, InviteAnswer, ParticipantStatus
from .errors import Refused
from .geo import GeoPoint
from .notify import (
    ActivitySummary,
    AllArrived,
    ArrivalNotice,
    GatheringUpdate,
    Invitation,
    Notification,
    SelfArrivalAck,
    TaskDoneNotice,
)
from .schema import (
    BOOL,
    COUNT,
    FLOAT,
    INT,
    STR,
    TEXT,
    FieldMissing,
    Inline,
    ListOf,
    Nested,
    OneOf,
    Optional,
    Schema,
    choice,
    loads_line,
)

log = logging.getLogger(__name__)


# --- client messages -------------------------------------------------------
# Each is decoded, handled once and dropped, so none is frozen (``schema.OneOf``).

@dataclass(slots=True)
class Hello:
    participant: str


@dataclass(slots=True)
class RespondInvite:
    activity: str
    answer: InviteAnswer


@dataclass(slots=True)
class Arm:
    activity: str


@dataclass(slots=True)
class Disarm:
    activity: str


@dataclass(slots=True)
class Fix:
    activity: str
    point: GeoPoint
    at: int


@dataclass(slots=True)
class TaskDone:
    activity: str
    at: int


@dataclass(slots=True)
class Poll:
    cursor: int


@dataclass(slots=True)
class Status:
    activity: str


ClientMessage = Hello | RespondInvite | Arm | Disarm | Fix | TaskDone | Poll | Status
# The client/server split, for ``isinstance`` checks on decoded frames.
CLIENT_MESSAGES: tuple[type, ...] = get_args(ClientMessage)


# --- server messages -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Welcome:
    server_time: int


# The one shared frame not frozen; ``schema.OneOf`` says why.
@dataclass(slots=True)
class Notify:
    seq: int
    notification: Notification


@dataclass(frozen=True, slots=True)
class ParticipantView:
    id: str
    status: ParticipantStatus
    arrived: bool


@dataclass(frozen=True, slots=True)
class StatusView:
    activity: str
    participants: tuple[ParticipantView, ...]
    arrivals: int
    phase: ActivityPhase


@dataclass(frozen=True, slots=True)
class Ack:
    of: str


@dataclass(frozen=True, slots=True)
class Err:
    code: str
    detail: str


ServerMessage = Welcome | Notify | StatusView | Ack | Err

Message = ClientMessage | ServerMessage


# --- schema -----------------------------------------------------------------

POINT = Schema(GeoPoint, ("lat", FLOAT), ("lon", FLOAT))
_SUMMARY = Schema(
    ActivitySummary, ("activity", STR), ("title", TEXT), ("kind", choice(ActivityKind)),
    ("start", INT), ("end", INT),
)


def _notification(cls, tag, *fields):
    return Schema(cls, *fields, tag=("kind", tag))


_NOTIFICATION = OneOf(
    _notification(Invitation, "INVITATION", ("summary", Nested(_SUMMARY))),
    _notification(SelfArrivalAck, "SELF_ARRIVAL_ACK", ("activity", STR), ("at", INT)),
    _notification(
        ArrivalNotice, "ARRIVAL_NOTICE", ("activity", STR), ("at", INT),
        ("identity", Optional(TEXT)),
    ),
    _notification(GatheringUpdate, "GATHERING_UPDATE", ("activity", STR), ("count", COUNT)),
    _notification(AllArrived, "ALL_ARRIVED", ("activity", STR), ("at", INT)),
    _notification(
        TaskDoneNotice, "TASK_DONE", ("activity", STR), ("at", INT),
        ("identity", Optional(TEXT)),
    ),
)


def _frame(cls, tag, *fields):
    return Schema(cls, *fields, tag=("type", tag))


MESSAGES = OneOf(
    _frame(Hello, "HELLO", ("participant", STR)),
    _frame(RespondInvite, "RESPOND_INVITE", ("activity", STR), ("answer", choice(InviteAnswer))),
    _frame(Arm, "ARM", ("activity", STR)),
    _frame(Disarm, "DISARM", ("activity", STR)),
    _frame(Fix, "FIX", ("activity", STR), ("point", Inline(POINT)), ("at", INT)),
    _frame(TaskDone, "TASK_DONE", ("activity", STR), ("at", INT)),
    _frame(Poll, "POLL", ("cursor", INT)),
    _frame(Status, "STATUS", ("activity", STR)),
    _frame(Welcome, "WELCOME", ("server_time", INT)),
    _frame(Notify, "NOTIFY", ("seq", COUNT), ("notification", _NOTIFICATION)),
    _frame(
        StatusView, "STATUS_VIEW",
        ("activity", STR),
        ("participants", ListOf(Schema(
            ParticipantView, ("id", STR), ("status", choice(ParticipantStatus)),
            ("arrived", BOOL),
        ))),
        ("arrivals", INT),
        ("phase", choice(ActivityPhase)),
    ),
    _frame(Ack, "ACK", ("of", STR)),
    _frame(Err, "ERR", ("code", STR), ("detail", TEXT)),
)
"""Every wire message, as a field kind (the msg of a transcript line)."""


# --- encoding ---------------------------------------------------------------

def encode(msg: Message) -> str:
    """One canonical frame, newline-terminated."""
    return MESSAGES.encode(msg) + "\n"


# --- decoding ---------------------------------------------------------------

_DECODERS = {s.tag[1]: (s.decoder, s.keys()) for s in MESSAGES.schemas}
_WARNED: set[str] = set()  # the frame types whose unknown fields were logged, one of each


def decode(frame: str | bytes) -> Message:
    """Decode one frame (trailing newline tolerated); bytes must be UTF-8."""
    try:
        obj = loads_line(frame)
    except ValueError as e:  # UnicodeDecodeError included
        raise Refused("MALFORMED", f"not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise Refused("MALFORMED", "frame is not a JSON object")
    try:
        t = obj["type"]
    except KeyError:
        raise FieldMissing("type") from None
    try:
        decoder, known = _DECODERS[t]
    except (KeyError, TypeError):  # TypeError: an unhashable type
        raise Refused("UNKNOWN_TYPE", f"unknown message type {t!r}") from None
    if not known.issuperset(obj) and t not in _WARNED:
        _WARNED.add(t)
        log.warning("ignoring unknown fields %s in %s frame", sorted(set(obj) - known), t)
    try:
        return decoder(obj)
    except KeyError as e:
        raise FieldMissing(e.args[0]) from None


MAX_FRAME_BYTES = 64 * 1024  # the longest frame read, far above any client frame


def _length(line: bytes | bytearray) -> int:
    """A line's length against ``MAX_FRAME_BYTES``: its bytes but one final carriage return."""
    return len(line) - line.endswith(b"\r")


class FrameBuffer:
    """Reassembles newline-delimited frames from arbitrarily split chunks.

    A chunk is scanned once and the tail grows in place, so the cost is
    linear in the bytes fed, however finely they are split. The frame limit
    is applied here: ``feed`` returns only the frames before the first line
    longer than ``MAX_FRAME_BYTES``, and sets ``oversized``; every later feed
    returns nothing. A line's length is its bytes but the newline and one
    final carriage return (``_length``), whether its newline has come or not.
    """

    def __init__(self):
        self._tail = bytearray()
        self.oversized = False

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb a chunk; return every frame it completes, in order, as bytes."""
        if self.oversized:
            return []
        held = len(self._tail) + len(data)
        *lines, rest = data.split(b"\n")
        if lines and self._tail:
            self._tail += lines[0]
            lines[0] = bytes(self._tail)
            self._tail.clear()
        if rest:
            self._tail += rest
        frames = [line.rstrip(b"\r") for line in lines]
        if held > MAX_FRAME_BYTES:  # else no line of this chunk can be longer
            over = [i for i, line in enumerate(lines) if _length(line) > MAX_FRAME_BYTES]
            if over or _length(self._tail) > MAX_FRAME_BYTES:
                self.oversized = True
                del frames[(over or [len(frames)])[0]:]
        return frames
