"""Canonical wire codec: newline-delimited JSON frames.

Every message is one UTF-8 JSON object on one line, terminated by ``\\n``.
The ``type`` field names the variant in SCREAMING_SNAKE; remaining keys are
serialized in alphabetical order ("type" first). Nested notification
objects use a ``kind`` discriminator first, then alphabetical keys; all
other nested objects are purely alphabetical. Optional fields (a withheld
identity) are omitted, not null. Encoding equal messages is byte-identical,
which is what makes golden transcripts meaningful.

``decode`` is the inverse of ``encode`` on valid frames and tolerates
unknown extra fields (ignored with a logged warning).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import get_args

from .activities import ActivityKind, ActivityPhase, InviteAnswer, ParticipantStatus
from .errors import SyncError
from .geo import GeoPoint, LatOutOfRange, LonOutOfRange
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

log = logging.getLogger(__name__)


class MalformedFrame(SyncError):
    code = "MALFORMED"


class UnknownType(SyncError):
    code = "UNKNOWN_TYPE"


class FieldMissing(SyncError):
    code = "FIELD_MISSING"

    def __init__(self, name: str):
        super().__init__(f"missing field {name!r}")
        self.name = name


class FieldInvalid(SyncError):
    code = "FIELD_INVALID"

    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"invalid field {name!r}" + (f": {detail}" if detail else ""))
        self.name = name


# --- client messages -------------------------------------------------------

@dataclass(frozen=True)
class Hello:
    participant: str


@dataclass(frozen=True)
class RespondInvite:
    activity: str
    answer: InviteAnswer


@dataclass(frozen=True)
class Arm:
    activity: str


@dataclass(frozen=True)
class Disarm:
    activity: str


@dataclass(frozen=True)
class Fix:
    activity: str
    point: GeoPoint
    at: int


@dataclass(frozen=True)
class TaskDone:
    activity: str
    at: int


@dataclass(frozen=True)
class Poll:
    cursor: int


@dataclass(frozen=True)
class Status:
    activity: str


ClientMessage = Hello | RespondInvite | Arm | Disarm | Fix | TaskDone | Poll | Status
# The client/server split, for ``isinstance`` checks on decoded frames.
CLIENT_MESSAGES: tuple[type, ...] = get_args(ClientMessage)


# --- server messages -------------------------------------------------------

@dataclass(frozen=True)
class Welcome:
    server_time: int


@dataclass(frozen=True)
class Invite:
    summary: ActivitySummary


@dataclass(frozen=True)
class Notify:
    seq: int
    notification: Notification


@dataclass(frozen=True)
class ParticipantView:
    id: str
    status: ParticipantStatus
    arrived: bool


@dataclass(frozen=True)
class StatusView:
    activity: str
    participants: tuple[ParticipantView, ...]
    arrivals: int
    phase: ActivityPhase


@dataclass(frozen=True)
class Ack:
    of: str


@dataclass(frozen=True)
class Err:
    code: str
    detail: str


ServerMessage = Welcome | Invite | Notify | StatusView | Ack | Err

Message = ClientMessage | ServerMessage


# --- encoding ---------------------------------------------------------------

def _summary_fields(s: ActivitySummary) -> dict:
    return {
        "activity": s.activity,
        "end": s.end,
        "kind": s.kind.value,
        "start": s.start,
        "title": s.title,
    }


def notification_fields(n: Notification) -> dict:
    if isinstance(n, Invitation):
        return {"kind": "INVITATION", "summary": _summary_fields(n.summary)}
    if isinstance(n, SelfArrivalAck):
        return {"kind": "SELF_ARRIVAL_ACK", "activity": n.activity, "at": n.at}
    if isinstance(n, ArrivalNotice):
        fields = {"kind": "ARRIVAL_NOTICE", "activity": n.activity, "at": n.at}
        if n.identity is not None:
            fields["identity"] = n.identity
        return fields
    if isinstance(n, GatheringUpdate):
        return {"kind": "GATHERING_UPDATE", "activity": n.activity, "count": n.count}
    if isinstance(n, AllArrived):
        return {"kind": "ALL_ARRIVED", "activity": n.activity, "at": n.at}
    if isinstance(n, TaskDoneNotice):
        fields = {"kind": "TASK_DONE", "activity": n.activity, "at": n.at}
        if n.identity is not None:
            fields["identity"] = n.identity
        return fields
    raise TypeError(f"not a notification: {n!r}")


def message_fields(msg: Message) -> dict:
    """The canonical JSON object for a message, keys in wire order."""
    if isinstance(msg, Hello):
        return {"type": "HELLO", "participant": msg.participant}
    if isinstance(msg, RespondInvite):
        return {"type": "RESPOND_INVITE", "activity": msg.activity, "answer": msg.answer.value}
    if isinstance(msg, Arm):
        return {"type": "ARM", "activity": msg.activity}
    if isinstance(msg, Disarm):
        return {"type": "DISARM", "activity": msg.activity}
    if isinstance(msg, Fix):
        return {
            "type": "FIX",
            "activity": msg.activity,
            "at": msg.at,
            "lat": msg.point.lat,
            "lon": msg.point.lon,
        }
    if isinstance(msg, TaskDone):
        return {"type": "TASK_DONE", "activity": msg.activity, "at": msg.at}
    if isinstance(msg, Poll):
        return {"type": "POLL", "cursor": msg.cursor}
    if isinstance(msg, Status):
        return {"type": "STATUS", "activity": msg.activity}
    if isinstance(msg, Welcome):
        return {"type": "WELCOME", "server_time": msg.server_time}
    if isinstance(msg, Invite):
        return {"type": "INVITE", "summary": _summary_fields(msg.summary)}
    if isinstance(msg, Notify):
        return {
            "type": "NOTIFY",
            "notification": notification_fields(msg.notification),
            "seq": msg.seq,
        }
    if isinstance(msg, StatusView):
        return {
            "type": "STATUS_VIEW",
            "activity": msg.activity,
            "arrivals": msg.arrivals,
            "participants": [
                {"arrived": p.arrived, "id": p.id, "status": p.status.value}
                for p in msg.participants
            ],
            "phase": msg.phase.value,
        }
    if isinstance(msg, Ack):
        return {"type": "ACK", "of": msg.of}
    if isinstance(msg, Err):
        return {"type": "ERR", "code": msg.code, "detail": msg.detail}
    raise TypeError(f"not a wire message: {msg!r}")


_CANONICAL = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def dumps_canonical(obj) -> str:
    """Serialize an already-ordered object with the canonical JSON dialect."""
    return _CANONICAL.encode(obj)


def encode(msg: Message) -> str:
    """One canonical frame, newline-terminated."""
    return dumps_canonical(message_fields(msg)) + "\n"


# --- decoding ---------------------------------------------------------------

def _require(obj: dict, name: str):
    if name not in obj:
        raise FieldMissing(name)
    return obj[name]


def _str(obj: dict, name: str, non_empty: bool = True) -> str:
    v = _require(obj, name)
    if not isinstance(v, str):
        raise FieldInvalid(name, "expected a string")
    if non_empty and not v:
        raise FieldInvalid(name, "must be non-empty")
    return v


def _int(obj: dict, name: str, minimum: int = 0) -> int:
    v = _require(obj, name)
    if not isinstance(v, int) or isinstance(v, bool):
        raise FieldInvalid(name, "expected an integer")
    if v < minimum:
        raise FieldInvalid(name, f"must be >= {minimum}")
    return v


def _bool(obj: dict, name: str) -> bool:
    v = _require(obj, name)
    if not isinstance(v, bool):
        raise FieldInvalid(name, "expected a boolean")
    return v


def _enum(obj: dict, name: str, enum_cls):
    v = _str(obj, name)
    try:
        return enum_cls(v)
    except ValueError:
        raise FieldInvalid(name, f"not one of {[e.value for e in enum_cls]}") from None


def _point(obj: dict) -> GeoPoint:
    lat = _require(obj, "lat")
    lon = _require(obj, "lon")
    for name, v in (("lat", lat), ("lon", lon)):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise FieldInvalid(name, "expected a number")
    try:
        return GeoPoint(float(lat), float(lon))
    except LatOutOfRange as e:
        raise FieldInvalid("lat", e.detail) from None
    except LonOutOfRange as e:
        raise FieldInvalid("lon", e.detail) from None


def _summary(obj: dict, name: str) -> ActivitySummary:
    v = _require(obj, name)
    if not isinstance(v, dict):
        raise FieldInvalid(name, "expected an object")
    return ActivitySummary(
        activity=_str(v, "activity"),
        title=_str(v, "title", non_empty=False),
        kind=_enum(v, "kind", ActivityKind),
        start=_int(v, "start"),
        end=_int(v, "end"),
    )


def notification_from_fields(obj: dict) -> Notification:
    kind = _str(obj, "kind")
    if kind == "INVITATION":
        return Invitation(_summary(obj, "summary"))
    if kind == "SELF_ARRIVAL_ACK":
        return SelfArrivalAck(_str(obj, "activity"), _int(obj, "at"))
    if kind == "ARRIVAL_NOTICE":
        identity = obj.get("identity")
        if identity is not None and not isinstance(identity, str):
            raise FieldInvalid("identity", "expected a string")
        return ArrivalNotice(_str(obj, "activity"), _int(obj, "at"), identity)
    if kind == "GATHERING_UPDATE":
        return GatheringUpdate(_str(obj, "activity"), _int(obj, "count", minimum=1))
    if kind == "ALL_ARRIVED":
        return AllArrived(_str(obj, "activity"), _int(obj, "at"))
    if kind == "TASK_DONE":
        identity = obj.get("identity")
        if identity is not None and not isinstance(identity, str):
            raise FieldInvalid("identity", "expected a string")
        return TaskDoneNotice(_str(obj, "activity"), _int(obj, "at"), identity)
    raise FieldInvalid("kind", f"unknown notification kind {kind!r}")


def _decode_hello(o):
    return Hello(_str(o, "participant"))


def _decode_respond(o):
    return RespondInvite(_str(o, "activity"), _enum(o, "answer", InviteAnswer))


def _decode_arm(o):
    return Arm(_str(o, "activity"))


def _decode_disarm(o):
    return Disarm(_str(o, "activity"))


def _decode_fix(o):
    return Fix(_str(o, "activity"), _point(o), _int(o, "at"))


def _decode_task_done(o):
    return TaskDone(_str(o, "activity"), _int(o, "at"))


def _decode_poll(o):
    return Poll(_int(o, "cursor"))


def _decode_status(o):
    return Status(_str(o, "activity"))


def _decode_welcome(o):
    return Welcome(_int(o, "server_time"))


def _decode_invite(o):
    return Invite(_summary(o, "summary"))


def _decode_notify(o):
    n = _require(o, "notification")
    if not isinstance(n, dict):
        raise FieldInvalid("notification", "expected an object")
    return Notify(_int(o, "seq", minimum=1), notification_from_fields(n))


def _decode_status_view(o):
    raw = _require(o, "participants")
    if not isinstance(raw, list):
        raise FieldInvalid("participants", "expected a list")
    views = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise FieldInvalid("participants", "expected objects")
        views.append(
            ParticipantView(
                id=_str(entry, "id"),
                status=_enum(entry, "status", ParticipantStatus),
                arrived=_bool(entry, "arrived"),
            )
        )
    return StatusView(
        activity=_str(o, "activity"),
        participants=tuple(views),
        arrivals=_int(o, "arrivals"),
        phase=_enum(o, "phase", ActivityPhase),
    )


def _decode_ack(o):
    return Ack(_str(o, "of"))


def _decode_err(o):
    return Err(_str(o, "code"), _str(o, "detail", non_empty=False))


_DECODERS = {
    "HELLO": (_decode_hello, {"participant"}),
    "RESPOND_INVITE": (_decode_respond, {"activity", "answer"}),
    "ARM": (_decode_arm, {"activity"}),
    "DISARM": (_decode_disarm, {"activity"}),
    "FIX": (_decode_fix, {"activity", "at", "lat", "lon"}),
    "TASK_DONE": (_decode_task_done, {"activity", "at"}),
    "POLL": (_decode_poll, {"cursor"}),
    "STATUS": (_decode_status, {"activity"}),
    "WELCOME": (_decode_welcome, {"server_time"}),
    "INVITE": (_decode_invite, {"summary"}),
    "NOTIFY": (_decode_notify, {"notification", "seq"}),
    "STATUS_VIEW": (_decode_status_view, {"activity", "arrivals", "participants", "phase"}),
    "ACK": (_decode_ack, {"of"}),
    "ERR": (_decode_err, {"code", "detail"}),
}


def decode(frame: str) -> Message:
    """Decode one frame (trailing newline tolerated)."""
    try:
        obj = json.loads(frame)
    except ValueError as e:
        raise MalformedFrame(f"not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise MalformedFrame("frame is not a JSON object")
    if "type" not in obj:
        raise FieldMissing("type")
    t = obj["type"]
    if not isinstance(t, str) or t not in _DECODERS:
        raise UnknownType(f"unknown message type {t!r}")
    decoder, known = _DECODERS[t]
    extra = set(obj) - known - {"type"}
    if extra:
        log.warning("ignoring unknown fields %s in %s frame", sorted(extra), t)
    return decoder(obj)


class FrameBuffer:
    """Reassembles newline-delimited frames from arbitrarily split chunks."""

    def __init__(self):
        self._buf = b""

    def feed(self, data: bytes) -> list[str]:
        """Absorb a chunk; return every frame completed by it, in order."""
        self._buf += data
        frames = []
        while True:
            line, sep, rest = self._buf.partition(b"\n")
            if not sep:
                break
            self._buf = rest
            frames.append(line.decode("utf-8").rstrip("\r"))
        return frames

    @property
    def pending(self) -> bytes:
        return self._buf
