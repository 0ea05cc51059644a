"""Seeded random wire-message generator for volume round-trip checks.

Covers every message variant and every notification kind, independent of
hypothesis so tens of thousands of cases stay fast. Also the reference
views the tests read frames through: a frame's canonical JSON object, and
the canonical JSON dialect applied to an already-ordered object.
"""

import json
import random

from syncpoint.activities import ActivityKind, ActivityPhase, InviteAnswer, ParticipantStatus
from syncpoint.geo import GeoPoint
from syncpoint.notify import (
    ActivitySummary,
    AllArrived,
    ArrivalNotice,
    GatheringUpdate,
    Invitation,
    SelfArrivalAck,
    TaskDoneNotice,
)
from syncpoint.wire import (
    Ack,
    Arm,
    Disarm,
    Err,
    Fix,
    Hello,
    Notify,
    ParticipantView,
    Poll,
    RespondInvite,
    Status,
    StatusView,
    TaskDone,
    Welcome,
    encode,
)

_CANONICAL = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def dumps_canonical(obj) -> str:
    """Serialize an already-ordered object with the canonical JSON dialect."""
    return _CANONICAL.encode(obj)


def message_fields(msg) -> dict:
    """The canonical JSON object for a message, keys in wire order."""
    return json.loads(encode(msg))


def coordinates(msg) -> tuple[list, list]:
    """The C10 mediator scan of a frame: its (lat, lon) pairs, and all its floats."""
    pairs, floats = [], []

    def walk(node):
        if isinstance(node, dict):
            if "lat" in node and "lon" in node:
                pairs.append((node["lat"], node["lon"]))
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            floats.append(node)

    walk(message_fields(msg))
    return pairs, floats


def notification_fields(n) -> dict:
    """The canonical JSON object for a notification, as a NOTIFY frame carries it."""
    return message_fields(Notify(1, n))["notification"]

_WORDS = ["ana", "bruno", "carla", "g01", "driver", "rider", "p-1", "café", "家"]


def _id(rng: random.Random) -> str:
    return rng.choice(_WORDS) + (str(rng.randint(0, 99)) if rng.random() < 0.5 else "")


def _point(rng: random.Random) -> GeoPoint:
    lon = rng.uniform(-180.0, 180.0)
    return GeoPoint(rng.uniform(-90.0, 90.0), lon if lon != -180.0 else 180.0)


def _summary(rng: random.Random) -> ActivitySummary:
    return ActivitySummary(
        activity=_id(rng),
        title=rng.choice(["Fair", "", "Dinner ünicode", "x" * 30]),
        kind=rng.choice(list(ActivityKind)),
        start=rng.randint(0, 2**40),
        end=rng.randint(0, 2**40),
    )


def _notification(rng: random.Random):
    k = rng.randrange(6)
    aid = _id(rng)
    t = rng.randint(0, 2**40)
    ident = _id(rng) if rng.random() < 0.5 else None
    if k == 0:
        return Invitation(_summary(rng))
    if k == 1:
        return SelfArrivalAck(aid, t)
    if k == 2:
        return ArrivalNotice(aid, t, ident)
    if k == 3:
        return GatheringUpdate(aid, rng.randint(1, 500))
    if k == 4:
        return AllArrived(aid, t)
    return TaskDoneNotice(aid, t, ident)


def random_message(rng: random.Random):
    k = rng.randrange(13)
    aid = _id(rng)
    t = rng.randint(0, 2**40)
    if k == 0:
        return Hello(_id(rng))
    if k == 1:
        return RespondInvite(aid, rng.choice(list(InviteAnswer)))
    if k == 2:
        return Arm(aid)
    if k == 3:
        return Disarm(aid)
    if k == 4:
        return Fix(aid, _point(rng), t)
    if k == 5:
        return TaskDone(aid, t)
    if k == 6:
        return Poll(rng.randint(0, 10**6))
    if k == 7:
        return Status(aid)
    if k == 8:
        return Welcome(t)
    if k == 9:
        return Notify(rng.randint(1, 10**6), _notification(rng))
    if k == 10:
        views = tuple(
            ParticipantView(_id(rng), rng.choice(list(ParticipantStatus)), rng.random() < 0.5)
            for _ in range(rng.randrange(5))
        )
        return StatusView(aid, views, rng.randint(0, 50), rng.choice(list(ActivityPhase)))
    if k == 11:
        return Ack(rng.choice(["ARM", "FIX", "POLL", "DISARM"]))
    return Err(rng.choice(["STALE_FIX", "UNKNOWN_ACTIVITY"]), rng.choice(["", "why", "ü"]))
