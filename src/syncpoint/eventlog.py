"""Append-only event log.

Every server state mutation is mirrored by exactly one record; replaying
the log through the same transition logic reproduces the live state. One
record per line, canonical JSON (same dialect as the wire format), indices
dense from 0. A malformed or out-of-sequence line stops replay with
``CorruptRecord`` naming the index, and ``engine.replay`` hands back the
state before it; a final line without its newline is a ``TornTail``.

``load_log`` is the one reader of a log file, in one streaming pass: it
yields each record as its line is decoded, so a caller folds it at once
and no list of records is held.

``LogWriter`` group-commits: appended records are buffered and written
together, with one write and one flush, at ``commit``. The server commits
once per read, before any reply or push for that read's frames leaves. A
commit is all or nothing: a failed write or flush cuts the file back to
the last commit, keeps the buffer and raises ``LogWriteFailed``.

The schema table below (``_EVENTS``, one entry per record type) is the one
place where each record's fields and order live: a record is its event's
fields beside ``at`` and ``index``, tagged with ``type``. A record is read
by the same checked decoder as a wire frame: a field of the wrong type or
range makes the line a ``CorruptRecord``, as a malformed one does.

The log holds no coordinate but the fence centre of each ``ACTIVITY_CREATED``.
A ``FIX_ACCEPTED`` records the zone its fix was classified into, not the
fix; an ``ARMED`` records who armed. Logs written before that format hold
a fix's ``lat``/``lon`` in place of its ``zone``, and an ``ARMED`` zone
that nothing reads. Such a ``FIX_ACCEPTED`` decodes to a ``PointFix``,
which only ``engine.replay`` reads; nothing writes one.

An ``ACTIVITY_CREATED`` writes its roster as a list of ids: each answer to
the invitation is its own ``INVITE_RESPONDED``. Older logs write each
roster entry as ``{"id": …, "status": "INVITED"}``. That form is read,
as its id, and never written; an entry of it with any other status makes
the line a ``CorruptRecord``.
"""

from __future__ import annotations

import fcntl
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .activities import (
    Activity,
    ActivityKind,
    InviteAnswer,
    ParticipantStatus,
    PrivacyPolicy,
    TimeWindow,
)
from .errors import Refused, SyncError
from .geo import Geofence, GeoPoint, Zone
from .schema import (
    COUNT, FLOAT, INT, STR, TEXT, FieldInvalid, Inline, Kind, ListOf, Nested, Optional, Schema,
    choice, loads_line,
)
from .wire import POINT


class CorruptRecord(SyncError):
    code = "CORRUPT_RECORD"
    state = None  # set by engine.replay: the state of the records before this one

    def __init__(self, index: int, reason: str):
        super().__init__(f"record {index}: {reason}")
        self.index = index
        self.reason = reason


class TornTail(CorruptRecord):
    """The final line lacks its newline: the last write was cut short.

    ``offset`` is where that line starts (in bytes, for a file): the length
    to cut the file back to.
    """

    def __init__(self, index: int, offset: int):
        super().__init__(index, "truncated line (missing newline)")
        self.offset = offset


class LogWriteFailed(SyncError):
    """A commit could not write or flush: the log is cut back to the last commit."""

    code = "LOG_WRITE_FAILED"


@dataclass(slots=True)
class ActivityCreated:
    activity: Activity


@dataclass(slots=True)
class InviteResponded:
    activity: str
    who: str
    answer: InviteAnswer


@dataclass(slots=True)
class ArmSet:
    activity: str
    who: str


@dataclass(slots=True)
class ArmCleared:
    activity: str
    who: str


@dataclass(slots=True)
class FixAccepted:
    activity: str
    who: str
    zone: Zone  # the fix classified against the fence; the point is not kept
    fix_at: int


@dataclass(slots=True)
class PointFix:
    """A ``FIX_ACCEPTED`` of an older log, which held the point, not the zone."""

    activity: str
    who: str
    point: GeoPoint
    fix_at: int


@dataclass(slots=True)
class ArrivalRecorded:
    activity: str
    who: str
    arrived_at: int


@dataclass(slots=True)
class TaskCompleted:
    activity: str
    who: str
    done_at: int


Event = (
    ActivityCreated
    | InviteResponded
    | ArmSet
    | ArmCleared
    | FixAccepted
    | ArrivalRecorded
    | TaskCompleted
)


@dataclass(slots=True)
class EventRecord:
    index: int
    at: int
    event: Event


def _roster_id(v, key: str) -> str:
    """A roster entry of an older log, ``{"id": …, "status": "INVITED"}``, read as its id."""
    if isinstance(v, dict):
        status = v["status"]
        if status != ParticipantStatus.INVITED:
            raise FieldInvalid(key, f"old-form roster status {status!r} is not 'INVITED'")
        v = v["id"]
    return STR.check(v, key)


_ACTIVITY = Schema(
    Activity,
    ("title", TEXT),
    ("window", Nested(Schema(TimeWindow, ("start", INT), ("end", INT)))),
    ("fence", Nested(Schema(
        Geofence, ("center", Nested(POINT)), ("radius_m", FLOAT), ("hysteresis_m", FLOAT),
    ))),
    ("organizer", STR),
    # A roster entry is an id; the older object form is read, never written.
    ("participants", ListOf(Kind(STR.encode, _roster_id, valid=STR.valid))),
    ("kind", choice(ActivityKind)),
    ("policy", choice(PrivacyPolicy)),
    ("batch_threshold", COUNT),
    ("calendar_uid", Optional(STR)),
    ("id", STR),
)

_EVENTS = {
    "ACTIVITY_CREATED": (ActivityCreated, ("activity", Nested(_ACTIVITY))),
    "INVITE_RESPONDED": (
        InviteResponded, ("activity", STR), ("who", STR), ("answer", choice(InviteAnswer)),
    ),
    "ARMED": (ArmSet, ("activity", STR), ("who", STR)),
    "DISARMED": (ArmCleared, ("activity", STR), ("who", STR)),
    "FIX_ACCEPTED": (
        FixAccepted, ("activity", STR), ("who", STR), ("zone", choice(Zone)), ("fix_at", INT),
    ),
    "ARRIVAL_RECORDED": (ArrivalRecorded, ("activity", STR), ("who", STR), ("arrived_at", INT)),
    "TASK_COMPLETED": (TaskCompleted, ("activity", STR), ("who", STR), ("done_at", INT)),
}

# One record schema per event: the event's fields sit beside the record's
# index and time, under the event's type tag.
_RECORDS = {
    cls: Schema(
        EventRecord, ("index", INT), ("at", INT), ("event", Inline(Schema(cls, *fields))),
        tag=("type", tag),
    )
    for tag, (cls, *fields) in _EVENTS.items()
}
_ENCODERS = {cls: s.encode for cls, s in _RECORDS.items()}
_DECODERS = {s.tag[1]: s.decoder for s in _RECORDS.values()}


# The one reader of a point-bearing FIX_ACCEPTED: an older line has the
# fix's lat and lon where a current one has its zone.
_decode_zone_fix = _DECODERS["FIX_ACCEPTED"]
_decode_point_fix = Schema(
    EventRecord, ("index", INT), ("at", INT), ("event", Inline(Schema(
        PointFix, ("activity", STR), ("who", STR), ("point", Inline(POINT)), ("fix_at", INT),
    ))),
).decoder
_DECODERS["FIX_ACCEPTED"] = (
    lambda obj: _decode_zone_fix(obj) if "zone" in obj else _decode_point_fix(obj)
)


def encode_record(record: EventRecord) -> str:
    """One canonical line, newline-terminated."""
    try:
        encode = _ENCODERS[type(record.event)]
    except KeyError:
        raise TypeError(f"not an event: {record.event!r}") from None
    return encode(record) + "\n"


def decode_record(line: str | bytes, expected_index: int) -> EventRecord:
    """Decode one log line (text, or bytes in strict UTF-8), enforcing dense indices."""
    try:
        obj = loads_line(line)
    except ValueError as e:  # UnicodeDecodeError included
        raise CorruptRecord(expected_index, f"not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise CorruptRecord(expected_index, "line is not a JSON object")
    try:
        decode = _DECODERS[obj["type"]]
    except (KeyError, TypeError):
        raise CorruptRecord(expected_index, f"unknown record type {obj.get('type')!r}") from None
    try:
        record = decode(obj)
    except (KeyError, SyncError) as e:  # a missing key, or a field's check
        raise CorruptRecord(expected_index, f"bad record payload: {e}") from None
    if record.index != expected_index:
        raise CorruptRecord(expected_index, f"index {record.index} breaks dense sequence")
    return record


def read_records(lines: Iterable[str] | Iterable[bytes]) -> Iterator[EventRecord]:
    """Decode log lines in order; raises CorruptRecord at the first bad one.

    A final line lacking its newline terminator is a ``TornTail``, corrupt
    too — a torn write must not be silently absorbed.
    """
    index = offset = 0
    for line in lines:
        if not line.endswith(b"\n" if isinstance(line, bytes) else "\n"):
            raise TornTail(index, offset)
        yield decode_record(line, index)
        index += 1
        offset += len(line)


def load_log(path: str | Path) -> Iterator[EventRecord]:
    """Yield the records of a log file as their lines are decoded, reading it once.

    ``CorruptRecord`` at the first bad line. Decoding bytes a line at a time
    makes a write torn inside a multi-byte character a ``TornTail`` too.
    """
    with open(path, "rb") as fh:
        yield from read_records(fh)


class LogWriter:
    """Appends records to a log file, one canonical line each.

    A log has one writer, and this is its one handle on the file, which
    holds an exclusive ``flock`` until ``close`` (``LOG_IN_USE`` while
    another writer has it). ``append`` checks the index and buffers the
    line, ``commit`` writes and flushes the buffered lines together,
    ``close`` commits first, and ``cut`` drops a torn final line.

    The file is unbuffered, so no bytes of a failed commit linger in a
    buffer to reach the file later: the file holds exactly the committed
    records, and the uncommitted ones stay in ``LogWriter`` alone.
    """

    def __init__(self, path: str | Path):
        self.next_index = 0
        self._fh = open(path, "ab", buffering=0)
        try:
            fcntl.flock(self._fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self._fh.close()
            raise Refused("LOG_IN_USE", f"another writer has {path} open") from None
        self._committed = self._fh.seek(0, os.SEEK_END)  # bytes of the committed records
        self._lines: list[str] = []

    def cut(self, offset: int) -> None:
        """Cut the file back to its first ``offset`` bytes, such as a ``TornTail``'s."""
        self._fh.truncate(offset)
        self._committed = offset

    def append(self, record: EventRecord) -> None:
        if record.index != self.next_index:
            raise CorruptRecord(
                self.next_index, f"attempted append with index {record.index}"
            )
        self._lines.append(encode_record(record))
        self.next_index += 1

    def commit(self) -> None:
        """Write and flush the buffered lines, or raise ``LogWriteFailed``.

        On a failed (or short, then failed) write or flush the file is cut
        back to the end of the last commit and the lines stay buffered.
        """
        if not self._lines:
            return
        data = memoryview("".join(self._lines).encode("utf-8"))
        try:
            rest = data
            while rest:  # a write may take only part of the bytes
                rest = rest[self._fh.write(rest):]
            self._fh.flush()
        except OSError as e:
            detail = f"{e}; the log is cut back to its last commit ({self._committed} bytes)"
            try:
                self._fh.truncate(self._committed)
            except OSError as cut:
                detail = f"{e}; cutting the log back to its last commit failed too: {cut}"
            raise LogWriteFailed(detail) from e
        self._committed += len(data)
        self._lines.clear()

    def close(self) -> None:
        try:
            self.commit()
        finally:
            self._fh.close()
