"""Ingest activities from iCalendar (.ics) files.

A calendar event becomes an activity, described by an ``ActivitySpec``,
when the synchronisation service's own address appears among the
ATTENDEEs — that is how the service learns it has been enrolled.
Coordinates ride in the standard GEO property; the activity-specific
metadata uses X- extension properties:

    X-SYNC-TYPE     MEETUP | GATHERING | PICKUP | TASK
    X-SYNC-RADIUS   fence radius in meters
    X-SYNC-BATCH    gathering batch threshold
    X-SYNC-PRIVACY  IDENTITY | ANONYMOUS

Only the RFC 5545 subset needed for that job is implemented: line
unfolding, BEGIN/END blocks, property parameters (skipped, quote-aware),
UTC ("...Z") datetimes plus a digits-only epoch-seconds form. Recurrence,
timezones, and writing calendars are out of scope. Whatever the input, the
parser raises nothing but a ``SyncError``: ``NOT_A_CALENDAR`` for text that
is no calendar, and ``EventInvalid`` for an enrolled event with a missing
or unusable value, a title or roster that ``new_activity`` refuses included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone

from .activities import ActivityKind, ActivitySpec, PrivacyPolicy, TimeWindow, check_names
from .errors import Refused, SyncError
from .geo import Geofence, GeoPoint


# The most characters of one calendar value that an error or warning repeats.
ECHO_CHARS = 64


def _cut(value: str) -> str:
    """``value`` as a message repeats it, cut to ``ECHO_CHARS`` characters."""
    return value if len(value) <= ECHO_CHARS else value[:ECHO_CHARS] + "..."


class EventInvalid(SyncError):
    code = "EVENT_INVALID"

    def __init__(self, uid: str, reason: str):
        super().__init__(f"event {_cut(uid)!r}: {reason}")
        self.uid = uid
        self.reason = reason


@dataclass(frozen=True, slots=True)
class ParseResult:
    drafts: tuple[ActivitySpec, ...]  # one per enrolled VEVENT; perfbench reads this name
    skipped: int
    warnings: tuple[str, ...]


_SUPPORTED = {
    "BEGIN", "END", "UID", "SUMMARY", "DTSTART", "DTEND", "GEO",
    "ATTENDEE", "ORGANIZER",
    "X-SYNC-TYPE", "X-SYNC-RADIUS", "X-SYNC-BATCH", "X-SYNC-PRIVACY",
}

# Standard properties we recognise and deliberately ignore, silently.
_IGNORED = {
    "VERSION", "PRODID", "CALSCALE", "METHOD", "DTSTAMP", "SEQUENCE",
    "STATUS", "TRANSP", "CREATED", "LAST-MODIFIED", "LOCATION",
    "DESCRIPTION", "CLASS", "PRIORITY", "URL", "RRULE",
}

# Each X- property that names an enum member by its value, and the spec field it sets.
_LABELS = (("X-SYNC-TYPE", "kind", ActivityKind), ("X-SYNC-PRIVACY", "policy", PrivacyPolicy))


def unfold_lines(text: str) -> list[str]:
    """Undo RFC 5545 line folding.

    A line starting with a single space or tab continues the previous line;
    the leading whitespace character is dropped. Accepts CRLF or LF; lines
    end at ``\\n`` only, so a value may hold U+2028 or a form feed.
    """
    out: list[str] = []
    pieces = text.split("\n")
    if not pieces[-1]:
        pieces.pop()  # the empty piece after the final newline
    for raw in pieces:
        raw = raw.removesuffix("\r")
        if raw[:1] in (" ", "\t") and out:
            out[-1] += raw[1:]
        else:
            out.append(raw)
    return out


def parse_geo(value: str) -> GeoPoint:
    """Parse a GEO property value: "lat;lon" in decimal degrees."""
    parts = value.split(";")
    if len(parts) != 2:
        raise Refused("MALFORMED_GEO", f"expected 'lat;lon', got {_cut(value)!r}")
    try:
        lat, lon = float(parts[0]), float(parts[1])
    except ValueError:
        raise Refused("MALFORMED_GEO", f"non-numeric coordinate in {_cut(value)!r}") from None
    return GeoPoint(lat, lon)


# The name (up to the first ';' or ':' outside quotes), any parameters
# (quoted values may hold ':' and ';'), then the first ':' outside quotes.
# Each part is a run of plain characters, then quoted strings each followed
# by such a run, so a line that does not match fails in linear time.
_PROPERTY = re.compile(r'([^";:]*(?:"[^"]*"[^";:]*)*)(?:;[^":]*(?:"[^"]*"[^":]*)*)?:')


def _split_property(line: str) -> tuple[str, str] | None:
    """Split one content line into (NAME, value), skipping parameters.

    Parameter values may be quoted and contain ':' or ';', so the match is
    quote-aware. Returns None for lines with no ':' outside quotes, an
    unclosed quote included.
    """
    m = _PROPERTY.match(line)
    if m is None:
        return None
    return m[1].strip().upper(), line[m.end():]


def _strip_mailto(value: str) -> str:
    v = value.strip()
    if v.lower().startswith("mailto:"):
        return v[len("mailto:"):]
    return v


def _digits(v: str) -> int | None:
    """The value of a run of ASCII digits, or None for anything else."""
    if not (v.isascii() and v.isdigit()):
        return None
    try:
        return int(v)
    except ValueError:  # more digits than int() converts
        return None


def _parse_dt(value: str, uid: str, prop: str) -> int:
    v = value.strip()
    if (seconds := _digits(v)) is not None:
        return seconds
    try:
        dt = datetime.strptime(v, "%Y%m%dT%H%M%SZ").replace(tzinfo=timezone.utc)
    except ValueError:
        raise EventInvalid(
            uid, f"unsupported {prop} form {_cut(value)!r} (UTC '...Z' or epoch seconds)"
        ) from None
    return int(dt.timestamp())


def parse_ics(text: str, system_address: str) -> ParseResult:
    """The activities an iCalendar stream describes, one spec per event.

    Only VEVENTs listing ``system_address`` among their ATTENDEEs are
    ingested; the rest are counted as skipped. A matching VEVENT missing
    UID, DTSTART, DTEND, or GEO — or carrying an unusable value for a
    supported property, or a title or roster that ``new_activity`` would
    refuse (``activities.check_names``) — raises EventInvalid.

    The organizer leads the roster, attendee addresses are participant ids,
    and the UID is the ``calendar_uid``. Only the properties the event
    states are passed on, so each default stays where it lives.
    """
    if not isinstance(text, str):
        raise Refused("NOT_A_CALENDAR", "input is not text")
    lines = unfold_lines(text)
    if not any(ln.strip().upper() == "BEGIN:VCALENDAR" for ln in lines):
        raise Refused("NOT_A_CALENDAR", "no BEGIN:VCALENDAR wrapper")

    warnings: list[str] = []
    # Each VEVENT: the first value of each property but ATTENDEE, and its attendees.
    events: list[tuple[dict[str, str], list[str]]] = []
    first: dict[str, str] | None = None  # of the VEVENT the scan is in
    for idx, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        prop = _split_property(line)
        if prop is None:
            warnings.append(f"line {idx}: ignored malformed line")
            continue
        name, value = prop
        if name not in _SUPPORTED and name not in _IGNORED:
            warnings.append(f"line {idx}: ignored unknown property {_cut(name)}")
        if name == "BEGIN" and value.strip().upper() == "VEVENT":
            first, attendees = {}, []
        elif name == "END" and value.strip().upper() == "VEVENT":
            if first is not None:
                events.append((first, attendees))
            first = None
        elif first is None:
            continue
        elif name == "ATTENDEE":
            attendees.append(_strip_mailto(value))
        else:
            first.setdefault(name, value)

    system = _strip_mailto(system_address).lower()
    specs: list[ActivitySpec] = []
    skipped = 0
    for first, attendees in events:
        if not any(a.lower() == system for a in attendees):
            skipped += 1
            continue

        uid = first.get("UID", "").strip()
        if not uid:
            raise EventInvalid("?", "missing UID")
        for required in ("DTSTART", "DTEND", "GEO"):
            if required not in first:
                raise EventInvalid(uid, f"missing {required}")

        start = _parse_dt(first["DTSTART"], uid, "DTSTART")
        end = _parse_dt(first["DTEND"], uid, "DTEND")
        try:
            window = TimeWindow(start, end)
        except SyncError as e:
            raise EventInvalid(uid, e.detail) from None
        try:
            center = parse_geo(first["GEO"].strip())
        except SyncError as e:
            raise EventInvalid(uid, f"bad GEO: {e.detail}") from None
        radius = ()
        if "X-SYNC-RADIUS" in first:
            try:
                radius = (float(first["X-SYNC-RADIUS"]),)
            except ValueError:
                raise EventInvalid(uid, "X-SYNC-RADIUS is not a number") from None
        try:
            fence = Geofence(center, *radius)
        except SyncError as e:
            raise EventInvalid(uid, f"bad X-SYNC-RADIUS: {e.detail}") from None

        stated = {}
        for prop, key, enum in _LABELS:
            if prop in first:
                label = first[prop].strip().upper()
                if label not in enum._value2member_map_:
                    raise EventInvalid(uid, f"unknown {prop} {_cut(label)!r}")
                stated[key] = enum._value2member_map_[label]
        if "X-SYNC-BATCH" in first:
            batch = _digits(first["X-SYNC-BATCH"].strip())
            if batch is None or batch < 1:
                raise EventInvalid(uid, "X-SYNC-BATCH must be an integer >= 1")
            stated["batch_threshold"] = batch

        guest_list: list[str] = []
        seen: set[str] = set()
        for a in attendees:
            if a.lower() == system:
                continue
            if a in seen:
                warnings.append(f"event {_cut(uid)}: duplicate attendee {_cut(a)} ignored")
                continue
            seen.add(a)
            guest_list.append(a)

        if "ORGANIZER" in first:
            organizer = _strip_mailto(first["ORGANIZER"])
        elif guest_list:
            organizer = guest_list[0]
            warnings.append(f"event {_cut(uid)}: no ORGANIZER, using first attendee")
        else:
            raise EventInvalid(uid, "no ORGANIZER and no attendees")

        spec = ActivitySpec(
            title=first.get("SUMMARY", "").strip(),
            window=window,
            fence=fence,
            organizer=organizer,
            participants=(organizer, *(a for a in guest_list if a != organizer)),
            calendar_uid=uid,
            **stated,
        )
        try:
            check_names(spec.title, spec.organizer, spec.participants)
        except SyncError as e:
            raise EventInvalid(uid, e.detail) from None
        specs.append(spec)

    return ParseResult(tuple(specs), skipped, tuple(warnings))
