"""Deterministic scenario harness.

Drives the engine with a virtual clock: no sockets, no wall time, no
global randomness. A scenario file pins a seed, a fix cadence, movement
traces, and scripted actions; running it yields a transcript — every
server-to-participant message in order, with its virtual timestamp.
Equal (scenario, seed) always produce byte-identical transcripts and event
logs, which is what makes golden-file assertions possible. A
``Transcript`` keeps the messages as three parallel lists, so a run holds
no object per message for the collector to walk. The recipients of one
fan-out share its frame, whose line head is encoded once per time step.

``run_scenario`` says what one step of the clock does. Clients are
deliberately dumb: they report raw positions and the server decides
everything. A sender's fix is its trace's position at the step
(``interpolate``, a (lat, lon) pair) with seeded GPS jitter (``perturb``).

A scenario file is read through the schema table, as frames and log records
are (``_SCENARIO`` and the schemas after it); a rule that is not a type is
its value's own (``Scenario``, ``Trace``, ``TimeWindow``, ``Geofence``).
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import repeat
from math import cos, inf, nextafter, radians
from operator import itemgetter
from pathlib import Path

from .activities import (
    Activity,
    ActivityKind,
    ActivityPhase,
    ActivitySpec,
    InviteAnswer,
    PrivacyPolicy,
    TimeWindow,
    phase_at,
)
from .engine import Outbound, ServerState, create_activities, handle
from .errors import Refused, read_utf8
from .eventlog import EventRecord, encode_record
from .geo import M_PER_DEG_LAT, Geofence, GeoPoint
from .ics import parse_ics
from .presence import Alarm
from .schema import (
    COUNT, FLOAT, INT, SIGNED, STR, TEXT, FieldInvalid, Inline, ListOf, Optional, Schema, choice,
)
from .wire import MESSAGES, POINT, Arm, Disarm, Fix, RespondInvite, ServerMessage, TaskDone

_ARMED = Alarm.ARMED  # bound once, for the step loop

# Each scripted verb and the message it sends, built from (activity id, now).
ACTIONS = {
    "ACCEPT": lambda activity_id, now: RespondInvite(activity_id, InviteAnswer.ACCEPT),
    "DECLINE": lambda activity_id, now: RespondInvite(activity_id, InviteAnswer.DECLINE),
    "ARM": lambda activity_id, now: Arm(activity_id),
    "DISARM": lambda activity_id, now: Disarm(activity_id),
    "TASK_DONE": TaskDone,
}


@dataclass(frozen=True, slots=True)
class Trace:
    """Ordered movement waypoints: ((at, point), ...), times strictly increasing."""

    waypoints: tuple[tuple[int, GeoPoint], ...]

    def __post_init__(self):
        if not self.waypoints:
            raise Refused("SCENARIO_INVALID", "trace needs at least one waypoint")
        times = [at for at, _ in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise Refused("SCENARIO_INVALID", "trace waypoint times must be strictly increasing")


def interpolate(trace: Trace, t: int) -> tuple[float, float]:
    """Position (lat, lon) along a trace at time t.

    Clamps to the first/last waypoint outside the trace's span; in between,
    lat and lon are interpolated linearly and independently (fine at
    sub-kilometre scenario scales, and it keeps oracles hand-traceable).
    """
    wps = trace.waypoints
    if t <= wps[0][0]:
        p = wps[0][1]
        return p.lat, p.lon
    if t >= wps[-1][0]:
        p = wps[-1][1]
        return p.lat, p.lon
    i = bisect_right(wps, t, key=itemgetter(0))
    t0, p0 = wps[i - 1]
    t1, p1 = wps[i]
    f = (t - t0) / (t1 - t0)
    return p0.lat + f * (p1.lat - p0.lat), p0.lon + f * (p1.lon - p0.lon)


def perturb(lat: float, lon: float, sigma_m: float, rng: random.Random) -> GeoPoint:
    """The point (lat, lon) with seeded zero-mean Gaussian GPS jitter of sigma_m meters.

    Independent north and east offsets, converted with 1 deg lat =
    ``geo.M_PER_DEG_LAT`` m (R * pi / 180, about 111,195 m) and 1 deg lon =
    that * cos(lat) m, clamped back into valid coordinate ranges.
    """
    north = rng.gauss(0.0, sigma_m)
    east = rng.gauss(0.0, sigma_m)
    scale = cos(radians(lat))
    lat += north / M_PER_DEG_LAT
    lon += east / (M_PER_DEG_LAT * scale) if abs(scale) > 1e-9 else 0.0
    lat = min(90.0, max(-90.0, lat))
    lon = min(180.0, max(nextafter(-180.0, 0.0), lon))
    return GeoPoint(lat, lon)


def next_poll_interval(now: int, activity: Activity) -> int:
    """Adaptive client poll period, in seconds.

    The schedule leans on what is already known about the activity — its
    start time: far-off activities poll lazily, imminent or active ones
    poll fast, ended ones stop. Never increases as the start approaches.
    """
    phase = phase_at(activity, now)
    if phase is ActivityPhase.ENDED:
        return 0
    if phase is ActivityPhase.ACTIVE:
        return 30
    delta = activity.window.start - now
    if delta > 24 * 3600:
        return 21600
    if delta > 3600:
        return 1800
    return 30


# --- scenario definition ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScriptedAction:
    at: int
    verb: str
    activity: str | None = None  # None: every activity the actor belongs to


@dataclass(frozen=True, slots=True)
class ActorScript:
    id: str
    trace: Trace
    actions: tuple[ScriptedAction, ...]


@dataclass(frozen=True, slots=True)
class Calendar:  # activities from the .ics file ``ics``, relative to the scenario's dir
    ics: str
    system_address: str


@dataclass(frozen=True, slots=True)
class Scenario:
    seed: int
    fix_period_s: int
    horizon: int
    noise_sigma_m: float = 0.0
    activities: tuple[ActivitySpec, ...] = ()
    calendar: Calendar | None = None
    actors: tuple[ActorScript, ...] = ()
    base_dir: Path | None = None

    def __post_init__(self):
        if not 0 <= self.noise_sigma_m < inf:  # NaN fails too
            raise Refused(
                "SCENARIO_INVALID", f"noise_sigma_m must be finite and >= 0: {self.noise_sigma_m}"
            )
        ids = [actor.id for actor in self.actors]
        if len(set(ids)) < len(ids):
            twice = next(who for i, who in enumerate(ids) if who in ids[:i])
            raise Refused("SCENARIO_INVALID", f"actor {twice!r} is listed twice")


@dataclass(slots=True)
class TranscriptEntry:
    at: int
    to: str
    msg: ServerMessage


_recipient, _message = itemgetter(0), itemgetter(1)


@dataclass(slots=True)
class Transcript:
    """Every message of a run in order, as parallel columns: no object per message.

    ``len`` counts the messages, and iterating yields one ``TranscriptEntry``
    per message, built as it is read.
    """

    at: list[int] = field(default_factory=list)
    to: list[str] = field(default_factory=list)
    msg: list[ServerMessage] = field(default_factory=list)

    def add(self, at: int, outbound: Outbound) -> None:
        """Append one command's (recipient, message) pairs, all sent at ``at``."""
        self.at.extend(repeat(at, len(outbound)))
        self.to.extend(map(_recipient, outbound))
        self.msg.extend(map(_message, outbound))

    def __len__(self) -> int:
        return len(self.at)

    def __iter__(self) -> Iterator[TranscriptEntry]:
        return map(TranscriptEntry, self.at, self.to, self.msg)


@dataclass(slots=True)
class RunResult:
    transcript: Transcript
    state: ServerState
    records: list[EventRecord]
    activities: list[Activity]
    warnings: list[str]  # the calendar's, as ``syncpoint ingest`` words them

    @property
    def log_lines(self) -> list[str]:
        return [encode_record(r) for r in self.records]


# --- scenario files -----------------------------------------------------------


@dataclass(slots=True)
class _Waypoint:  # a trace row as read; a ``Trace`` keeps it as (at, point)
    at: int
    point: GeoPoint


# A scenario file's one statement: its header, each activity (flat), the
# calendar form of "activities", and an actor's rows zipped onto their keys.
_SCENARIO = Schema(
    Scenario, ("seed", SIGNED), ("fix_period_s", COUNT), ("horizon", INT),
    ("noise_sigma_m", Optional(FLOAT)),
)
_SPEC = Schema(
    ActivitySpec,
    ("title", TEXT),
    ("window", Inline(Schema(TimeWindow, ("start", SIGNED), ("end", SIGNED)))),
    ("fence", Inline(Schema(
        Geofence, ("center", Inline(POINT)), ("radius_m", Optional(FLOAT)),
        ("hysteresis_m", Optional(FLOAT)),
    ))),
    ("organizer", STR),
    ("participants", ListOf(STR)),
    ("kind", Optional(choice(ActivityKind))),
    ("policy", Optional(choice(PrivacyPolicy))),
    ("batch_threshold", Optional(COUNT)),
)
_CALENDAR = Schema(Calendar, ("ics", TEXT), ("system_address", TEXT))
_WAYPOINT = Schema(_Waypoint, ("at", SIGNED), ("point", Inline(POINT)))
_ACTION = Schema(
    ScriptedAction, ("at", SIGNED), ("verb", choice(ACTIONS)), ("activity", Optional(STR)),
)


def _list(value, key: str, item: type) -> list:
    """``value``, which must be a list of objects (``dict``) or of rows (``list``)."""
    if type(value) is not list or not all(type(e) is item for e in value):
        raise FieldInvalid(key, f"expected a list of {'objects' if item is dict else 'lists'}")
    return value


def _rows(value, key: str, keys: tuple[str, ...]) -> Iterator[dict]:
    """Each row of the list ``value`` as an object: its values zipped onto ``keys``."""
    for row in _list(value, key, list):
        if len(row) > len(keys):
            raise FieldInvalid(key, f"a row has at most {len(keys)} values, got {row!r}")
        yield dict(zip(keys, row))


def _actor(a: dict) -> ActorScript:
    """An actor: its id, trace rows [at, lat, lon] and action rows [at, verb(, activity)]."""
    trace = map(_WAYPOINT.decoder, _rows(a["trace"], "trace", ("at", "lat", "lon")))
    actions = _rows(a.get("actions", []), "actions", ("at", "verb", "activity"))
    return ActorScript(
        STR.check(a["id"], "id"), Trace(tuple((w.at, w.point) for w in trace)),
        tuple(map(_ACTION.decoder, actions)),
    )


def scenario_from_dict(d: dict, base_dir: Path | None = None) -> Scenario:
    """The scenario a parsed file states; a value it cannot be is ``SCENARIO_INVALID``."""
    if not isinstance(d, dict):
        raise Refused("SCENARIO_INVALID", "a scenario must be a JSON object")
    try:
        header, activities = _SCENARIO.decoder(d), d.get("activities", [])
        if isinstance(activities, dict):
            calendar, specs = _CALENDAR.decoder(activities), ()
        else:
            calendar, specs = None, tuple(map(_SPEC.decoder, _list(activities, "activities", dict)))
        actors = tuple(map(_actor, _list(d.get("actors", []), "actors", dict)))
        return replace(
            header, activities=specs, calendar=calendar, actors=actors, base_dir=base_dir
        )
    except FieldInvalid as e:
        raise Refused("SCENARIO_INVALID", e.detail) from None
    except KeyError as e:
        raise Refused("SCENARIO_INVALID", f"missing field {e.args[0]!r}") from None


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        d = json.loads(read_utf8(path))
    except ValueError as e:
        raise Refused("SCENARIO_INVALID", f"{path}: not valid JSON: {e}") from None
    return scenario_from_dict(d, base_dir=path.parent)


# --- scenario execution -------------------------------------------------------


def _specs(scenario: Scenario) -> tuple[tuple[ActivitySpec, ...], list[str]]:
    """The scenario's activity specs, and the warnings of the calendar it names, if any."""
    if scenario.calendar is None:
        return scenario.activities, []
    path = (scenario.base_dir or Path()) / scenario.calendar.ics  # an absolute one stays
    result = parse_ics(read_utf8(path), scenario.calendar.system_address)
    return result.drafts, list(result.warnings)


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute a scenario against a fresh in-process engine.

    The virtual clock steps by fix_period_s from 0 to the horizon inclusive.
    Each step runs the scripted actions that have come due (ties ordered by
    participant id, then script order), then sends one noisy fix for each
    armed (actor, activity) pair, by actor id and then the actor's own
    activity order. Only a command for its pair or its sender's arriving fix
    moves an alarm, so the armed pairs are kept in that order and updated
    only then. With none armed, the clock skips to the step of the next
    action, and stops when none is left. So the cost is O(fixes + actions),
    whatever the horizon; a sender armed until the horizon still sends a fix
    every period up to it. Every outbound message is collected with its
    virtual time. Identical (scenario, seed) runs give identical results.
    """
    state, transcript = ServerState(), Transcript()
    specs, warnings = _specs(scenario)
    created, skipped, outbound, all_records = create_activities(state, specs, now=0)
    transcript.add(0, outbound)

    member_of: dict[str, list[str]] = {}
    for act in created:
        for who in act.participants:
            member_of.setdefault(who, []).append(act.id)
    for actor in scenario.actors:
        if actor.id not in member_of:
            raise Refused("SCENARIO_INVALID", f"actor {actor.id!r} appears in no activity")
        for action in actor.actions:
            if action.activity is not None and action.activity not in state.activities:
                raise Refused(
                    "SCENARIO_INVALID",
                    f"action for {actor.id!r} names unknown activity {action.activity!r}",
                )

    # Script entries in execution order: due time, then participant id, then
    # the actor's own script order.
    script = sorted(
        (action.at, actor.id, idx, action)
        for actor in scenario.actors
        for idx, action in enumerate(actor.actions)
    )

    rng = random.Random(scenario.seed)
    sigma, period = scenario.noise_sigma_m, scenario.fix_period_s
    # Each actor's (actor id, activity order, activity id, presence, trace), by
    # (activity id, actor id); ``armed`` holds the armed ones sorted: send order.
    senders = {
        (aid, actor.id): (actor.id, order, aid, state.presence[aid][actor.id], actor.trace)
        for actor in scenario.actors
        for order, aid in enumerate(member_of[actor.id])
    }
    armed: list[tuple] = []

    t = next_action = 0
    while t <= scenario.horizon:
        while next_action < len(script) and script[next_action][0] <= t:
            _, actor_id, _, action = script[next_action]
            next_action += 1
            for aid in [action.activity] if action.activity is not None else member_of[actor_id]:
                outbound, records = handle(state, ACTIONS[action.verb](aid, t), actor_id, t)
                transcript.add(t, outbound)
                all_records.extend(records)
                sender = senders.get((aid, actor_id))
                if sender is not None:  # its alarm may have moved
                    i = bisect_left(armed, sender)
                    listed = i < len(armed) and armed[i] is sender
                    if listed and sender[3].alarm is not _ARMED:
                        del armed[i]
                    elif not listed and sender[3].alarm is _ARMED:
                        armed.insert(i, sender)

        still = []
        for sender in armed:
            actor_id, _, aid, presence, trace = sender
            point = perturb(*interpolate(trace, t), sigma, rng)
            outbound, records = handle(state, Fix(aid, point, t), actor_id, t)
            transcript.add(t, outbound)
            all_records.extend(records)
            if presence.alarm is _ARMED:  # else it has arrived
                still.append(sender)
        armed = still

        t += period
        if not armed:
            if next_action == len(script):
                break
            t = -(-script[next_action][0] // period) * period  # its step, after t

    return RunResult(transcript, state, all_records, created, warnings + skipped)


# --- transcript files ---------------------------------------------------------


# A transcript line is {"at":...,"msg":<the frame's object>,"to":...}.
_ENTRY = Schema(TranscriptEntry, ("at", INT), ("to", STR), ("msg", MESSAGES))


def _lines(transcript: Transcript) -> Iterator[str]:
    """Each message's line, in order.

    A line's head, ``{"at":...,"msg":...,"to":``, is its (time, frame)
    encoded with an empty recipient and cut before that ``""}``. Heads are
    kept by the frame's identity, which the transcript holds, for the
    current time only; each recipient adds only its own id.
    """
    encode, recipient = _ENTRY.encode, STR.encode
    step, heads = None, {}
    for at, to, msg in zip(transcript.at, transcript.to, transcript.msg):
        if at != step:
            step, heads = at, {}
        head = heads.get(id(msg))
        if head is None:
            head = heads[id(msg)] = encode(TranscriptEntry(at, "", msg))[:-3]
        yield head + recipient(to) + "}\n"


def transcript_lines(transcript: Transcript) -> list[str]:
    """Canonical one-line-per-message encoding, newline-terminated lines."""
    return list(_lines(transcript))


def write_transcript(path: str | Path, transcript: Transcript) -> None:
    """The lines of ``transcript_lines``, each written as it is encoded."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_lines(transcript))


def split_lines(text: str) -> list[str]:
    """Split text on ``\\n`` only, keeping each terminator.

    A final line without its newline stays unterminated.
    """
    raw = text.split("\n")
    return [r + "\n" for r in raw[:-1]] + ([raw[-1]] if raw[-1] else [])


def first_divergence(actual: list[str], expected: list[str]) -> int | None:
    """1-based line number of the first differing line, or None if equal."""
    for i, (a, b) in enumerate(zip(actual, expected), start=1):
        if a != b:
            return i
    if len(actual) != len(expected):
        return min(len(actual), len(expected)) + 1
    return None
