"""Deterministic scenario harness.

Drives the engine with a virtual clock: no sockets, no wall time, no
global randomness. A scenario file pins a seed, a fix cadence, movement
traces, and scripted actions; running it yields a transcript — the ordered
list of every server-to-participant message with its virtual timestamp.
Equal (scenario, seed) always produce byte-identical transcripts and event
logs, which is what makes golden-file assertions possible. The recipients
of one fan-out share its frame, and a shared frame is encoded once.

Each step of the loop executes the scripted actions that have come due
(ties ordered by participant id, then script order), then submits one
noisy fix per armed (actor, activity) pair. Clients are deliberately dumb:
they report raw positions and the server decides everything.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
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
from .engine import AlreadyIngested, ServerState, create_activity, handle
from .errors import SyncError
from .eventlog import EventRecord, encode_record
from .geo import Geofence, GeoPoint
from .ics import parse_ics
from .presence import Alarm
from .schema import INT, STR, Schema
from .wire import MESSAGES, Arm, Disarm, Fix, RespondInvite, ServerMessage, TaskDone

M_PER_DEG_LAT = 111_320.0

# Each scripted verb and the message it sends, built from (activity id, now).
ACTIONS = {
    "ACCEPT": lambda activity_id, now: RespondInvite(activity_id, InviteAnswer.ACCEPT),
    "DECLINE": lambda activity_id, now: RespondInvite(activity_id, InviteAnswer.DECLINE),
    "ARM": lambda activity_id, now: Arm(activity_id),
    "DISARM": lambda activity_id, now: Disarm(activity_id),
    "TASK_DONE": TaskDone,
}


class ScenarioInvalid(SyncError):
    code = "SCENARIO_INVALID"


@dataclass(frozen=True, slots=True)
class Trace:
    """Ordered movement waypoints: ((at, point), ...), times strictly increasing."""

    waypoints: tuple[tuple[int, GeoPoint], ...]

    def __post_init__(self):
        if not self.waypoints:
            raise ScenarioInvalid("trace needs at least one waypoint")
        times = [at for at, _ in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioInvalid("trace waypoint times must be strictly increasing")


def interpolate(trace: Trace, t: int) -> GeoPoint:
    """Position along a trace at time t.

    Clamps to the first/last waypoint outside the trace's span; in between,
    lat and lon are interpolated linearly and independently (fine at
    sub-kilometre scenario scales, and it keeps oracles hand-traceable).
    """
    wps = trace.waypoints
    if t <= wps[0][0]:
        return wps[0][1]
    if t >= wps[-1][0]:
        return wps[-1][1]
    i = bisect_right(wps, t, key=itemgetter(0))
    t0, p0 = wps[i - 1]
    t1, p1 = wps[i]
    f = (t - t0) / (t1 - t0)
    return GeoPoint(p0.lat + f * (p1.lat - p0.lat), p0.lon + f * (p1.lon - p0.lon))


def perturb(point: GeoPoint, sigma_m: float, rng: random.Random) -> GeoPoint:
    """Add seeded zero-mean Gaussian GPS jitter of sigma_m meters.

    Independent north and east offsets, converted with 1 deg lat =
    111,320 m and 1 deg lon = 111,320 * cos(lat) m, clamped back into
    valid coordinate ranges.
    """
    north = rng.gauss(0.0, sigma_m)
    east = rng.gauss(0.0, sigma_m)
    lat = point.lat + north / M_PER_DEG_LAT
    scale = cos(radians(point.lat))
    lon = point.lon + (east / (M_PER_DEG_LAT * scale) if abs(scale) > 1e-9 else 0.0)
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
class Scenario:
    seed: int
    noise_sigma_m: float
    fix_period_s: int
    horizon: int
    activities: tuple[ActivitySpec, ...]
    ics: tuple[str, str] | None  # (.ics path, system address)
    actors: tuple[ActorScript, ...]
    base_dir: Path | None = None


@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    at: int
    to: str
    msg: ServerMessage


@dataclass(slots=True)
class RunResult:
    transcript: list[TranscriptEntry]
    state: ServerState
    records: list[EventRecord]
    activities: list[Activity]
    warnings: list[str]  # the calendar's, as ``syncpoint ingest`` words them

    @property
    def log_lines(self) -> list[str]:
        return [encode_record(r) for r in self.records]


# The optional keys of a scenario activity, each with its conversion.
_STATED = {"kind": ActivityKind, "policy": PrivacyPolicy, "batch_threshold": lambda v: v}


def _spec_from_dict(d: dict) -> ActivitySpec:
    """The activity a scenario describes; only the keys it states are passed."""
    try:
        return ActivitySpec(
            title=d["title"],
            window=TimeWindow(d["start"], d["end"]),
            fence=Geofence(
                GeoPoint(d["lat"], d["lon"]),
                **{k: d[k] for k in ("radius_m", "hysteresis_m") if k in d},
            ),
            organizer=d["organizer"],
            participants=tuple(d["participants"]),
            **{k: convert(d[k]) for k, convert in _STATED.items() if k in d},
        )
    except KeyError as e:
        raise ScenarioInvalid(f"activity spec missing field {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:  # TypeError: an entry that is not an object, say
        raise ScenarioInvalid(f"bad activity spec: {e}") from None


def scenario_from_dict(d: dict, base_dir: Path | None = None) -> Scenario:
    if not isinstance(d, dict):
        raise ScenarioInvalid("a scenario must be a JSON object")
    try:
        seed = d["seed"]
        sigma = d.get("noise_sigma_m", 0.0)
        period = d["fix_period_s"]
        horizon = d["horizon"]
        raw_activities = d.get("activities", [])
        raw_actors = d.get("actors", [])
    except KeyError as e:
        raise ScenarioInvalid(f"scenario missing field {e.args[0]!r}") from None
    # Exact types: JSON true and false load as bool, which isinstance(_, int) accepts.
    if type(period) is not int or period <= 0:
        raise ScenarioInvalid("fix_period_s must be a positive integer")
    if type(seed) is not int:
        raise ScenarioInvalid("seed must be an integer")
    if type(sigma) not in (int, float) or not 0 <= sigma < inf:  # NaN fails too
        raise ScenarioInvalid("noise_sigma_m must be a finite number >= 0")
    if type(horizon) is not int or horizon < 0:
        raise ScenarioInvalid("horizon must be a non-negative integer")

    ics_ref = None
    specs: tuple[ActivitySpec, ...] = ()
    if isinstance(raw_activities, dict):
        try:
            ics_ref = (raw_activities["ics"], raw_activities["system_address"])
        except KeyError as e:
            raise ScenarioInvalid(
                f"ics activities need field {e.args[0]!r}"
            ) from None
        if not all(isinstance(v, str) for v in ics_ref):
            raise ScenarioInvalid("ics and system_address must be strings")
    elif isinstance(raw_activities, list):
        specs = tuple(_spec_from_dict(a) for a in raw_activities)
    else:
        raise ScenarioInvalid("activities must be a list or an ics reference")

    if not isinstance(raw_actors, list):
        raise ScenarioInvalid("actors must be a list")
    actors = []
    for a in raw_actors:
        try:
            actor_id = a["id"]
            waypoints = tuple(
                (int(at), GeoPoint(lat, lon)) for at, lat, lon in a["trace"]
            )
            actions = []
            for entry in a.get("actions", []):
                if len(entry) == 2:
                    at, verb = entry
                    target = None
                elif len(entry) == 3:
                    at, verb, target = entry
                else:
                    raise ScenarioInvalid(f"bad action entry {entry!r}")
                if verb not in ACTIONS:
                    raise ScenarioInvalid(f"unknown action verb {verb!r}")
                actions.append(ScriptedAction(int(at), verb, target))
        except (KeyError, TypeError, ValueError) as e:
            raise ScenarioInvalid(f"bad actor entry: {e}") from None
        actors.append(ActorScript(actor_id, Trace(waypoints), tuple(actions)))

    return Scenario(
        seed=seed,
        noise_sigma_m=float(sigma),
        fix_period_s=period,
        horizon=horizon,
        activities=specs,
        ics=ics_ref,
        actors=tuple(actors),
        base_dir=base_dir,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:
        raise ScenarioInvalid(f"{path}: not valid JSON: {e}") from None
    return scenario_from_dict(d, base_dir=path.parent)


# --- scenario execution -------------------------------------------------------


def _create_activities(scenario: Scenario, state: ServerState):
    """Create all scenario activities at virtual t=0: the activities, pushes, records, warnings."""
    specs, warnings = scenario.activities, []
    if scenario.ics is not None:
        ics_path, system_address = scenario.ics
        path = Path(ics_path)
        if not path.is_absolute() and scenario.base_dir is not None:
            path = scenario.base_dir / path
        result = parse_ics(path.read_text(encoding="utf-8"), system_address)
        specs, warnings = result.drafts + specs, list(result.warnings)
    made = []  # (activity, pushes, records) of each
    for spec in specs:
        try:
            made.append(create_activity(state, spec, now=0))
        except AlreadyIngested as e:  # one activity per calendar event
            warnings.append(f"{e.detail}, skipping")
    return (
        [act for act, _, _ in made],
        [push for _, pushes, _ in made for push in pushes],
        [record for _, _, records in made for record in records],
        warnings,
    )


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute a scenario against a fresh in-process engine.

    The virtual clock advances in fix_period_s steps from 0 to the horizon
    inclusive. Every outbound server message is collected with its virtual
    timestamp. Identical (scenario, seed) runs produce identical results.
    """
    state = ServerState()
    transcript: list[TranscriptEntry] = []
    all_records: list[EventRecord] = []

    created, outbound, records, warnings = _create_activities(scenario, state)
    transcript.extend(TranscriptEntry(0, to, m) for to, m in outbound)
    all_records.extend(records)

    member_of: dict[str, list[str]] = {}
    for act in created:
        for p in act.participants:
            member_of.setdefault(p.id, []).append(act.id)
    for actor in scenario.actors:
        if actor.id not in member_of:
            raise ScenarioInvalid(
                f"actor {actor.id!r} appears in no activity"
            )
        for action in actor.actions:
            if action.activity is not None and action.activity not in state.activities:
                raise ScenarioInvalid(
                    f"action for {actor.id!r} names unknown activity {action.activity!r}"
                )

    # Script entries in execution order: due time, then participant id, then
    # the actor's own script order.
    script = sorted(
        (
            (action.at, actor.id, idx, action)
            for actor in scenario.actors
            for idx, action in enumerate(actor.actions)
        ),
        key=lambda e: (e[0], e[1], e[2]),
    )
    next_action = 0

    rng = random.Random(scenario.seed)
    actors_sorted = sorted(scenario.actors, key=lambda a: a.id)
    traces = {a.id: a.trace for a in scenario.actors}

    t = 0
    while t <= scenario.horizon:
        while next_action < len(script) and script[next_action][0] <= t:
            _, actor_id, _, action = script[next_action]
            next_action += 1
            targets = (
                [action.activity]
                if action.activity is not None
                else member_of[actor_id]
            )
            for aid in targets:
                outbound, records = handle(state, ACTIONS[action.verb](aid, t), actor_id, t)
                transcript.extend(TranscriptEntry(t, to, m) for to, m in outbound)
                all_records.extend(records)

        for actor in actors_sorted:
            for aid in member_of[actor.id]:
                pp = state.presence.get((aid, actor.id))
                if pp is None or pp.alarm is not Alarm.ARMED:
                    continue
                point = perturb(
                    interpolate(traces[actor.id], t), scenario.noise_sigma_m, rng
                )
                outbound, records = handle(state, Fix(aid, point, t), actor.id, t)
                transcript.extend(TranscriptEntry(t, to, m) for to, m in outbound)
                all_records.extend(records)

        t += scenario.fix_period_s

    return RunResult(transcript, state, all_records, created, warnings)


# --- transcript files ---------------------------------------------------------


# A transcript line is {"at":...,"msg":<the frame's object>,"to":...}.
_ENTRY = Schema(TranscriptEntry, ("at", INT), ("to", STR), ("msg", MESSAGES))


def transcript_lines(entries: list[TranscriptEntry]) -> list[str]:
    """Canonical one-line-per-entry encoding, newline-terminated lines."""
    encode = _ENTRY.encode
    return [encode(e) + "\n" for e in entries]


def write_transcript(path: str | Path, entries: list[TranscriptEntry]) -> None:
    """The lines of ``transcript_lines``, each written as it is encoded."""
    encode = _ENTRY.encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(e) + "\n" for e in entries)


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
