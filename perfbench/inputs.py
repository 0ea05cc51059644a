"""Seeded input generators and the expected results they imply.

Everything here is a pure function of a seed and a size. The program under
test only ever sees the files written from these values: an iCalendar
stream, a scenario JSON file and event-log lines. The expectations (who
arrives where, what a STATUS frame must say) come from the generator's own
model, never from the program.

Log lines and STATUS frames are written with this module's own canonical
JSON (``type`` first, the rest alphabetical, compact separators), which is
the frozen wire and log format; a codec change that altered the format
shows up as a failed check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

SYSTEM_ADDRESS = "sync@bench.example"
LIVE = ("live-a@bench.example", "live-b@bench.example")
GUEST_POOL = 200

# Every generated activity is ACTIVE for any fix timestamp or wall clock the
# benchmark can meet, so phase checks never depend on when a run happens.
WINDOW_START = 1_600_000_000
WINDOW_END = 4_000_000_000
# Record timestamps of the generated history.
HISTORY_AT = 1_700_000_000

FENCE_RADIUS_M = 100.0
FENCE_HYSTERESIS_M = 25.0
OUTSIDE_DLAT = 0.01  # about 1.1 km north of the centre: always outside


def canonical(obj: dict) -> str:
    """The frozen canonical JSON dialect of wire frames and log records."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def frame(type_: str, **fields) -> dict:
    out = {"type": type_}
    for key in sorted(fields):
        out[key] = fields[key]
    return out


def _guest(i: int) -> str:
    return f"guest-{i:03d}@bench.example"


def _centre(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(-60.0, 60.0), 6), round(rng.uniform(-170.0, 170.0), 6)


def inside_point(rng: random.Random, lat: float, lon: float) -> tuple[float, float]:
    return lat + rng.uniform(-1e-4, 1e-4), lon + rng.uniform(-1e-4, 1e-4)


def outside_point(rng: random.Random, lat: float, lon: float) -> tuple[float, float]:
    return lat + OUTSIDE_DLAT + rng.uniform(0.0, 2e-3), lon + rng.uniform(-2e-3, 2e-3)


# --- calendar: many small IDENTITY meetups ------------------------------------


@dataclass
class CalendarEvent:
    activity: str  # the id the server allocates: a1, a2, ... in ingest order
    lat: float
    lon: float
    participants: tuple[str, ...]  # server order: organizer first


@dataclass
class Calendar:
    events: list[CalendarEvent]
    text: str


def make_calendar(seed: int, n_events: int, attendees: int) -> Calendar:
    """``n_events`` MEETUP events of ``attendees`` people, IDENTITY policy.

    Both live clients attend every event at random positions in its
    attendee list; the others come from a pool of offline guests. The first
    attendee organizes.
    """
    rng = random.Random(f"calendar/{seed}")
    lines = ["BEGIN:VCALENDAR", "VERSION:2.0", "PRODID:-//perfbench//EN"]
    events = []
    for e in range(n_events):
        people = [_guest(g) for g in rng.sample(range(GUEST_POOL), attendees - 2)]
        for live in LIVE:
            people.insert(rng.randrange(len(people) + 1), live)
        lat, lon = _centre(rng)
        events.append(CalendarEvent(f"a{e + 1}", lat, lon, tuple(people)))
        lines += [
            "BEGIN:VEVENT",
            f"UID:bench-{seed}-{e}@bench.example",
            f"SUMMARY:Meetup {e}",
            f"DTSTART:{WINDOW_START}",
            f"DTEND:{WINDOW_END}",
            f"GEO:{lat};{lon}",
            "X-SYNC-TYPE:MEETUP",
            f"X-SYNC-RADIUS:{FENCE_RADIUS_M:g}",
            "X-SYNC-PRIVACY:IDENTITY",
            f"ORGANIZER:mailto:{people[0]}",
        ]
        lines += [f"ATTENDEE:mailto:{p}" for p in people]
        lines += [f"ATTENDEE:mailto:{SYSTEM_ADDRESS}", "END:VEVENT"]
    lines.append("END:VCALENDAR")
    return Calendar(events, "\r\n".join(lines) + "\r\n")


# --- history: a long log of fixes for cold recovery ---------------------------


@dataclass
class HistoryActivity:
    activity: str
    participants: list[str]
    status: dict[str, str] = field(default_factory=dict)
    arrived: set[str] = field(default_factory=set)


@dataclass
class History:
    lines: list[str]
    activities: list[HistoryActivity]


def make_history(
    seed: int, first_index: int, first_activity: int, n_activities: int,
    participants: int, n_records: int,
) -> History:
    """About ``n_records`` log records across ``n_activities`` meetups.

    Per activity: creation, every invitee answers (two decline), the
    acceptors other than the live clients arm, then rounds of fixes in
    which three quarters of the armed people cross in once and the rest
    stay away. The live clients accept but stay passive, so they can ask
    for STATUS of any history activity. Mostly FIX_ACCEPTED records.
    """
    rng = random.Random(f"history/{seed}")
    lines: list[str] = []
    acts: list[HistoryActivity] = []
    index = first_index

    def emit(type_: str, **fields) -> None:
        nonlocal index
        lines.append(canonical(frame(type_, at=HISTORY_AT + index, index=index, **fields)) + "\n")
        index += 1

    centres = {}
    movers = []  # (activity, who, crossing round or None)
    for j in range(n_activities):
        aid = f"a{first_activity + j}"
        people = [_guest(g) for g in rng.sample(range(GUEST_POOL), participants - 2)]
        people[1:1] = LIVE
        lat, lon = _centre(rng)
        centres[aid] = (lat, lon)
        act = HistoryActivity(aid, people)
        acts.append(act)
        emit("ACTIVITY_CREATED", activity={
            "batch_threshold": 1,
            "fence": {"center": {"lat": lat, "lon": lon},
                      "hysteresis_m": FENCE_HYSTERESIS_M, "radius_m": FENCE_RADIUS_M},
            "id": aid,
            "kind": "MEETUP",
            "organizer": people[0],
            "participants": [{"id": p, "status": "INVITED"} for p in people],
            "policy": "IDENTITY",
            "title": f"History {j}",
            "window": {"end": WINDOW_END, "start": WINDOW_START},
        })
        decliners = set(rng.sample(people[3:], 2))
        for p in people:
            answer = "DECLINE" if p in decliners else "ACCEPT"
            act.status[p] = "DECLINED" if p in decliners else "ACCEPTED"
            emit("INVITE_RESPONDED", activity=aid, answer=answer, who=p)
        for p in people:
            if p in decliners or p in LIVE:
                continue
            emit("ARMED", activity=aid, who=p, zone="OUTSIDE")
            movers.append([aid, p, None])

    # Each round is one fix per mover; three quarters of the movers also
    # add one arrival record over the whole history.
    rounds = max(2, round((n_records - len(lines)) / len(movers) - 0.75))
    for m in movers:
        if rng.random() < 0.75:
            m[2] = rng.randrange(1, rounds)
    by_id = {a.activity: a for a in acts}
    for r in range(rounds):
        for aid, who, crossing in movers:
            lat, lon = centres[aid]
            fix_at = WINDOW_START + 1 + r
            inside = crossing is not None and r >= crossing
            plat, plon = inside_point(rng, lat, lon) if inside else outside_point(rng, lat, lon)
            # The bulk of the history: written directly in canonical key order.
            lines.append(
                f'{{"type":"FIX_ACCEPTED","activity":"{aid}","at":{HISTORY_AT + index},'
                f'"fix_at":{fix_at},"index":{index},"lat":{plat!r},"lon":{plon!r},'
                f'"who":"{who}"}}\n')
            index += 1
            if crossing == r:
                emit("ARRIVAL_RECORDED", activity=aid, arrived_at=fix_at, who=who)
                by_id[aid].arrived.add(who)
    return History(lines, acts)


def status_frame(activity: str, participants, status, arrived) -> str:
    """The STATUS_VIEW frame the server owes for one activity, as bytes-to-be."""
    return canonical(frame(
        "STATUS_VIEW",
        activity=activity,
        arrivals=len(arrived),
        participants=[
            {"arrived": p in arrived, "id": p, "status": status[p]} for p in participants
        ],
        phase="ACTIVE",
    ))


# --- crowd scenario ------------------------------------------------------------


@dataclass
class Crowd:
    scenario: dict
    expected_arrivals: dict[str, list[str]]  # activity title -> crossers


def make_crowd(seed: int, gathering: int, meetup: int, horizon: int = 3600) -> Crowd:
    """One ANONYMOUS GATHERING (batch 5) and one IDENTITY MEETUP.

    Everyone accepts and arms at t=0, one to three kilometres out. Most walk to the
    centre, arriving at a seeded time in the first quarter hour; one in
    twenty, a seeded choice of people but always the same number, stays
    away and keeps reporting fixes for the whole horizon, so that every
    seed gives about as many fixes.
    Noise (10 m sigma) is far below the 100 m fence, so who arrives is
    known in advance.
    """
    rng = random.Random(f"crowd/{seed}")
    activities, actors = [], []
    expected: dict[str, list[str]] = {}
    for title, kind, policy, size, prefix in (
        ("Crowd gathering", "GATHERING", "ANONYMOUS", gathering, "g"),
        ("Crowd meetup", "MEETUP", "IDENTITY", meetup, "m"),
    ):
        lat, lon = _centre(rng)
        people = [f"{prefix}{i:04d}" for i in range(size)]
        away = set(rng.sample(people, round(size / 20)))
        activities.append({
            "title": title, "kind": kind, "policy": policy,
            "start": 0, "end": 2 * horizon, "lat": lat, "lon": lon,
            "radius_m": FENCE_RADIUS_M, "hysteresis_m": FENCE_HYSTERESIS_M,
            "organizer": people[0], "participants": people,
            **({"batch_threshold": 5} if kind == "GATHERING" else {}),
        })
        expected[title] = []
        for who in people:
            dlat = rng.uniform(0.008, 0.018) * rng.choice((-1, 1))
            dlon = rng.uniform(0.008, 0.018) * rng.choice((-1, 1))
            start = [0, round(lat + dlat, 6), round(lon + dlon, 6)]
            if who in away:
                trace = [start]
            else:
                leave = rng.randrange(1, 600)
                arrive = leave + rng.randrange(60, 300)
                trace = [start, [leave, start[1], start[2]], [arrive, lat, lon]]
                expected[title].append(who)
            actors.append({"id": who, "trace": trace, "actions": [[0, "ACCEPT"], [0, "ARM"]]})
    scenario = {
        "seed": seed, "noise_sigma_m": 10.0, "fix_period_s": 30, "horizon": horizon,
        "activities": activities, "actors": actors,
    }
    return Crowd(scenario, expected)
