"""Acceptance suite: one test per shipped criterion, run at stated tolerances.

Each test prints one pass line (visible with `pytest -s`); a failed assert
means the criterion is red. Scenario oracles are hand-traced independently
of the simulator: the expected notification skeletons below are written
out from the scenario geometry, not captured from a run.
"""

import json
import math
import random
import time
from pathlib import Path

from codes import raises_code
from genmsg import coordinates, message_fields, random_message

from syncpoint.engine import ServerState, apply, create_activity, handle, replay
from syncpoint.errors import SyncError
from syncpoint.eventlog import ArrivalRecorded, read_records
from syncpoint.geo import GeoPoint, haversine_m
from syncpoint.ics import parse_ics, ParseResult
from syncpoint.activities import ActivityKind, ActivitySpec, InviteAnswer, TimeWindow, new_activity
from syncpoint.geo import Geofence
from syncpoint.presence import Alarm
from syncpoint.geo import EARTH_RADIUS_M, Zone
from syncpoint.sim import (
    M_PER_DEG_LAT,
    load_scenario,
    next_poll_interval,
    run_scenario,
    scenario_from_dict,
    transcript_lines,
)
from syncpoint.wire import Arm, Disarm, Err, Fix, Notify, RespondInvite, Status, decode, encode

REPO = Path(__file__).parents[1]
SCENARIOS = REPO / "scenarios"
GOLDEN = REPO / "golden"
CORPUS = REPO / "data" / "calendar"
SYSTEM = "mailto:sync@syncpoint.example"

FUZZ_SECONDS = 60.0


def notifies(transcript):
    return [
        (e.at, e.to, e.msg.seq, e.msg.notification)
        for e in transcript
        if isinstance(e.msg, Notify)
    ]


def skeleton(transcript):
    """(at, to, kind, identity-ish) rows for comparing against hand traces."""
    rows = []
    for at, to, _seq, n in notifies(transcript):
        fields = dict(at=at, to=to, kind=type(n).__name__)
        fields["identity"] = getattr(n, "identity", None)
        rows.append(tuple(fields.values()))
    return rows


def test_c01_meetup_scenario_matches_hand_traced_golden():
    started = time.perf_counter()
    result = run_scenario(load_scenario(SCENARIOS / "s1_meetup.json"))
    elapsed = time.perf_counter() - started

    # Hand trace: invitations at creation; arrivals exactly at the minutes
    # 55/58/63 waypoints (3300/3480/3780); each arrival fans to the two
    # others with identity; one AllArrived after the third.
    expected = [
        (0, "bruno", "Invitation", None),
        (0, "carla", "Invitation", None),
        (3300, "ana", "SelfArrivalAck", None),
        (3300, "bruno", "ArrivalNotice", "ana"),
        (3300, "carla", "ArrivalNotice", "ana"),
        (3480, "bruno", "SelfArrivalAck", None),
        (3480, "ana", "ArrivalNotice", "bruno"),
        (3480, "carla", "ArrivalNotice", "bruno"),
        (3780, "carla", "SelfArrivalAck", None),
        (3780, "ana", "ArrivalNotice", "carla"),
        (3780, "bruno", "ArrivalNotice", "carla"),
        (3780, "ana", "AllArrived", None),
        (3780, "bruno", "AllArrived", None),
        (3780, "carla", "AllArrived", None),
    ]
    assert skeleton(result.transcript) == expected

    # The regression this scenario guards: arming at the meeting point at
    # t=0 produced no arrival notification of any sort before the returns.
    early = [row for row in skeleton(result.transcript)
             if row[0] < 3300 and row[2] != "Invitation"]
    assert early == []

    golden = (GOLDEN / "s1_meetup.transcript.jsonl").read_text(encoding="utf-8")
    assert "".join(transcript_lines(result.transcript)) == golden

    assert elapsed < 5.0
    print(f"\n[acceptance] C1 meet-up scenario golden match ({elapsed:.2f}s): PASS")


def test_c02_gathering_batches_and_anonymity():
    result = run_scenario(load_scenario(SCENARIOS / "s2_gathering.json"))
    updates = [
        (e.at, e.to, e.msg.notification.count)
        for e in result.transcript
        if isinstance(e.msg, Notify)
        and type(e.msg.notification).__name__ == "GatheringUpdate"
    ]
    counts = sorted({c for _, _, c in updates})
    assert counts == [5, 10]
    guests = [f"g{i:02d}" for i in range(1, 13)]
    for count in (5, 10):
        assert [to for _, to, c in updates if c == count] == guests

    # Automated grep: no participant identifier in any message body (the
    # routing recipient field is excluded by construction).
    participants = guests + ["org-hq"]
    for entry in result.transcript:
        body = json.dumps(message_fields(entry.msg))
        for pid in participants:
            assert f'"{pid}"' not in body, (pid, body)
    print("\n[acceptance] C2 gathering batching + anonymity grep: PASS")


def test_c02_status_answers_obey_anonymity():
    # The grep of C2, extended to the STATUS answer each member gets at
    # every moment of the run: it names no one else. A guest's count is one
    # that guest has already heard; the organizer, who never accepts here,
    # gets the count the guests have heard.
    result = run_scenario(load_scenario(SCENARIOS / "s2_gathering.json"))
    guests = [f"g{i:02d}" for i in range(1, 13)]
    members = guests + ["org-hq"]
    state, answers = ServerState(), 0
    for i, record in enumerate(result.records):
        apply(state, record)
        if i + 1 < len(result.records) and result.records[i + 1].at == record.at:
            continue  # ask once every record of this moment is in
        for asker in members:
            [(_, view)], _ = handle(state, Status("a1"), asker, record.at)
            body = json.dumps(message_fields(view))
            for pid in members:
                assert (f'"{pid}"' in body) == (pid == asker), (pid, body)
            assert [p.id for p in view.participants] == [asker]
            queue = state.queues.get(asker if asker in guests else guests[0], ())
            notes = [frame.notification for frame in queue]
            heard = {0} | {n.count for n in notes if type(n).__name__ == "GatheringUpdate"}
            if any(type(n).__name__ == "AllArrived" for n in notes):
                heard.add(len(state.arrivals["a1"]))
            assert view.arrivals in heard, (asker, record.at, view.arrivals, heard)
            answers += 1
    assert view.arrivals == 12  # everyone has heard that all arrived
    print(f"\n[acceptance] C2 STATUS anonymity over {answers} answers: PASS")


def test_c03_pickup_single_notice_inside_window():
    scenario = load_scenario(SCENARIOS / "s3_pickup.json")
    result = run_scenario(scenario)

    # Independent crossing oracle: first fix-grid instant at which the
    # driver's interpolated position is within 500 m of the rider's home.
    home = GeoPoint(41.551, -8.428)
    start_lon, end_lon = -8.328, -8.428
    crossing = None
    t = 0
    while t <= 3600 and crossing is None:
        if 600 <= t <= 3000:
            f = (t - 600) / 2400
            lon = start_lon + f * (end_lon - start_lon)
        else:
            lon = start_lon if t < 600 else end_lon
        if 1800 <= t and haversine_m(home, GeoPoint(41.551, lon)) <= 500.0:
            crossing = t
        t += 60
    assert crossing == 2880

    rider_notices = [
        (e.at, e.msg.notification)
        for e in result.transcript
        if e.to == "rider"
        and isinstance(e.msg, Notify)
        and type(e.msg.notification).__name__ == "ArrivalNotice"
    ]
    assert len(rider_notices) == 1
    at, notice = rider_notices[0]
    assert at == crossing and notice.identity == "driver"

    start = 1800
    early = [row for row in skeleton(result.transcript)
             if row[0] < start and row[2] != "Invitation"]
    assert early == []  # the trace runs from t=0, yet nothing fires pre-start
    print("\n[acceptance] C3 pickup 500 m crossing + quiet pre-start: PASS")


def test_c04_task_done_notice():
    result = run_scenario(load_scenario(SCENARIOS / "s4_task.json"))
    task_rows = [
        (e.at, e.to, e.msg.notification)
        for e in result.transcript
        if isinstance(e.msg, Notify)
        and type(e.msg.notification).__name__ == "TaskDoneNotice"
    ]
    assert len(task_rows) == 1
    at, to, notice = task_rows[0]
    assert (at, to, notice.identity) == (2400, "dana", "eli")
    print("\n[acceptance] C4 task completion notice: PASS")


def _entry_scenario(seed: int) -> dict:
    center = (41.5454, -8.4265)
    start_lon = center[1] + 400.0 / (M_PER_DEG_LAT * math.cos(math.radians(center[0])))
    return {
        "seed": seed,
        "noise_sigma_m": 8.0,
        "fix_period_s": 30,
        "horizon": 600,
        "activities": [{
            "title": "entry", "kind": "MEETUP", "start": 0, "end": 10_000,
            "lat": center[0], "lon": center[1],
            "radius_m": 100, "hysteresis_m": 25,
            "organizer": "walker", "participants": ["walker", "friend"],
        }],
        "actors": [{
            "id": "walker",
            "trace": [[0, center[0], start_lon], [120, center[0], start_lon],
                      [180, center[0], center[1]], [600, center[0], center[1]]],
            "actions": [[0, "ACCEPT"], [0, "ARM"]],
        }],
    }


def test_c05_hysteresis_no_flap_hundred_seeds():
    ok = 0
    for seed in range(100):
        result = run_scenario(scenario_from_dict(_entry_scenario(seed)))
        arrivals = [r for r in result.records
                    if type(r.event).__name__ == "ArrivalRecorded"]
        if len(arrivals) == 1:
            ok += 1
    assert ok == 100
    print("\n[acceptance] C5 noisy single-entry arrivals 100/100: PASS")


def _presence_fixture():
    """A server state holding one activity that bruno has accepted."""
    state = ServerState()
    act, _, _ = create_activity(state, ActivitySpec(
        title="x", kind=ActivityKind.MEETUP, window=TimeWindow(1000, 5000),
        fence=Geofence(GeoPoint(41.5606, -8.3970), 100.0, 25.0),
        organizer="ana", participants=("ana", "bruno"),
    ), now=0)
    handle(state, RespondInvite(act.id, InviteAnswer.ACCEPT), "bruno", 0)
    return state, act


def _bruno(state, msg, now):
    """One command from bruno through ``engine.handle``: the reply, and the
    arrivals it recorded. An errored command records nothing."""
    outbound, records = handle(state, msg, "bruno", now)
    reply = outbound[0][1]
    assert records == [] or not isinstance(reply, Err)
    return reply, [r.event for r in records if isinstance(r.event, ArrivalRecorded)]


def test_c06_presence_safety_over_randomized_traces():
    rng = random.Random(0x5AFE)
    cases = 10_000
    for case in range(cases):
        state, act = _presence_fixture()
        center = act.fence.center
        steps = []
        for _ in range(rng.randint(1, 25)):
            roll = rng.random()
            if roll < 0.15:
                steps.append(("arm",))
            elif roll < 0.25:
                steps.append(("disarm",))
            else:
                steps.append(("fix", rng.randint(0, 6000), rng.uniform(0, 400)))
        # The server takes each participant's fixes in time order: send the
        # drawn fixes sorted by time, ARM and DISARM where they were drawn.
        fixes = iter(sorted(s for s in steps if s[0] == "fix"))
        now, arrivals = 0, []
        for step in (next(fixes) if s[0] == "fix" else s for s in steps):
            if step[0] == "arm":
                _bruno(state, Arm(act.id), now)
            elif step[0] == "disarm":
                _bruno(state, Disarm(act.id), now)
            else:
                _, now, d = step
                point = GeoPoint(
                    center.lat + math.degrees(d / EARTH_RADIUS_M), center.lon
                )
                in_window = act.window.start <= now < act.window.end
                pp = state.presence[act.id]["bruno"]
                before = (pp.alarm, pp.zone)
                reply, events = _bruno(state, Fix(act.id, point, now), now)
                if isinstance(reply, Err):
                    # A fix at the time of the last accepted one is inert.
                    assert reply.code == "STALE_FIX" and events == []
                assert not events or in_window  # fixes outside Active are inert
                if events:
                    # Arrivals are transition-born, never presence-born.
                    assert before == (Alarm.ARMED, Zone.OUTSIDE)
                arrivals.extend(events)
        assert len(arrivals) <= 1, case

    # Arming while inside: the immediate and following inside fixes are
    # silent; only leaving and re-entering may announce an arrival.
    for case in range(500):
        state, act = _presence_fixture()
        center = act.fence.center
        d_inside = rng.uniform(0, 95)
        point = GeoPoint(center.lat + math.degrees(d_inside / EARTH_RADIUS_M),
                         center.lon)
        _bruno(state, Fix(act.id, point, 1500), 1500)
        assert state.presence[act.id]["bruno"].zone is Zone.INSIDE
        _bruno(state, Arm(act.id), 1500)
        for step in range(5):
            _, events = _bruno(state, Fix(act.id, point, 1501 + step), 1501 + step)
            assert events == [], case
    print(f"\n[acceptance] C6 presence safety over {cases} traces: PASS")


def test_c07_event_sourcing_determinism():
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(path)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.log_lines == second.log_lines, path.name
        assert replay(read_records(first.log_lines)) == first.state, path.name
    print("\n[acceptance] C7 replay equality + byte-identical logs (4 scenarios): PASS")


def _expected_wire_vectors():
    from syncpoint.activities import ActivityPhase, ParticipantStatus
    from syncpoint.notify import (
        ActivitySummary, AllArrived, ArrivalNotice, GatheringUpdate,
        Invitation, SelfArrivalAck, TaskDoneNotice,
    )
    from syncpoint.wire import (
        Ack, Arm, Disarm, Err, Fix, Hello, ParticipantView, Poll,
        RespondInvite, Status, StatusView, TaskDone, Welcome,
    )

    summary = ActivitySummary(
        "a1", "Meet at the fountain", ActivityKind.MEETUP, 3000, 4800
    )
    return [
        Hello("ana"),
        RespondInvite("a1", InviteAnswer.ACCEPT),
        RespondInvite("a1", InviteAnswer.DECLINE),
        Arm("a1"),
        Disarm("a1"),
        Fix("a1", GeoPoint(41.5606, -8.397), 3300),
        TaskDone("a1", 2400),
        Poll(7),
        Status("a1"),
        Welcome(1755000000),
        Notify(1, Invitation(summary)),
        Notify(2, SelfArrivalAck("a1", 3300)),
        Notify(3, ArrivalNotice("a1", 3300, "ana")),
        Notify(4, ArrivalNotice("a1", 3300, None)),
        Notify(5, GatheringUpdate("a1", 5)),
        Notify(6, AllArrived("a1", 3780)),
        Notify(7, TaskDoneNotice("a1", 2400, "eli")),
        Notify(8, TaskDoneNotice("a1", 2400, None)),
        StatusView(
            "a1",
            (
                ParticipantView("ana", ParticipantStatus.ACCEPTED, True),
                ParticipantView("bruno", ParticipantStatus.INVITED, False),
            ),
            1,
            ActivityPhase.ACTIVE,
        ),
        Ack("ARM"),
        Err("STALE_FIX", "fix at 2000 is not after the last fix at 2000"),
    ]


def test_c08_codec_round_trip_and_golden_vectors():
    rng = random.Random(0xC0DEC)
    cases = 10_000
    for _ in range(cases):
        msg = random_message(rng)
        assert decode(encode(msg)) == msg

    text = (GOLDEN / "wire_vectors.jsonl").read_text(encoding="utf-8")
    lines = text.splitlines()
    expected = _expected_wire_vectors()
    assert len(lines) == len(expected)
    for line, msg in zip(lines, expected):
        assert decode(line) == msg
        assert encode(msg) == line + "\n"
    assert "".join(encode(m) for m in expected) == text
    print(f"\n[acceptance] C8 codec {cases} round trips + golden vectors: PASS")


def test_c09_calendar_corpus_and_fuzz():
    from syncpoint.ics import EventInvalid

    # Corpus table: expected drafts / skips / named errors.
    result = parse_ics((CORPUS / "meetup_fair.ics").read_text(), SYSTEM)
    assert (len(result.drafts), result.skipped) == (1, 0)
    assert result.drafts[0].title == "Meet at the fair after shopping"  # folded

    result = parse_ics((CORPUS / "mixed_enrolment.ics").read_text(), SYSTEM)
    assert (len(result.drafts), result.skipped) == (1, 1)

    result = parse_ics((CORPUS / "epoch_times.ics").read_text(), SYSTEM)
    assert (len(result.drafts), result.skipped) == (1, 0)

    for name, needle in (("missing_geo.ics", "GEO"), ("bad_coords.ics", "GEO")):
        try:
            parse_ics((CORPUS / name).read_text(), SYSTEM)
            raise AssertionError(f"{name} should be invalid")
        except EventInvalid as e:
            assert needle in e.reason
    with raises_code("NOT_A_CALENDAR"):
        parse_ics((CORPUS / "no_wrapper.ics").read_text(), SYSTEM)

    # Time-bounded fuzz: nothing but named errors may escape the parser.
    rng = random.Random(0xF022)
    seeds = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.ics"))]
    tokens = [
        "BEGIN:VCALENDAR", "END:VCALENDAR", "BEGIN:VEVENT", "END:VEVENT",
        "UID:u@v", "DTSTART:100", "DTEND:xx", "GEO:1;2", "GEO:999;999",
        f"ATTENDEE:{SYSTEM}", "ORGANIZER:mailto:o@b", "X-SYNC-TYPE:???",
        "X-SYNC-RADIUS:NaN", "X-SYNC-BATCH:-1", " folded", "\tfolded", "::",
    ]
    deadline = time.monotonic() + FUZZ_SECONDS
    iterations = 0
    while time.monotonic() < deadline:
        mode = rng.randrange(3)
        if mode == 0:
            text = "".join(chr(rng.randrange(0, 0x2FF)) for _ in range(rng.randrange(400)))
        elif mode == 1:
            base = list(rng.choice(seeds))
            for _ in range(rng.randrange(1, 40)):
                op = rng.randrange(3)
                pos = rng.randrange(max(1, len(base)))
                if op == 0 and base:
                    del base[pos]
                elif op == 1:
                    base.insert(pos, chr(rng.randrange(0, 0x2FF)))
                elif base:
                    base[pos] = chr(rng.randrange(0, 0x2FF))
            text = "".join(base)
        else:
            text = "\r\n".join(
                rng.choice(tokens) for _ in range(rng.randrange(40))
            ) + "\r\n"
        try:
            outcome = parse_ics(text, SYSTEM)
            assert isinstance(outcome, ParseResult)
        except SyncError:
            pass  # named failure: fine
        iterations += 1
    print(f"\n[acceptance] C9 corpus expectations + {iterations} fuzz inputs in "
          f"{FUZZ_SECONDS:.0f}s without a crash: PASS")


def test_c10_mediator_no_coordinates_leave_the_server():
    for path in sorted(SCENARIOS.glob("*.json")):
        result = run_scenario(load_scenario(path))
        allowed = {
            (a.fence.center.lat, a.fence.center.lon) for a in result.activities
        }
        for entry in result.transcript:
            pairs, floats = coordinates(entry.msg)
            assert set(pairs) <= allowed, (path.name, entry)
            # Stronger structural fact of this wire schema: coordinates are
            # the only floats, and none ride on any outbound message.
            assert floats == [], (path.name, entry)
    print("\n[acceptance] C10 mediator scan over all transcripts: PASS")


def test_c11_poll_scheduler_table_and_monotonicity():
    act = new_activity(ActivitySpec(
        title="x", kind=ActivityKind.MEETUP,
        window=TimeWindow(1_000_000, 1_010_000),
        fence=Geofence(GeoPoint(0, 0), 100.0), organizer="a",
        participants=("a", "b"),
    ), "a1")
    start = act.window.start
    assert next_poll_interval(start - 48 * 3600, act) == 21600
    assert next_poll_interval(start - 12 * 3600, act) == 1800
    assert next_poll_interval(start - 60, act) == 30
    assert next_poll_interval(start + 5, act) == 30
    assert next_poll_interval(act.window.end + 5, act) == 0

    previous = None
    for delta in range(200 * 3600, -1, -137):
        interval = next_poll_interval(start - delta, act)
        if previous is not None:
            assert interval <= previous, delta
        previous = interval
    print("\n[acceptance] C11 poll schedule anchors + monotone sweep: PASS")
