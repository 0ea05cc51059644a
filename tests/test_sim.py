"""Simulator: interpolation, noise, poll schedule, scenario runs."""

import hashlib
import json
import math
import random
import statistics
import sys
import time
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from syncpoint.activities import ActivityKind, ActivitySpec, TimeWindow, new_activity
import syncpoint.engine as engine
import syncpoint.sim as sim
from syncpoint.errors import SyncError
from syncpoint.engine import ACK_FIX, Engine, handle, pending, replay, status_view
from syncpoint.eventlog import read_records
from syncpoint.geo import Geofence, GeoPoint
from syncpoint.notify import GatheringUpdate
from syncpoint.sim import (
    _ENTRY,
    M_PER_DEG_LAT,
    Scenario,
    Trace,
    Transcript,
    TranscriptEntry,
    interpolate,
    load_scenario,
    next_poll_interval,
    perturb,
    run_scenario,
    scenario_from_dict,
    transcript_lines,
    write_transcript,
)
from syncpoint.presence import Alarm
from syncpoint.wire import Ack, Err, Fix, Notify, Poll
from codes import raises_code
from mutation import draw_mutant

REPO = Path(__file__).parents[1]
SCENARIOS = REPO / "scenarios"


def trace(*waypoints):
    return Trace(tuple((at, GeoPoint(lat, lon)) for at, lat, lon in waypoints))


class TestTrace:
    def test_needs_a_waypoint(self):
        with raises_code("SCENARIO_INVALID"):
            Trace(())

    def test_times_strictly_increasing(self):
        with raises_code("SCENARIO_INVALID"):
            trace((0, 0, 0), (0, 0, 1))


class TestInterpolate:
    tr = trace((0, 0, 0), (100, 0, 2))

    def test_linear_midpoint(self):
        assert interpolate(self.tr, 50) == (0, 1)

    def test_clamps_before_start(self):
        assert interpolate(self.tr, -5) == (0, 0)

    def test_clamps_after_end(self):
        assert interpolate(self.tr, 200) == (0, 2)

    def test_multi_segment(self):
        tr = trace((0, 0, 0), (10, 0, 1), (30, 10, 1))
        assert interpolate(tr, 20) == (5, 1)

    def test_matches_the_list_formula_on_a_long_trace(self):
        rng = random.Random(17)
        at, waypoints = 0, []
        for _ in range(400):
            at += rng.randint(1, 90)
            waypoints.append((at, GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))))
        times = [t for t, _ in waypoints]

        def reference(t):  # the formula that built a list of times on every call
            if t <= times[0]:
                p = waypoints[0][1]
                return p.lat, p.lon
            if t >= times[-1]:
                p = waypoints[-1][1]
                return p.lat, p.lon
            i = bisect_right(times, t)
            (t0, p0), (t1, p1) = waypoints[i - 1], waypoints[i]
            f = (t - t0) / (t1 - t0)
            return p0.lat + f * (p1.lat - p0.lat), p0.lon + f * (p1.lon - p0.lon)

        tr = Trace(tuple(waypoints))
        for t in range(-10, at + 10):
            assert interpolate(tr, t) == reference(t), t


class TestPerturb:
    def test_zero_sigma_is_identity(self):
        p = GeoPoint(41.5606, -8.397)
        assert perturb(p.lat, p.lon, 0.0, random.Random(1)) == p

    def test_same_seed_same_outputs(self):
        p = GeoPoint(41.5606, -8.397)
        a = [perturb(p.lat, p.lon, 10.0, random.Random(42)) for _ in range(1)]
        b = [perturb(p.lat, p.lon, 10.0, random.Random(42)) for _ in range(1)]
        r1, r2 = random.Random(9), random.Random(9)
        seq1 = [perturb(p.lat, p.lon, 10.0, r1) for _ in range(50)]
        seq2 = [perturb(p.lat, p.lon, 10.0, r2) for _ in range(50)]
        assert a == b and seq1 == seq2

    def test_northing_std_matches_sigma(self):
        rng = random.Random(2026)
        p = GeoPoint(10.0, 20.0)
        samples = [
            (perturb(p.lat, p.lon, 10.0, rng).lat - p.lat) * M_PER_DEG_LAT for _ in range(10_000)
        ]
        assert statistics.pstdev(samples) == pytest.approx(10.0, abs=0.5)
        assert statistics.mean(samples) == pytest.approx(0.0, abs=0.5)

    def test_offsets_scale_with_latitude(self):
        import math

        rng = random.Random(5)
        p = GeoPoint(60.0, 0.0)  # cos(60) = 0.5: one lon degree is half-size
        east = [
            (perturb(p.lat, p.lon, 10.0, rng).lon - p.lon)
            * M_PER_DEG_LAT
            * math.cos(math.radians(p.lat))
            for _ in range(5_000)
        ]
        assert statistics.pstdev(east) == pytest.approx(10.0, abs=0.6)
        assert statistics.mean(east) == pytest.approx(0.0, abs=0.6)

    def test_clamped_to_valid_ranges(self):
        rng = random.Random(3)
        for _ in range(200):
            q = perturb(89.99999, 179.99999, 50.0, rng)
            assert -90 <= q.lat <= 90 and -180 < q.lon <= 180
            q = perturb(-89.99999, -179.99999, 50.0, rng)
            assert -90 <= q.lat <= 90 and -180 < q.lon <= 180


class TestPollSchedule:
    def make(self, start=100_000, end=200_000):
        return new_activity(ActivitySpec(
            title="x", kind=ActivityKind.MEETUP, window=TimeWindow(start, end),
            fence=Geofence(GeoPoint(0, 0), 100.0), organizer="a",
            participants=("a", "b"),
        ), "a1")

    def test_anchor_points(self):
        act = self.make()
        assert next_poll_interval(act.window.start - 48 * 3600, act) == 21600
        assert next_poll_interval(act.window.start - 12 * 3600, act) == 1800
        assert next_poll_interval(act.window.start - 1800, act) == 30
        assert next_poll_interval(act.window.start + 1, act) == 30  # Active
        assert next_poll_interval(act.window.end, act) == 0  # Ended

    def test_boundaries(self):
        act = self.make()
        start = act.window.start
        assert next_poll_interval(start - 24 * 3600 - 1, act) == 21600
        assert next_poll_interval(start - 24 * 3600, act) == 1800
        assert next_poll_interval(start - 3601, act) == 1800
        assert next_poll_interval(start - 3600, act) == 30

    def test_monotone_as_start_approaches(self):
        act = self.make(start=1_000_000, end=2_000_000)
        previous = None
        for now in range(0, 2_100_000, 900):
            interval = next_poll_interval(now, act)
            if previous is not None:
                assert interval <= previous
            previous = interval


class TestScenarioLoading:
    def test_bad_verb(self):
        with raises_code("SCENARIO_INVALID"):
            scenario_from_dict(
                {
                    "seed": 1, "fix_period_s": 30, "horizon": 100,
                    "activities": [],
                    "actors": [{"id": "a", "trace": [[0, 1.0, 1.0]],
                                "actions": [[0, "DANCE"]]}],
                }
            )

    def test_missing_field(self):
        with raises_code("SCENARIO_INVALID"):
            scenario_from_dict({"seed": 1, "horizon": 100})

    @pytest.mark.parametrize("field, code", [
        ({"radius_m": -5}, "FENCE_INVALID"),
        ({"hysteresis_m": -1}, "FENCE_INVALID"),
        ({"end": 10}, "WINDOW_INVALID"),
        ({"kind": "PARADE"}, "SCENARIO_INVALID"),
        ({"radius_m": math.inf}, "FENCE_INVALID"),
        ({"hysteresis_m": math.nan}, "FENCE_INVALID"),
        ({"radius_m": 10**400}, "SCENARIO_INVALID"),  # too large for a float
        ({"lat": -(10**400)}, "SCENARIO_INVALID"),
        ({"lat": 999.0}, "SCENARIO_INVALID"),
    ])
    def test_a_bad_activity_field_fails_at_load(self, field, code):
        activity = {
            "title": "x", "start": 10, "end": 20, "lat": 1.0, "lon": 1.0,
            "organizer": "a", "participants": ["a", "b"], **field,
        }
        with raises_code(code):
            scenario_from_dict(
                {"seed": 1, "fix_period_s": 60, "horizon": 100, "activities": [activity]}
            )

    @pytest.mark.parametrize("field", [
        {"noise_sigma_m": "x"}, {"noise_sigma_m": None}, {"noise_sigma_m": math.nan},
        {"noise_sigma_m": math.inf}, {"noise_sigma_m": -1.0}, {"seed": [1]},
        {"activities": [["x", 10, 20]]}, {"activities": ["x"]}, {"actors": 5},
        {"activities": {"ics": 5, "system_address": "mailto:sync@syncpoint.example"}},
    ])
    def test_a_malformed_value_is_scenario_invalid(self, field):
        scenario = json.loads((SCENARIOS / "s1_meetup.json").read_text(encoding="utf-8"))
        with raises_code("SCENARIO_INVALID"):
            scenario_from_dict({**scenario, **field})

    @pytest.mark.parametrize("field", ["seed", "noise_sigma_m", "fix_period_s", "horizon"])
    def test_a_boolean_is_not_a_number(self, field):
        # JSON true loads as bool, which is an int to isinstance.
        scenario = json.loads((SCENARIOS / "s1_meetup.json").read_text(encoding="utf-8"))
        with raises_code("SCENARIO_INVALID") as e:
            scenario_from_dict({**scenario, field: True})
        assert field in e.value.detail

    def test_actor_must_belong_to_an_activity(self):
        sc = scenario_from_dict(
            {
                "seed": 1, "fix_period_s": 30, "horizon": 100,
                "activities": [],
                "actors": [{"id": "ghost", "trace": [[0, 1.0, 1.0]], "actions": []}],
            }
        )
        with raises_code("SCENARIO_INVALID"):
            run_scenario(sc)

    def test_action_target_must_exist(self):
        sc = scenario_from_dict(
            {
                "seed": 1, "fix_period_s": 60, "horizon": 100,
                "activities": [{
                    "title": "x", "kind": "MEETUP", "start": 10, "end": 20,
                    "lat": 1.0, "lon": 1.0, "organizer": "a",
                    "participants": ["a", "b"],
                }],
                "actors": [{"id": "a", "trace": [[0, 1.0, 1.0]],
                            "actions": [[0, "ACCEPT", "a99"]]}],
            }
        )
        with raises_code("SCENARIO_INVALID"):
            run_scenario(sc)

    def test_all_shipped_scenarios_load(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            sc = load_scenario(path)
            assert isinstance(sc, Scenario)


def benchmark_crowd(gathering: int, meetup: int) -> dict:
    """The benchmark's crowd scenario (seed 5) of the given sizes."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        from inputs import make_crowd
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return make_crowd(5, gathering, meetup).scenario


class TestRunScenario:
    def test_empty_scenario_empty_transcript(self):
        sc = scenario_from_dict(
            {"seed": 1, "fix_period_s": 30, "horizon": 300,
             "activities": [], "actors": []}
        )
        result = run_scenario(sc)
        assert len(result.transcript) == 0
        assert list(result.transcript) == []
        assert result.records == []

    def test_same_seed_byte_identical(self):
        sc = load_scenario(SCENARIOS / "s1_meetup.json")
        a, b = run_scenario(sc), run_scenario(sc)
        assert transcript_lines(a.transcript) == transcript_lines(b.transcript)
        assert a.log_lines == b.log_lines

    def test_different_seed_differs(self):
        # The seed drives the noise. The log keeps the zone of each fix, not
        # its point, so noise shows there once it reaches past the fence's
        # hysteresis band and flips zones.
        base = dict(json.loads((SCENARIOS / "s1_meetup.json").read_text()), noise_sigma_m=60.0)
        other = dict(base, seed=base["seed"] + 1)
        a = run_scenario(scenario_from_dict(base))
        b = run_scenario(scenario_from_dict(other))
        assert a.log_lines != b.log_lines

    def test_transcript_ordering_and_gapless_sequences(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            result = run_scenario(load_scenario(path))
            times = [e.at for e in result.transcript]
            assert times == sorted(times), path.name
            per_recipient: dict[str, int] = {}
            for e in result.transcript:
                if isinstance(e.msg, Notify):
                    expected = per_recipient.get(e.to, 0) + 1
                    assert e.msg.seq == expected, (path.name, e)
                    per_recipient[e.to] = expected

    def test_replay_matches_live_for_all_scenarios(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            result = run_scenario(load_scenario(path))
            assert replay(read_records(result.log_lines)) == result.state, path.name

    def test_the_benchmark_crowd_log_reads_back_checked(self):
        result = run_scenario(scenario_from_dict(benchmark_crowd(1000, 150)))
        records = list(read_records(result.log_lines))
        assert records == result.records
        state = replay(records)
        assert state == result.state
        # A STATUS reads each participant's alarm; it agrees with the arrivals.
        for act in state.activities.values():
            view = status_view(state, act.id, 0)
            arrived = set(state.arrivals[act.id])
            assert 0 < len(arrived) < len(act.participants), act.id
            assert [(p.id, p.arrived) for p in view.participants] == [
                (who, who in arrived) for who in act.participants
            ]
            assert view.arrivals == len(arrived)

    def test_scenario_from_ics_reference(self, tmp_path):
        sc_dict = {
            "seed": 5, "noise_sigma_m": 2.0, "fix_period_s": 30, "horizon": 700,
            "activities": {"ics": str(REPO / "data" / "calendar" / "epoch_times.ics"),
                           "system_address": "mailto:sync@syncpoint.example"},
            "actors": [
                {"id": "g1@example.org",
                 "trace": [[0, 41.5454, -8.4165], [600, 41.5454, -8.4165],
                           [660, 41.5454, -8.4265], [700, 41.5454, -8.4265]],
                 "actions": [[0, "ACCEPT"], [0, "ARM"]]},
                {"id": "g2@example.org",
                 "trace": [[0, 41.5454, -8.4165]],
                 "actions": [[0, "ACCEPT"]]},
            ],
        }
        result = run_scenario(scenario_from_dict(sc_dict))
        act = result.activities[0]
        assert act.calendar_uid == "epoch-gathering-3@example.org"
        assert act.kind is ActivityKind.GATHERING
        # One clean entry: exactly one arrival in the record stream.
        arrivals = [r for r in result.records
                    if type(r.event).__name__ == "ArrivalRecorded"]
        assert len(arrivals) == 1 and arrivals[0].event.who == "g1@example.org"


    def test_one_activity_per_calendar_uid(self, tmp_path):
        system = "mailto:sync@syncpoint.example"
        event = (
            "BEGIN:VEVENT\r\nUID:u1\r\nDTSTART:100\r\nDTEND:200\r\n"
            "GEO:1.0;1.0\r\nORGANIZER:mailto:ana@x\r\nATTENDEE:mailto:ana@x\r\n"
            f"ATTENDEE:mailto:bruno@x\r\nATTENDEE:{system}\r\nEND:VEVENT\r\n"
        )
        ics = tmp_path / "twice.ics"
        ics.write_text(f"BEGIN:VCALENDAR\r\n{event}{event}END:VCALENDAR\r\n")
        result = run_scenario(scenario_from_dict({
            "seed": 1, "fix_period_s": 30, "horizon": 300,
            "activities": {"ics": str(ics), "system_address": system}, "actors": [],
        }))
        assert [(a.id, a.calendar_uid) for a in result.activities] == [("a1", "u1")]
        assert list(result.state.activities) == ["a1"]
        assert result.warnings == ["event u1 already ingested, skipping"]


def generated_crowd(seed: int, gathering: int, meetup: int, horizon: int = 1800) -> dict:
    """An anonymous gathering and an identity meetup; everyone accepts and
    arms at t=0 one to two kilometres out, and all but one in twenty walk
    to the centre."""
    rng = random.Random(seed)
    activities, actors = [], []
    for title, kind, policy, size, prefix in (
        ('Crowd "gathering" \\ ü 家', "GATHERING", "ANONYMOUS", gathering, "g"),
        ("Crowd meetup \U0001F600", "MEETUP", "IDENTITY", meetup, "mé"),
    ):
        lat, lon = 41.0 + rng.random(), -8.0 - rng.random()
        people = [f"{prefix}{i:03d}" for i in range(size)]
        activities.append({
            "title": title, "kind": kind, "policy": policy, "start": 0, "end": 2 * horizon,
            "lat": lat, "lon": lon, "organizer": people[0], "participants": people,
        })
        for i, who in enumerate(people):
            start = [0, round(lat + rng.uniform(0.008, 0.018) * rng.choice((-1, 1)), 6),
                     round(lon + rng.uniform(0.008, 0.018) * rng.choice((-1, 1)), 6)]
            leave = rng.randrange(1, 600)
            arrive = leave + rng.randrange(60, 300)
            trace = [start] if i % 20 == 19 else [start, [leave, *start[1:]], [arrive, lat, lon]]
            actors.append({"id": who, "trace": trace, "actions": [[0, "ACCEPT"], [0, "ARM"]]})
    return {"seed": seed, "noise_sigma_m": 10.0, "fix_period_s": 30, "horizon": horizon,
            "activities": activities, "actors": actors}


# One gathering update reaches queues of two depths, so its frames alternate
# between two seqs; the last frame equals the one before it but is not it.
_UPDATE = GatheringUpdate("a1", 10)
FRAMES = (ACK_FIX, Notify(4, _UPDATE), Notify(5, _UPDATE), Err("NOT_ACCEPTED", "zoë ≠ 🙂"),
          Notify(5, GatheringUpdate("a1", 10)))
RECIPIENTS = st.sampled_from(["ana", "zoë", "日本", 'q"\\', "\u2028\x00"]) | st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
# Each step: its time and its messages as (recipient, index into FRAMES); maybe none.
STEPS = st.lists(st.tuples(
    st.integers(0, 3),
    st.lists(st.tuples(RECIPIENTS, st.integers(0, len(FRAMES) - 1)), max_size=6),
), max_size=8)


class TestTranscript:
    """A ``Transcript`` keeps columns and encodes each (time, frame) head once;
    every line must still be the ``_ENTRY`` encoding of its own entry."""

    @given(STEPS)
    @example([(1, [("ana", 0)]), (2, [("ana", 0)])])  # one frame object at two times
    @example([(1, [("ana", 1), ("bo", 2), ("zoë", 1), ("日本", 2)]), (1, []), (3, [("bo", 2)])])
    @example([(2, [("ana", 2), ("bo", 4), ("ana", 4)]), (0, [("ana", 2)])])
    def test_lines_are_the_entries_encoded_one_by_one(self, steps):
        transcript, entries = Transcript(), []
        for at, messages in steps:
            outbound = [(to, FRAMES[i]) for to, i in messages]
            transcript.add(at, outbound)
            entries += [TranscriptEntry(at, to, m) for to, m in outbound]
        assert len(transcript) == len(entries)
        assert list(transcript) == entries
        assert all(got.msg is want.msg for got, want in zip(transcript, entries))
        assert transcript_lines(transcript) == [_ENTRY.encode(e) + "\n" for e in entries]

    @pytest.mark.parametrize("source", [
        *sorted(p.name for p in SCENARIOS.glob("*.json")), "make_crowd(5, 150, 50)",
    ])
    def test_a_run_keeps_the_entries_its_commands_sent(self, source, tmp_path, monkeypatch):
        # What each engine call hands back, at its time: the entries the
        # transcript used to be built from, one object per message.
        sent = []

        def spy(fn, at):
            def call(*args, **kwargs):
                made = fn(*args, **kwargs)  # (..., outbound, records)
                sent.extend(TranscriptEntry(at(args, kwargs), to, m) for to, m in made[-2])
                return made
            return call
        monkeypatch.setattr(sim, "handle", spy(sim.handle, lambda a, kw: a[3]))
        monkeypatch.setattr(sim, "create_activity", spy(sim.create_activity, lambda a, kw: kw["now"]))
        if source.endswith(".json"):
            scenario = load_scenario(SCENARIOS / source)
        else:
            scenario = scenario_from_dict(benchmark_crowd(150, 50))
        transcript = run_scenario(scenario).transcript
        assert len(sent) > 0
        assert list(transcript) == sent
        assert all(got.msg is want.msg for got, want in zip(transcript, sent))
        lines = transcript_lines(transcript)
        assert lines == [_ENTRY.encode(e) + "\n" for e in sent]
        assert len(transcript) == len(lines)
        write_transcript(tmp_path / "out.jsonl", transcript)
        assert (tmp_path / "out.jsonl").read_bytes() == "".join(lines).encode("utf-8")



class TestByteIdentity:
    # SHA-256 of the transcript lines and of the log lines of the crowd below.
    # The transcript's was pinned from the encoder that built it with
    # ``json.JSONEncoder``; the log's from the coordinate-free log format with
    # each roster a list of ids, each of whose lines equals the standard
    # library's canonical encoding. Only the two ACTIVITY_CREATED lines differ
    # from the format before it, whose roster entries were
    # {"id": …, "status": "INVITED"} objects.
    PINNED_TRANSCRIPT = "c6a27d01f6e797eb38e0afa4c8773509d9c142bcccb781ba738b7ac5b3b7ac8d"
    PINNED_LOG = "31f4190f648d0af102245ee41471b8fdd1ca25c766dbad002997a61f8af1cf85"

    def test_generated_crowd_transcript_and_log(self):
        result = run_scenario(scenario_from_dict(generated_crowd(2024, 60, 20)))
        transcript, log = transcript_lines(result.transcript), result.log_lines
        assert (len(transcript), len(log)) == (2972, 1875)
        for lines, pinned in ((transcript, self.PINNED_TRANSCRIPT), (log, self.PINNED_LOG)):
            digest = hashlib.sha256()
            for line in lines:
                digest.update(line.encode("utf-8"))
            assert digest.hexdigest() == pinned
        # Sequence numbers are dense from 1 in every queue, live and replayed:
        # each queued frame's seq is its position, and a poll from cursor 0
        # returns the whole queue.
        for state in (result.state, replay(result.records)):
            for recipient, queue in state.queues.items():
                assert [m.seq for m in queue] == list(range(1, len(queue) + 1)), recipient
                assert pending(state, recipient, 0) == (queue, len(queue)), recipient


class TestSharedFrames:
    def test_a_fanout_builds_one_frame_per_notification_and_seq(self, monkeypatch):
        fanouts = []
        record = engine._record

        def spy(state, now, event):
            made = record(state, now, event)
            fanouts.append(made[1])
            return made
        monkeypatch.setattr(engine, "_record", spy)
        result = run_scenario(scenario_from_dict(generated_crowd(2024, 60, 20)))
        monkeypatch.undo()
        shared = 0
        for pushes in fanouts:
            frames = {id(frame) for _, frame in pushes}
            assert len(frames) <= len({(m.notification, m.seq) for _, m in pushes}), pushes
            shared += len(pushes) - len(frames)
        assert shared > 1000  # the crowd's pushes do share frames
        pushed = [e.msg for e in result.transcript if isinstance(e.msg, Notify)]
        assert len(pushed) == sum(map(len, fanouts))
        digest = hashlib.sha256("".join(transcript_lines(result.transcript)).encode("utf-8"))
        assert digest.hexdigest() == TestByteIdentity.PINNED_TRANSCRIPT


class TestRestartQueues:
    def test_replay_queues_what_was_pushed_and_a_restart_polls_it(self, tmp_path):
        result = run_scenario(scenario_from_dict(generated_crowd(2024, 60, 20)))
        pushed: dict[str, list[Notify]] = {}
        for e in result.transcript:  # the crowd never polls: every Notify is a push
            if isinstance(e.msg, Notify):
                pushed.setdefault(e.to, []).append(e.msg)
        assert sum(map(len, pushed.values())) > 1000

        replayed = replay(read_records(result.log_lines))
        assert replayed.queues == pushed  # each recipient's frames, in push order

        log = tmp_path / "events.log"
        log.write_text("".join(result.log_lines), encoding="utf-8")
        restarted = Engine(log_path=log)
        restarted.close()
        assert restarted.state == result.state
        assert sorted(restarted.state.queues) == sorted(pushed)
        for who, frames in pushed.items():
            assert pending(restarted.state, who, 0) == (frames, len(frames)), who
            assert pending(result.state, who, 0) == (frames, len(frames)), who

    def test_a_catch_up_poll_hands_out_the_pushed_frames_and_builds_none(self, monkeypatch):
        result = run_scenario(scenario_from_dict(generated_crowd(2024, 60, 20)))
        pushed: dict[str, list[Notify]] = {}
        for e in result.transcript:
            if isinstance(e.msg, Notify):
                pushed.setdefault(e.to, []).append(e.msg)
        built = []
        monkeypatch.setattr(engine, "Notify", lambda *args: built.append(args) or Notify(*args))
        polls = 0
        for who, frames in pushed.items():
            for cursor in range(len(frames) + 1):
                outbound, records = handle(result.state, Poll(cursor), who, 0)
                assert records == [] and outbound[-1] == (who, Ack("POLL"))
                got = [m for _, m in outbound[:-1]]
                assert len(got) == len(frames) - cursor, (who, cursor)
                assert all(m is f for m, f in zip(got, frames[cursor:])), (who, cursor)
                polls += 1
        assert polls > 1000 and built == []


def reference_run(scenario: Scenario) -> tuple[Transcript, list]:
    """``run_scenario``'s clock as first written: every step up to the horizon,
    and on each one a visit to every (actor, activity) pair to find the armed
    ones, with the point built by ``interpolate`` and then ``perturb``."""
    state, transcript, records = engine.ServerState(), Transcript(), []
    created, outbound, made, _ = sim._create_activities(scenario, state)
    transcript.add(0, outbound)
    records += made
    member_of: dict[str, list[str]] = {}
    for act in created:
        for who in act.participants:
            member_of.setdefault(who, []).append(act.id)
    script = sorted(
        ((action.at, actor.id, i, action)
         for actor in scenario.actors for i, action in enumerate(actor.actions)),
        key=lambda e: e[:3],
    )
    rng, t, n = random.Random(scenario.seed), 0, 0
    while t <= scenario.horizon:
        while n < len(script) and script[n][0] <= t:
            _, who, _, action = script[n]
            n += 1
            for aid in [action.activity] if action.activity is not None else member_of[who]:
                out, new = handle(state, sim.ACTIONS[action.verb](aid, t), who, t)
                transcript.add(t, out)
                records += new
        for actor in sorted(scenario.actors, key=lambda a: a.id):
            for aid in member_of[actor.id]:
                if state.presence[aid][actor.id].alarm is Alarm.ARMED:
                    point = perturb(*interpolate(actor.trace, t), scenario.noise_sigma_m, rng)
                    out, new = handle(state, Fix(aid, point, t), actor.id, t)
                    transcript.add(t, out)
                    records += new
        t += scenario.fix_period_s
    return transcript, records


def two_activities(actions: dict[str, list], period: int = 60, horizon: int = 10**6,
                   seed: int = 8) -> dict:
    """A meetup a1 (window 600-3000) of four and a task a2 (window 0-1200) of
    three, with two centres 1.1 km apart. Ana walks to a2's centre by 300 s
    and on to a1's by 2000 s, Bruno reaches a1's at 2400 s, and Carla and Dan
    stay 2 km out."""
    far = [[0, 41.58, -8.39]]
    traces = {
        "ana": [[0, 41.59, -8.39], [300, 41.57, -8.39], [1000, 41.57, -8.39], [2000, 41.56, -8.39]],
        "bruno": [[0, 41.59, -8.39], [2000, 41.59, -8.39], [2400, 41.56, -8.39]],
        "carla": far, "dan": far,
    }
    return {
        "seed": seed, "noise_sigma_m": 8.0, "fix_period_s": period, "horizon": horizon,
        "activities": [
            {"title": "Meet", "kind": "MEETUP", "start": 600, "end": 3000, "lat": 41.56,
             "lon": -8.39, "organizer": "ana", "participants": ["ana", "bruno", "carla", "dan"]},
            {"title": "Errand", "kind": "TASK", "start": 0, "end": 1200, "lat": 41.57,
             "lon": -8.39, "organizer": "carla", "participants": ["carla", "bruno", "ana"]},
        ],
        "actors": [{"id": who, "trace": traces[who], "actions": script}
                   for who, script in actions.items()],
    }


# Each case of the step loop, in one script: the comment names the case.
STEP_CASES = {
    # DISARM and then ARM again inside a1's window; ARM after arriving in a2
    # (an ERR); armed in a1 while arrived in a2; fixes before a1's window.
    "ana": [[0, "ACCEPT"], [0, "ARM"], [900, "DISARM", "a1"], [1500, "ARM", "a1"],
            [2500, "ARM", "a2"]],
    # Actions on one activity and on all of them; an ARM that gets NOT_ACCEPTED.
    "bruno": [[0, "ACCEPT", "a1"], [0, "DECLINE", "a2"], [0, "ARM"]],
    # Off-step times; a command with a record while armed; fixes after a2's
    # window until the DISARM of both (a no-op for a1).
    "carla": [[0, "ACCEPT"], [45, "ARM", "a2"], [100, "TASK_DONE", "a2"], [1800, "DISARM"]],
    # Armed after a1's window, from an off-step time after every other sender
    # has stopped; then the horizon lies far past this last action.
    "dan": [[0, "ACCEPT"], [3100, "ARM"], [3500, "DISARM"]],
}

VERBS = st.sampled_from(sorted(sim.ACTIONS))
SCRIPTS = st.fixed_dictionaries({
    who: st.lists(st.tuples(st.integers(-30, 4000), VERBS, st.sampled_from([None, "a1", "a2"])),
                  max_size=6)
    for who in ("ana", "bruno", "carla", "dan")
})


class TestStepLoop:
    """``run_scenario`` visits only the armed senders and skips idle steps; it
    must send what the every-pair, every-step loop sends, in the same order."""

    @staticmethod
    def assert_same_run(scenario: Scenario):
        result = run_scenario(scenario)
        transcript, records = reference_run(scenario)
        assert result.records == records
        assert result.transcript == transcript
        assert transcript_lines(result.transcript) == transcript_lines(transcript)
        return result

    @pytest.mark.parametrize("period", [60, 45, 7])
    def test_every_case_sends_what_visiting_every_pair_sends(self, period):
        result = self.assert_same_run(scenario_from_dict(two_activities(STEP_CASES, period)))
        arrived = {(r.event.activity, r.event.who) for r in result.records
                   if type(r.event).__name__ == "ArrivalRecorded"}
        assert arrived == {("a2", "ana"), ("a1", "ana"), ("a1", "bruno")}
        errors = [(e.to, e.msg.code) for e in result.transcript if isinstance(e.msg, Err)]
        assert ("ana", "ALREADY_ARMED") in errors and ("bruno", "NOT_ACCEPTED") in errors
        fixes = [e.at for e in result.transcript if e.to == "dan" and e.msg == ACK_FIX]
        assert fixes and 3000 < min(fixes) and max(fixes) <= 3500  # after a1's window only

    @pytest.mark.parametrize("source", sorted(p.name for p in SCENARIOS.glob("*.json")))
    def test_the_shipped_scenarios(self, source):
        self.assert_same_run(load_scenario(SCENARIOS / source))

    def test_a_crowd(self):
        self.assert_same_run(scenario_from_dict(benchmark_crowd(150, 50)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(SCRIPTS, st.sampled_from([30, 60, 97]))
    def test_drawn_scripts(self, scripts, period):
        actions = {who: [[at, verb] if target is None else [at, verb, target]
                         for at, verb, target in script]
                   for who, script in scripts.items()}
        self.assert_same_run(scenario_from_dict(two_activities(actions, period, horizon=5000)))

    @pytest.mark.parametrize("horizon", [10**9, 10**12])
    def test_an_idle_horizon_costs_no_time(self, horizon):
        d = json.loads((SCENARIOS / "s1_meetup.json").read_text())
        want = transcript_lines(run_scenario(scenario_from_dict(d)).transcript)
        t0 = time.perf_counter()
        result = run_scenario(scenario_from_dict(dict(d, horizon=horizon)))
        assert time.perf_counter() - t0 < 1.0
        assert transcript_lines(result.transcript) == want


SHIPPED = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))]
HORIZON_CAP = 100_000


class TestScenarioFuzz:
    """Nothing but a named ``SyncError`` escapes ``scenario_from_dict`` plus
    ``run_scenario``, whatever one to three mutations of a shipped scenario
    do to it."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_only_named_errors_escape(self, data):
        doc = draw_mutant(data, data.draw(st.sampled_from(SHIPPED)))
        if isinstance(doc, dict) and type(doc.get("horizon")) is int:
            doc["horizon"] = min(doc["horizon"], HORIZON_CAP)
        try:
            run_scenario(scenario_from_dict(doc, base_dir=SCENARIOS))
        except Exception as e:  # noqa: BLE001 - anything but a named error is the failure
            if not isinstance(e, SyncError) or e.code == SyncError.code:
                pytest.fail(f"{type(e).__name__}: {e} escaped on {doc!r}")
