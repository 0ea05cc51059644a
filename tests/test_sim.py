"""Simulator: interpolation, noise, poll schedule, scenario runs."""

import hashlib
import json
import math
import random
import statistics
from bisect import bisect_right
from pathlib import Path

import pytest

from syncpoint.activities import ActivityKind, ActivitySpec, TimeWindow, WindowInvalid, new_activity
import syncpoint.engine as engine
from syncpoint.engine import Engine, pending, replay
from syncpoint.eventlog import read_records
from syncpoint.geo import FenceInvalid, Geofence, GeoPoint
from syncpoint.sim import (
    M_PER_DEG_LAT,
    Scenario,
    ScenarioInvalid,
    Trace,
    interpolate,
    load_scenario,
    next_poll_interval,
    perturb,
    run_scenario,
    scenario_from_dict,
    transcript_lines,
)
from syncpoint.wire import Notify

REPO = Path(__file__).parents[1]
SCENARIOS = REPO / "scenarios"


def trace(*waypoints):
    return Trace(tuple((at, GeoPoint(lat, lon)) for at, lat, lon in waypoints))


class TestTrace:
    def test_needs_a_waypoint(self):
        with pytest.raises(ScenarioInvalid):
            Trace(())

    def test_times_strictly_increasing(self):
        with pytest.raises(ScenarioInvalid):
            trace((0, 0, 0), (0, 0, 1))


class TestInterpolate:
    tr = trace((0, 0, 0), (100, 0, 2))

    def test_linear_midpoint(self):
        assert interpolate(self.tr, 50) == GeoPoint(0, 1)

    def test_clamps_before_start(self):
        assert interpolate(self.tr, -5) == GeoPoint(0, 0)

    def test_clamps_after_end(self):
        assert interpolate(self.tr, 200) == GeoPoint(0, 2)

    def test_multi_segment(self):
        tr = trace((0, 0, 0), (10, 0, 1), (30, 10, 1))
        assert interpolate(tr, 20) == GeoPoint(5, 1)

    def test_matches_the_list_formula_on_a_long_trace(self):
        rng = random.Random(17)
        at, waypoints = 0, []
        for _ in range(400):
            at += rng.randint(1, 90)
            waypoints.append((at, GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))))
        times = [t for t, _ in waypoints]

        def reference(t):  # the formula that built a list of times on every call
            if t <= times[0]:
                return waypoints[0][1]
            if t >= times[-1]:
                return waypoints[-1][1]
            i = bisect_right(times, t)
            (t0, p0), (t1, p1) = waypoints[i - 1], waypoints[i]
            f = (t - t0) / (t1 - t0)
            return GeoPoint(p0.lat + f * (p1.lat - p0.lat), p0.lon + f * (p1.lon - p0.lon))

        tr = Trace(tuple(waypoints))
        for t in range(-10, at + 10):
            assert interpolate(tr, t) == reference(t), t


class TestPerturb:
    def test_zero_sigma_is_identity(self):
        p = GeoPoint(41.5606, -8.397)
        assert perturb(p, 0.0, random.Random(1)) == p

    def test_same_seed_same_outputs(self):
        p = GeoPoint(41.5606, -8.397)
        a = [perturb(p, 10.0, random.Random(42)) for _ in range(1)]
        b = [perturb(p, 10.0, random.Random(42)) for _ in range(1)]
        r1, r2 = random.Random(9), random.Random(9)
        seq1 = [perturb(p, 10.0, r1) for _ in range(50)]
        seq2 = [perturb(p, 10.0, r2) for _ in range(50)]
        assert a == b and seq1 == seq2

    def test_northing_std_matches_sigma(self):
        rng = random.Random(2026)
        p = GeoPoint(10.0, 20.0)
        samples = [
            (perturb(p, 10.0, rng).lat - p.lat) * M_PER_DEG_LAT for _ in range(10_000)
        ]
        assert statistics.pstdev(samples) == pytest.approx(10.0, abs=0.5)
        assert statistics.mean(samples) == pytest.approx(0.0, abs=0.5)

    def test_offsets_scale_with_latitude(self):
        import math

        rng = random.Random(5)
        p = GeoPoint(60.0, 0.0)  # cos(60) = 0.5: one lon degree is half-size
        east = [
            (perturb(p, 10.0, rng).lon - p.lon)
            * M_PER_DEG_LAT
            * math.cos(math.radians(p.lat))
            for _ in range(5_000)
        ]
        assert statistics.pstdev(east) == pytest.approx(10.0, abs=0.6)
        assert statistics.mean(east) == pytest.approx(0.0, abs=0.6)

    def test_clamped_to_valid_ranges(self):
        rng = random.Random(3)
        for _ in range(200):
            q = perturb(GeoPoint(89.99999, 179.99999), 50.0, rng)
            assert -90 <= q.lat <= 90 and -180 < q.lon <= 180
            q = perturb(GeoPoint(-89.99999, -179.99999), 50.0, rng)
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
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict(
                {
                    "seed": 1, "fix_period_s": 30, "horizon": 100,
                    "activities": [],
                    "actors": [{"id": "a", "trace": [[0, 1.0, 1.0]],
                                "actions": [[0, "DANCE"]]}],
                }
            )

    def test_missing_field(self):
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict({"seed": 1, "horizon": 100})

    @pytest.mark.parametrize("field, error", [
        ({"radius_m": -5}, FenceInvalid),
        ({"hysteresis_m": -1}, FenceInvalid),
        ({"end": 10}, WindowInvalid),
        ({"kind": "PARADE"}, ScenarioInvalid),
        ({"radius_m": math.inf}, FenceInvalid),
        ({"hysteresis_m": math.nan}, FenceInvalid),
    ])
    def test_a_bad_activity_field_fails_at_load(self, field, error):
        activity = {
            "title": "x", "start": 10, "end": 20, "lat": 1.0, "lon": 1.0,
            "organizer": "a", "participants": ["a", "b"], **field,
        }
        with pytest.raises(error):
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
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict({**scenario, **field})

    @pytest.mark.parametrize("field", ["seed", "noise_sigma_m", "fix_period_s", "horizon"])
    def test_a_boolean_is_not_a_number(self, field):
        # JSON true loads as bool, which is an int to isinstance.
        scenario = json.loads((SCENARIOS / "s1_meetup.json").read_text(encoding="utf-8"))
        with pytest.raises(ScenarioInvalid) as e:
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
        with pytest.raises(ScenarioInvalid):
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
        with pytest.raises(ScenarioInvalid):
            run_scenario(sc)

    def test_all_shipped_scenarios_load(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            sc = load_scenario(path)
            assert isinstance(sc, Scenario)


class TestRunScenario:
    def test_empty_scenario_empty_transcript(self):
        sc = scenario_from_dict(
            {"seed": 1, "fix_period_s": 30, "horizon": 300,
             "activities": [], "actors": []}
        )
        result = run_scenario(sc)
        assert result.transcript == []
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


class TestByteIdentity:
    # SHA-256 of the transcript lines and of the log lines of the crowd below.
    # The transcript's was pinned from the encoder that built it with
    # ``json.JSONEncoder``; the log's from the coordinate-free log format,
    # each of whose lines equals the standard library's canonical encoding.
    PINNED_TRANSCRIPT = "c6a27d01f6e797eb38e0afa4c8773509d9c142bcccb781ba738b7ac5b3b7ac8d"
    PINNED_LOG = "3441e67268461d97359327b9f061d5519351f866ae1e4f3968bf407aa2439ec8"

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
        # a poll from cursor 0 numbers each queued notification by its position.
        for state in (result.state, replay(result.records)):
            for recipient, queue in state.queues.items():
                frames, cursor = pending(state, recipient, 0)
                assert [m.seq for m in frames] == list(range(1, len(queue) + 1)), recipient
                assert [m.notification for m in frames] == queue and cursor == len(queue)


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
    def test_replay_builds_no_frame_and_a_restart_polls_what_was_pushed(
        self, tmp_path, monkeypatch
    ):
        result = run_scenario(scenario_from_dict(generated_crowd(2024, 60, 20)))
        pushed: dict[str, list[Notify]] = {}
        for e in result.transcript:  # the crowd never polls: every Notify is a push
            if isinstance(e.msg, Notify):
                pushed.setdefault(e.to, []).append(e.msg)
        assert sum(map(len, pushed.values())) > 1000

        built = []
        monkeypatch.setattr(engine, "Notify", lambda *args: built.append(args) or Notify(*args))
        replayed = replay(read_records(result.log_lines))
        assert built == []
        pending(replayed, next(iter(pushed)), 0)
        assert built  # the counter sees the frames a poll builds
        monkeypatch.undo()

        log = tmp_path / "events.log"
        log.write_text("".join(result.log_lines), encoding="utf-8")
        restarted = Engine(log_path=log)
        restarted.close()
        assert restarted.state == result.state
        assert sorted(restarted.state.queues) == sorted(pushed)
        for who, frames in pushed.items():
            assert pending(restarted.state, who, 0) == (frames, len(frames)), who
            assert pending(result.state, who, 0) == (frames, len(frames)), who
