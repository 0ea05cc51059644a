"""Engine: command handling, event sourcing, queues, and replay."""

import copy
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from codes import raises_code
from genmsg import coordinates

import syncpoint.engine
from syncpoint.activities import (
    Activity,
    ActivityKind,
    ActivitySpec,
    InviteAnswer,
    ParticipantStatus,
    PrivacyPolicy,
    TimeWindow,
)
from syncpoint.engine import (
    Engine,
    ServerState,
    create_activities,
    create_activity,
    handle,
    pending,
    replay,
    status_view,
)
from syncpoint.errors import EventInvalid
from syncpoint.eventlog import (
    ActivityCreated,
    ArmCleared,
    ArmSet,
    ArrivalRecorded,
    CorruptRecord,
    EventRecord,
    FixAccepted,
    InviteResponded,
    PointFix,
    TaskCompleted,
    TornTail,
    decode_record,
    encode_record,
    load_log,
    read_records,
)
from syncpoint.geo import EARTH_RADIUS_M, Geofence, GeoPoint, Zone, classify_zone
from syncpoint.ics import parse_ics
from syncpoint.notify import ArrivalNotice, Invitation, SelfArrivalAck, TaskDoneNotice
from syncpoint.presence import Alarm
from syncpoint.sim import load_scenario, scenario_from_dict
from syncpoint.wire import (
    Ack,
    Arm,
    Disarm,
    Err,
    Fix,
    Hello,
    Notify,
    Poll,
    RespondInvite,
    Status,
    StatusView,
    TaskDone,
    Welcome,
)

REPO = Path(__file__).parents[1]
CENTER = GeoPoint(41.5606, -8.3970)


def at_distance(meters: float) -> GeoPoint:
    return GeoPoint(CENTER.lat + math.degrees(meters / EARTH_RADIUS_M), CENTER.lon)


def fresh(kind=ActivityKind.MEETUP, policy=PrivacyPolicy.DISCLOSE_IDENTITY,
          participants=("ana", "bruno", "carla"), batch=None):
    state = ServerState()
    act, outbound, records = create_activity(
        state,
        ActivitySpec(
            title="Fair",
            kind=kind,
            window=TimeWindow(1000, 5000),
            fence=Geofence(CENTER, 100.0, 25.0),
            organizer=participants[0],
            participants=tuple(participants),
            policy=policy,
            batch_threshold=batch,
        ),
        now=0,
    )
    return state, act, outbound, records


def accept_all(state, act, who=None, now=10):
    for pid in who or act.participants:
        out = handle(state, RespondInvite(act.id, InviteAnswer.ACCEPT), pid, now)[0]
        assert out == [(pid, Ack("RESPOND_INVITE"))], out


class TestCreateActivity:
    def test_invitations_queued_and_pushed(self):
        state, act, outbound, records = fresh()
        assert act.id == "a1"
        assert [to for to, _ in outbound] == ["bruno", "carla"]
        assert all(
            isinstance(m, Notify) and isinstance(m.notification, Invitation)
            for _, m in outbound
        )
        assert [m.seq for _, m in outbound] == [1, 1]
        assert state.queues["bruno"] == [outbound[0][1]]  # a queue holds the pushed frames
        assert len(records) == 1 and isinstance(records[0].event, ActivityCreated)

    def test_invalid_spec_is_atomic(self):
        state = ServerState()
        with pytest.raises(Exception):
            create_activity(state, ActivitySpec(
                title="x", kind=ActivityKind.MEETUP,
                window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0),
                organizer="solo", participants=("solo",),
            ), now=0)
        assert state == ServerState()

    def test_ids_allocated_in_order(self):
        state, act, _, _ = fresh()
        act2, _, _ = create_activity(state, ActivitySpec(
            title="Second", kind=ActivityKind.TASK,
            window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0),
            organizer="ana", participants=("ana", "bruno"),
        ), now=0)
        assert (act.id, act2.id) == ("a1", "a2")


def picnic(uid=None, participants=("ana", "bo")) -> ActivitySpec:
    return ActivitySpec(
        title="Picnic", window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0),
        organizer=participants[0], participants=participants, calendar_uid=uid,
    )


class TestCreateActivities:
    def test_a_taken_uid_is_skipped_with_one_warning_and_ids_stay_dense(self):
        state, _, _, log = fresh()  # a1, from no calendar event
        log += create_activities(state, [picnic("u1")], now=0)[3]
        acts, warnings, outbound, records = create_activities(
            state, [picnic("u1"), picnic("u2"), picnic(), picnic("u2", ("ana",)), picnic()], now=3,
        )  # a taken UID is skipped before its roster is read
        assert [(a.id, a.calendar_uid) for a in acts] == [
            ("a3", "u2"), ("a4", None), ("a5", None),
        ]
        assert warnings == ["event u1 already ingested, skipping",
                            "event u2 already ingested, skipping"]
        assert [(r.index, r.at, r.event.activity) for r in records] == [
            (2, 3, acts[0]), (3, 3, acts[1]), (4, 3, acts[2]),
        ]
        assert [m.notification.summary.activity for _, m in outbound] == ["a3", "a4", "a5"]
        assert replay(log + records) == state

    @pytest.mark.parametrize("uid", [None, "u-bad"])
    def test_a_refused_spec_makes_nothing_of_the_batch(self, uid):
        state, act, _, _ = fresh()
        handle(state, RespondInvite(act.id, InviteAnswer.ACCEPT), "bruno", 10)
        before = copy.deepcopy(state)
        specs = [picnic("u1"), picnic(uid, participants=("ana",)), picnic("u3")]
        if uid is None:
            with raises_code("TOO_FEW_PARTICIPANTS") as e:
                create_activities(state, specs, now=20)
        else:
            with pytest.raises(EventInvalid) as e:
                create_activities(state, specs, now=20)
            assert (e.value.uid, e.value.reason) == ("u-bad", "need at least 2 participants, got 1")
        assert e.value.detail.endswith("need at least 2 participants, got 1")
        assert state == before  # its record_count, activities and queues among the rest


class TestRespondInvite:
    def test_accept_records_and_acks(self):
        state, act, _, _ = fresh()
        outbound, records = handle(
            state, RespondInvite(act.id, InviteAnswer.ACCEPT), "bruno", 10
        )
        assert outbound == [("bruno", Ack("RESPOND_INVITE"))]
        assert len(records) == 1
        assert state.presence[act.id]["bruno"].status is ParticipantStatus.ACCEPTED

    def test_after_end_is_phase_violation(self):
        state, act, _, _ = fresh()
        outbound, records = handle(
            state, RespondInvite(act.id, InviteAnswer.ACCEPT), "bruno", 5000
        )
        assert outbound[0][1].code == "PHASE_VIOLATION"
        assert records == []

    def test_unknown_activity(self):
        state, _, _, _ = fresh()
        outbound, _ = handle(state, RespondInvite("zz", InviteAnswer.ACCEPT), "bruno", 1)
        assert outbound[0][1].code == "UNKNOWN_ACTIVITY"


class TestArmDisarm:
    def test_arm_before_any_fix_seeds_outside(self):
        state, act, _, _ = fresh()
        accept_all(state, act, ["bruno"])
        outbound, records = handle(state, Arm(act.id), "bruno", 20)
        assert outbound == [("bruno", Ack("ARM"))]
        pp = state.presence[act.id]["bruno"]
        assert (pp.alarm, pp.zone) == (Alarm.ARMED, Zone.OUTSIDE)
        assert records[0].event == ArmSet(act.id, "bruno")

    def test_arm_requires_acceptance(self):
        state, act, _, _ = fresh()
        outbound, _ = handle(state, Arm(act.id), "bruno", 20)
        assert outbound[0][1].code == "NOT_ACCEPTED"

    def test_disarm_and_rearm(self):
        state, act, _, _ = fresh()
        accept_all(state, act, ["bruno"])
        handle(state, Arm(act.id), "bruno", 20)
        outbound, records = handle(state, Disarm(act.id), "bruno", 21)
        assert outbound == [("bruno", Ack("DISARM"))]
        assert len(records) == 1
        outbound, records = handle(state, Disarm(act.id), "bruno", 22)
        assert outbound == [("bruno", Ack("DISARM"))]
        assert records == []  # idempotent no-op appends nothing

    def test_arm_uses_zone_of_latest_fix(self):
        # Fix while disarmed (inside, activity active), then arm: the alarm
        # seeds Inside, so staying put never looks like an arrival.
        state, act, _, _ = fresh()
        accept_all(state, act, ["bruno"])
        handle(state, Fix(act.id, at_distance(10), 1500), "bruno", 1500)
        outbound, records = handle(state, Arm(act.id), "bruno", 1510)
        pp = state.presence[act.id]["bruno"]
        assert (pp.alarm, pp.zone) == (Alarm.ARMED, Zone.INSIDE)
        outbound, records = handle(state, Fix(act.id, at_distance(20), 1520), "bruno", 1520)
        assert records and isinstance(records[0].event, FixAccepted)
        assert len(records) == 1  # no ArrivalRecorded
        assert not any(isinstance(m, Notify) for _, m in outbound)


class TestFix:
    def arm_bruno(self, accept=("ana", "bruno", "carla")):
        state, act, _, _ = fresh()
        accept_all(state, act, list(accept))
        handle(state, Arm(act.id), "bruno", 20)
        return state, act

    def test_prestart_fix_ignored_entirely(self):
        state, act = self.arm_bruno()
        before = copy.deepcopy(state)
        outbound, records = handle(state, Fix(act.id, at_distance(10), 500), "bruno", 500)
        assert outbound == [("bruno", Ack("FIX"))]
        assert records == []
        assert state == before

    def test_arrival_fanout_and_records(self):
        state, act = self.arm_bruno()
        outbound, records = handle(
            state, Fix(act.id, at_distance(50), 2000), "bruno", 2000
        )
        assert [type(r.event).__name__ for r in records] == [
            "FixAccepted", "ArrivalRecorded",
        ]
        assert outbound[0] == ("bruno", Ack("FIX"))
        notifies = [(to, m.notification) for to, m in outbound[1:]]
        assert notifies == [
            ("bruno", SelfArrivalAck(act.id, 2000)),
            ("ana", ArrivalNotice(act.id, 2000, "bruno")),
            ("carla", ArrivalNotice(act.id, 2000, "bruno")),
        ]
        assert state.presence[act.id]["bruno"].alarm is Alarm.ARRIVED
        assert state.arrivals[act.id] == ["bruno"]

    def test_stale_fix_rejected_without_records(self):
        state, act = self.arm_bruno()
        handle(state, Fix(act.id, at_distance(500), 2000), "bruno", 2000)
        before = copy.deepcopy(state)
        outbound, records = handle(state, Fix(act.id, at_distance(400), 2000), "bruno", 2001)
        assert outbound[0][1] == Err(
            "STALE_FIX", "fix at 2000 is not after the last fix at 2000"
        )
        assert records == []
        assert state == before

    def test_no_second_arrival(self):
        state, act = self.arm_bruno()
        handle(state, Fix(act.id, at_distance(50), 2000), "bruno", 2000)
        for i, d in enumerate((300, 50, 400, 10)):
            outbound, records = handle(
                state, Fix(act.id, at_distance(d), 2100 + i), "bruno", 2100 + i
            )
            assert len(records) == 1  # FixAccepted only
            assert not any(isinstance(m, Notify) for _, m in outbound)
        assert state.arrivals[act.id] == ["bruno"]

    def test_one_lookup_and_one_classification_per_fix(self, monkeypatch):
        calls = {"classify_zone": 0, "participant": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(syncpoint.engine, "classify_zone", counted("classify_zone", classify_zone))
        monkeypatch.setattr(Activity, "participant", counted("participant", Activity.participant))

        state, act = self.arm_bruno()
        # carla has a fix inside the fence before she arms, so she arms Inside.
        handle(state, Fix(act.id, at_distance(10), 1500), "carla", 1500)
        handle(state, Arm(act.id), "carla", 1501)
        steps = [
            ("bruno", 500, False),   # armed, still Outside
            ("bruno", 50, True),     # Outside -> Inside: the arrival
            ("bruno", 400, False),   # Arrived is terminal: leaving ...
            ("bruno", 10, False),    # ... and coming back announce nothing
            ("carla", 20, False),    # armed while Inside: no transition
        ]
        for i, (who, meters, arrives) in enumerate(steps):
            calls.update(classify_zone=0, participant=0)
            at = 2000 + i
            _, records = handle(state, Fix(act.id, at_distance(meters), at), who, at)
            assert calls["classify_zone"] == 1, (who, meters)
            assert calls["participant"] <= 1, (who, meters)
            kinds = [type(r.event).__name__ for r in records]
            assert kinds == ["FixAccepted"] + (["ArrivalRecorded"] if arrives else [])
        assert state.arrivals[act.id] == ["bruno"]
        pp = state.presence[act.id]["carla"]
        assert (pp.alarm, pp.zone) == (Alarm.ARMED, Zone.INSIDE)

    def test_fix_from_declined_participant(self):
        state, act, _, _ = fresh()
        handle(state, RespondInvite(act.id, InviteAnswer.DECLINE), "bruno", 10)
        outbound, _ = handle(state, Fix(act.id, at_distance(10), 2000), "bruno", 2000)
        assert outbound[0][1].code == "NOT_ACCEPTED"

    def test_declined_participants_receive_nothing(self):
        state, act, _, _ = fresh()
        accept_all(state, act, ["ana", "bruno"])
        handle(state, RespondInvite(act.id, InviteAnswer.DECLINE), "carla", 10)
        handle(state, Arm(act.id), "bruno", 20)
        outbound, _ = handle(state, Fix(act.id, at_distance(50), 2000), "bruno", 2000)
        assert not any(to == "carla" for to, _ in outbound)
        assert len(state.queues["carla"]) == 1  # just the invitation


class TestAheadOfClock:
    """A client's claimed time may be at most ``MAX_AHEAD_S`` (60 s) past the server's clock."""

    def meetup(self):
        """``scenarios/s1_meetup.json``'s a1 (window 3000-4800): all accept, ana arms."""
        scenario = load_scenario(REPO / "scenarios" / "s1_meetup.json")
        state = ServerState()
        (act,), _, _, _ = create_activities(state, scenario.activities, now=0)
        accept_all(state, act)
        handle(state, Arm(act.id), "ana", 20)
        return state, act

    def test_a_fix_from_the_future_gets_an_err_and_leaves_no_trace(self):
        state, act = self.meetup()
        before = copy.deepcopy(state)
        outbound, records = handle(state, Fix(act.id, act.fence.center, 3500), "ana", 30)
        assert (outbound, records) == ([("ana", Err(
            "AHEAD_OF_CLOCK", "fix at 3500 is more than 60 s ahead of the server's clock 30",
        ))], [])
        assert state == before
        assert coordinates(outbound[0][1]) == ([], [])  # the C10 scan
        # So the honest fix that follows is not stale: it is the arrival.
        outbound, records = handle(state, Fix(act.id, act.fence.center, 3100), "ana", 3100)
        assert outbound[0] == ("ana", Ack("FIX"))
        assert [type(r.event).__name__ for r in records] == ["FixAccepted", "ArrivalRecorded"]

    def test_a_fix_at_most_a_minute_ahead_is_taken(self):
        state, act = self.meetup()
        outbound, records = handle(state, Fix(act.id, at_distance(500), 3060), "ana", 3000)
        assert outbound == [("ana", Ack("FIX"))] and len(records) == 1

    def test_a_task_done_61_s_ahead_is_refused(self):
        state, act, _, _ = fresh(kind=ActivityKind.TASK, participants=("dana", "eli"))
        accept_all(state, act)
        outbound, records = handle(state, TaskDone(act.id, 2461), "eli", 2400)
        assert (outbound, records) == ([("eli", Err(
            "AHEAD_OF_CLOCK", "task done at 2461 is more than 60 s ahead of the server's clock 2400",
        ))], [])
        outbound, records = handle(state, TaskDone(act.id, 2460), "eli", 2400)
        assert outbound[0] == ("eli", Ack("TASK_DONE")) and len(records) == 1


class TestTaskDone:
    def test_fanout(self):
        state, act, _, _ = fresh(kind=ActivityKind.TASK, participants=("dana", "eli"))
        accept_all(state, act)
        outbound, records = handle(state, TaskDone(act.id, 2400), "eli", 2400)
        assert outbound[0] == ("eli", Ack("TASK_DONE"))
        assert outbound[1] == ("dana", Notify(1, TaskDoneNotice(act.id, 2400, "eli")))
        assert [type(r.event).__name__ for r in records] == ["TaskCompleted"]

    def test_kind_mismatch(self):
        state, act, _, _ = fresh()
        accept_all(state, act, ["bruno"])
        outbound, records = handle(state, TaskDone(act.id, 2400), "bruno", 2400)
        assert outbound[0][1].code == "KIND_MISMATCH"
        assert records == []

    def test_doer_must_have_accepted(self):
        state, act, _, _ = fresh(kind=ActivityKind.TASK, participants=("dana", "eli"))
        outbound, records = handle(state, TaskDone(act.id, 2400), "dana", 2400)
        assert outbound == [("dana", Err("NOT_ACCEPTED", outbound[0][1].detail))]
        assert records == []


class TestHelloStatusPoll:
    def test_hello_welcome(self):
        state, _, _, _ = fresh()
        outbound, records = handle(state, Hello("bruno"), "bruno", 77)
        assert outbound == [("bruno", Welcome(77))] and records == []

    def test_status_fresh(self):
        state, act, _, _ = fresh()
        outbound, _ = handle(state, Status(act.id), "ana", 5)
        (to, view), = outbound
        assert isinstance(view, StatusView)
        assert view.arrivals == 0
        assert view.phase.value == "SCHEDULED"
        assert all(p.status.value == "INVITED" and not p.arrived
                   for p in view.participants)

    def test_status_after_arrival(self):
        state, act, _, _ = fresh()
        accept_all(state, act, ["ana", "bruno"])
        handle(state, Arm(act.id), "bruno", 20)
        handle(state, Fix(act.id, at_distance(50), 2000), "bruno", 2000)
        outbound, _ = handle(state, Status(act.id), "ana", 2001)
        view = outbound[0][1]
        assert view.arrivals == 1
        assert {p.id: p.arrived for p in view.participants} == {
            "ana": False, "bruno": True, "carla": False,
        }
        assert view.phase.value == "ACTIVE"

    def test_status_unknown_activity(self):
        state, _, _, _ = fresh()
        outbound, _ = handle(state, Status("zz"), "ana", 5)
        assert outbound[0][1].code == "UNKNOWN_ACTIVITY"

    def test_status_for_outsiders_refused(self):
        state, act, _, _ = fresh()
        outbound, _ = handle(state, Status(act.id), "zoe", 5)
        assert outbound[0][1].code == "NOT_A_PARTICIPANT"

    def test_pending_cursor_examples(self):
        state, act, _, _ = fresh()
        accept_all(state, act, ["ana", "bruno"])
        handle(state, Arm(act.id), "bruno", 20)
        handle(state, Fix(act.id, at_distance(50), 2000), "bruno", 2000)
        # bruno's queue: invitation (1), self arrival ack (2).
        msgs, cur = pending(state, "bruno", 0)
        assert [m.seq for m in msgs] == [1, 2] and cur == 2
        again, cur2 = pending(state, "bruno", 2)
        assert again == [] and cur2 == 2
        partial, cur3 = pending(state, "bruno", 1)
        assert [m.seq for m in partial] == [2] and cur3 == 2
        beyond, cur4 = pending(state, "bruno", 7)
        assert beyond == [] and cur4 == 7

    def test_poll_returns_notifies_then_ack(self):
        state, act, _, _ = fresh()
        outbound, records = handle(state, Poll(0), "bruno", 30)
        assert records == []
        assert [type(m).__name__ for _, m in outbound] == ["Notify", "Ack"]
        assert outbound[-1] == ("bruno", Ack("POLL"))

    def test_poll_push_interleaving_never_duplicates(self):
        # Client discipline for exactly-once per cursor: accept a pushed
        # Notify only when its seq is contiguous with the cursor (ordered
        # connections can only lose a suffix, and a reconnect poll fills
        # the gap); polls echo the cursor and the server returns seq >
        # cursor. No interleaving may deliver a sequence number twice.
        rng = random.Random(99)
        for _ in range(60):
            state, act, _, _ = fresh(
                participants=("ana", "bruno", "carla", "dave", "erin")
            )
            accept_all(state, act)
            everyone = list(act.participants)
            seen: dict[str, set] = {pid: set() for pid in everyone}
            cursor = {pid: 0 for pid in everyone}
            online = {pid: True for pid in everyone}

            def accept_push(to, m):
                if isinstance(m, Notify) and m.seq == cursor[to] + 1:
                    assert m.seq not in seen[to], "duplicate delivery"
                    seen[to].add(m.seq)
                    cursor[to] = m.seq

            movers = ["bruno", "carla", "dave", "erin"]
            t = 1100
            for pid in movers:
                handle(state, Arm(act.id), pid, t)
            while movers or rng.random() < 0.7:
                t += 10
                roll = rng.random()
                if movers and roll < 0.4:
                    pid = movers.pop(rng.randrange(len(movers)))
                    outbound, _ = handle(state, Fix(act.id, at_distance(40), t), pid, t)
                    for to, m in outbound:
                        if online[to]:
                            accept_push(to, m)
                elif roll < 0.6:
                    pid = rng.choice(everyone)
                    online[pid] = not online[pid]
                else:
                    pid = rng.choice(everyone)
                    echoed = cursor[pid]
                    outbound, _ = handle(state, Poll(echoed), pid, t)
                    for to, m in outbound:
                        if isinstance(m, Notify):
                            assert to == pid and m.seq > echoed
                            assert m.seq not in seen[to], "duplicate delivery"
                            seen[to].add(m.seq)
                            cursor[to] = max(cursor[to], m.seq)
            # A final catch-up poll drains everything exactly once.
            for pid in everyone:
                rest, _ = pending(state, pid, cursor[pid])
                for m in rest:
                    assert m.seq not in seen[pid], "duplicate delivery"
                    seen[pid].add(m.seq)
                assert sorted(seen[pid]) == list(
                    range(1, len(state.queues.get(pid, [])) + 1)
                )


class TestAtomicity:
    def test_errored_commands_mutate_nothing(self):
        state, act, _, _ = fresh()
        accept_all(state, act, ["bruno"])
        handle(state, Arm(act.id), "bruno", 20)
        handle(state, Fix(act.id, at_distance(50), 2000), "bruno", 2000)
        bad = [
            (RespondInvite("nope", InviteAnswer.ACCEPT), "bruno", 10),
            (RespondInvite(act.id, InviteAnswer.ACCEPT), "zoe", 10),
            (RespondInvite(act.id, InviteAnswer.ACCEPT), "bruno", 10),
            (RespondInvite(act.id, InviteAnswer.ACCEPT), "carla", 9999),
            (Arm(act.id), "bruno", 30),
            (Arm(act.id), "carla", 30),
            (Fix(act.id, at_distance(10), 1999), "bruno", 2001),
            (Fix(act.id, at_distance(10), 2000), "carla", 2000),
            (TaskDone(act.id, 2400), "bruno", 2400),
            (Status("zz"), "bruno", 10),
        ]
        for msg, who, now in bad:
            before = copy.deepcopy(state)
            outbound, records = handle(state, msg, who, now)
            assert isinstance(outbound[0][1], Err), (msg, outbound)
            assert records == []
            assert state == before, msg


def scripted_run(state):
    """A fixed little session used by determinism/replay tests."""
    act, outbound, records = create_activity(state, ActivitySpec(
        title="Fair", kind=ActivityKind.MEETUP,
        window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
        organizer="ana", participants=("ana", "bruno", "carla"),
    ), now=0)
    all_records = list(records)
    script = [
        (RespondInvite(act.id, InviteAnswer.ACCEPT), "ana", 5),
        (RespondInvite(act.id, InviteAnswer.ACCEPT), "bruno", 6),
        (RespondInvite(act.id, InviteAnswer.DECLINE), "carla", 7),
        (Arm(act.id), "ana", 8),
        (Arm(act.id), "bruno", 9),
        (Fix(act.id, at_distance(400), 1100), "ana", 1100),
        (Fix(act.id, at_distance(300), 1100), "bruno", 1100),
        (Fix(act.id, at_distance(50), 1200), "ana", 1200),
        (Disarm(act.id), "bruno", 1250),
        (Fix(act.id, at_distance(20), 1300), "bruno", 1300),
        (Poll(0), "bruno", 1400),
    ]
    for msg, who, now in script:
        _, records = handle(state, msg, who, now)
        all_records.extend(records)
    return all_records


class TestDeterminismAndReplay:
    def test_same_commands_same_log_and_queues(self):
        s1, s2 = ServerState(), ServerState()
        r1, r2 = scripted_run(s1), scripted_run(s2)
        assert [encode_record(r) for r in r1] == [encode_record(r) for r in r2]
        assert s1.queues == s2.queues
        assert s1 == s2

    def test_replay_empty_log(self):
        assert replay([]) == ServerState()

    def test_replay_equals_live(self):
        state = ServerState()
        records = scripted_run(state)
        assert replay(records) == state

    def test_replay_round_trips_through_encoding(self):
        state = ServerState()
        lines = [encode_record(r) for r in scripted_run(state)]
        assert replay(read_records(lines)) == state

    def test_truncated_last_line(self, tmp_path):
        state = ServerState()
        lines = [encode_record(r) for r in scripted_run(state)]
        log = tmp_path / "events.log"
        log.write_text("".join(lines)[:-7], encoding="utf-8")
        with pytest.raises(CorruptRecord) as e:
            list(load_log(log))
        assert e.value.index == len(lines) - 1
        good = []
        try:
            for record in read_records(
                [ln + "\n" for ln in log.read_text().split("\n")[:-1]]
                + [log.read_text().split("\n")[-1]]
            ):
                good.append(record)
        except CorruptRecord:
            pass
        assert len(good) == len(lines) - 1
        replay(good)  # prefix state recovers fine

    def test_load_prefix_keeps_the_good_records(self, tmp_path):
        state = ServerState()
        records = scripted_run(state)
        text = "".join(encode_record(r) for r in records)
        log = tmp_path / "events.log"
        log.write_text(text, encoding="utf-8")
        assert list(load_log(log)) == records
        log.write_text(text[:-7], encoding="utf-8")
        good = []
        with pytest.raises(TornTail) as e:
            good.extend(load_log(log))
        assert good == records[:-1]
        assert e.value.index == len(records) - 1

    def test_non_dense_indices_rejected(self):
        state = ServerState()
        lines = [encode_record(r) for r in scripted_run(state)]
        with pytest.raises(CorruptRecord):
            list(read_records([lines[0], lines[2]]))

    @pytest.mark.parametrize("activity, who", [("a9", "bruno"), ("a1", "zed")])
    def test_a_record_naming_an_unknown_id_is_corrupt(self, activity, who):
        records = scripted_run(ServerState())
        k = len(records)
        for event in (
            InviteResponded(activity, who, InviteAnswer.ACCEPT), ArmSet(activity, who),
            ArmCleared(activity, who), FixAccepted(activity, who, Zone.INSIDE, 1500),
            PointFix(activity, who, CENTER, 1500), ArrivalRecorded(activity, who, 1500),
            TaskCompleted(activity, who, 1500),
        ):
            with pytest.raises(CorruptRecord) as e:
                replay(records + [EventRecord(k, 1500, event)])
            assert e.value.index == k, event
            assert "unknown activity or participant" in e.value.reason, event
            assert e.value.state == replay(records), event

    # After scripted_run, in a1 (a MEETUP, window 1000-5000): ana has arrived,
    # bruno accepted and is disarmed with his last fix at 1300, carla declined.
    GUARDED = {  # name: (record time, event, reason)
        "answered twice": (1500, InviteResponded("a1", "carla", InviteAnswer.ACCEPT),
                           "activity a1: 'carla' already responded (DECLINED)"),
        "answered after the end": (5000, InviteResponded("a1", "carla", InviteAnswer.ACCEPT),
                                   "activity a1: a1 has already ended"),
        "answered by a stranger": (
            1500, InviteResponded("a1", "zed", InviteAnswer.ACCEPT),
            "unknown activity or participant: 'zed' is not a participant of a1"),
        "armed unaccepted": (1500, ArmSet("a1", "carla"),
                             "activity a1: 'carla' has not accepted a1"),
        "armed twice": (1500, ArmSet("a1", "ana"),
                        "activity a1: alarm is already armed or the participant has arrived"),
        "disarmed unarmed": (1500, ArmCleared("a1", "bruno"), "activity a1: alarm is not armed"),
        "disarmed in no activity": (1500, ArmCleared("a9", "bruno"),
                                    "unknown activity or participant: no such activity 'a9'"),
        "fix unaccepted": (1500, FixAccepted("a1", "carla", Zone.INSIDE, 1500),
                           "activity a1: 'carla' has not accepted a1"),
        "stale fix": (1500, FixAccepted("a1", "bruno", Zone.INSIDE, 1300),
                      "activity a1: fix at 1300 is not after the last fix at 1300"),
        "fix outside the window": (5000, FixAccepted("a1", "bruno", Zone.INSIDE, 5000),
                                   "activity a1: fix at 5000 is outside the window of a1"),
        "fix ahead of the clock": (
            1500, FixAccepted("a1", "bruno", Zone.INSIDE, 1561),
            "activity a1: fix at 1561 is more than 60 s ahead of the server's clock 1500"),
        "older-form fix ahead of the clock": (
            1500, PointFix("a1", "bruno", CENTER, 1561),
            "activity a1: fix at 1561 is more than 60 s ahead of the server's clock 1500"),
        "stale older-form fix": (1500, PointFix("a1", "bruno", CENTER, 999),
                                 "activity a1: fix at 999 is not after the last fix at 1300"),
        "arrival unaccepted": (1500, ArrivalRecorded("a1", "carla", 1500),
                               "activity a1: 'carla' has not accepted a1"),
        "arrival twice": (1500, ArrivalRecorded("a1", "ana", 1500),
                          "activity a1: 'ana' has already arrived"),
        "task unaccepted": (1500, TaskCompleted("a1", "carla", 1500),
                            "activity a1: 'carla' has not accepted a1"),
        "task on a meetup": (1500, TaskCompleted("a1", "bruno", 1500),
                             "activity a1: a1 is MEETUP, not TASK"),
    }

    @pytest.mark.parametrize("at, event, reason", GUARDED.values(), ids=GUARDED)
    def test_a_record_its_command_would_refuse_is_corrupt(self, at, event, reason):
        records = scripted_run(ServerState())
        k = len(records)
        with pytest.raises(CorruptRecord) as e:
            replay(records + [EventRecord(k, at, event)])
        assert (e.value.index, e.value.reason) == (k, reason)
        assert e.value.state == replay(records)

    def test_records_at_the_edges_of_their_guards_replay(self):
        records = scripted_run(ServerState())
        for at, event in (
            (1500, ArmSet("a1", "bruno")),
            (1500, FixAccepted("a1", "bruno", Zone.OUTSIDE, 1301)),
            (1500, FixAccepted("a1", "bruno", Zone.OUTSIDE, 1560)),
            (4999, PointFix("a1", "bruno", at_distance(300), 4999)),
        ):
            records.append(EventRecord(len(records), at, event))
        pp = replay(records).presence["a1"]["bruno"]
        assert (pp.alarm, pp.zone, pp.last_fix_at) == (Alarm.ARMED, Zone.OUTSIDE, 4999)

    # Each edit is made to the activity in memory, to its encoded line, or to
    # both ("via"): an old-form roster exists only in a line, and an activity
    # that differs from what new_activity builds of it only in memory.
    @pytest.mark.parametrize("edit, reason, via", [
        (dict(id="a3"), "activity id 'a3' is not the next id 'a2'", "both"),
        (dict(id="a1"), "activity id 'a1' is not the next id 'a2'", "both"),
        (dict(title="\ud800"), "activity a2: title '\\ud800' cannot be encoded as UTF-8",
         "both"),
        (dict(participants=("ana",)), "activity a2: need at least 2 participants, got 1", "both"),
        (dict(participants=("ana", "ana")), "activity a2: participant 'ana' listed twice", "both"),
        (dict(participants=("ana", "\ud800")),
         "activity a2: participant id '\\ud800' cannot be encoded as UTF-8", "both"),
        (dict(organizer="zed"), "activity a2: organizer 'zed' not in participant list", "both"),
        (dict(participants=({"id": "ana", "status": "INVITED"},
                            {"id": "bruno", "status": "ACCEPTED"})),
         "bad record payload: invalid field 'participants': "
         "old-form roster status 'ACCEPTED' is not 'INVITED'", "line"),
        (dict(batch_threshold=None), "activity a2: not what create_activity makes of it",
         "memory"),
    ], ids=["id ahead", "id reused", "title", "one participant", "listed twice",
            "participant id", "organizer", "logged as accepted", "threshold unresolved"])
    def test_only_an_activity_create_activity_could_make_replays(self, edit, reason, via):
        records = scripted_run(ServerState())
        second = create_activity(replay(records), ActivitySpec(
            title="Picnic", window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0),
            organizer="ana", participants=("ana", "bruno"),
        ), now=20)[2][0]
        assert second.event.activity.id == "a2"
        k = second.index
        logs = []
        if via != "line":
            spoiled = dataclasses.replace(second.event.activity, **edit)
            logs.append(records + [EventRecord(k, 20, ActivityCreated(spoiled))])
        if via != "memory":
            line = json.loads(encode_record(second))
            line["activity"].update(edit)
            logs.append(read_records([*map(encode_record, records), json.dumps(line) + "\n"]))
        for log in logs:
            with pytest.raises(CorruptRecord) as e:
                replay(log)
            assert (e.value.index, e.value.reason) == (k, reason)
            assert e.value.state == replay(records)
            assert e.value.state.record_count == k
        assert replay(records + [second]).activities["a2"] == second.event.activity

    def test_a_calendar_event_replays_as_one_activity(self):
        state, records = ServerState(), []
        for uid in ("u-A", "u-B"):
            records += create_activity(state, ActivitySpec(
                title="Picnic", window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0),
                organizer="ana", participants=("ana", "bo"), calendar_uid=uid,
            ), now=0)[2]
        twin = dataclasses.replace(records[1].event.activity, calendar_uid="u-A")
        log = [records[0], EventRecord(1, 0, ActivityCreated(twin))]
        for source in (log, read_records(map(encode_record, log))):
            with pytest.raises(CorruptRecord) as e:
                replay(source)
            assert (e.value.index, e.value.reason) == (1, "activity a2: event u-A already ingested")
            assert e.value.state == replay(records[:1])

    @pytest.mark.parametrize("spoil", [
        lambda line: line[:-7],
        lambda line: line.replace(b"}", b""),
        lambda line: line.replace(b'"index":', b'"index":9'),
        lambda line: line.replace(b'"type":"', b'"type":"X'),
        lambda line: line.replace(b'"at":', b'"x":"\xff","at":'),
    ], ids=["torn tail", "not JSON", "out of sequence", "unknown type", "not UTF-8"])
    def test_a_bad_line_hands_back_the_state_before_it(self, tmp_path, spoil):
        lines = [encode_record(r).encode("utf-8") for r in scripted_run(ServerState())]
        log = tmp_path / "events.log"
        for k in (0, len(lines) // 2, len(lines) - 1):
            log.write_bytes(b"".join(lines[:k] + [spoil(lines[k])]))
            with pytest.raises(CorruptRecord) as e:
                replay(load_log(log))
            assert e.value.index == k
            assert e.value.state == replay(read_records(lines[:k]))


# Strings and floats that exercise every escaping and formatting rule of the
# canonical dialect.
AWKWARD_TEXT = [
    'say "hi"', "back\\slash", "".join(chr(c) for c in range(0x20)), "\u2028\x7f\x85",
    "caf\u00e9 \u5bb6", "\U0001F600 \U00010348", "%s %(x)s %%",
]
AWKWARD_FLOATS = [-0.0, 1e-07, 89.99999999999999, 180.0]


def awkward_activity(text: str, calendar_uid) -> Activity:
    return Activity(
        id=text, title=text, kind=ActivityKind.PICKUP,
        window=TimeWindow(0, 2**53),
        fence=Geofence(GeoPoint(AWKWARD_FLOATS[2], AWKWARD_FLOATS[3]), 1e-07, -0.0),
        organizer=text,
        participants=(text, "b"),
        policy=PrivacyPolicy.ANONYMOUS_COUNT, batch_threshold=3, calendar_uid=calendar_uid,
    )


def every_record() -> list[EventRecord]:
    state = ServerState()
    events = [record.event for record in scripted_run(state)]
    for text in AWKWARD_TEXT:
        events += [
            ActivityCreated(awkward_activity(text, None)),
            ActivityCreated(awkward_activity(text, text)),
            InviteResponded(text, text, InviteAnswer.DECLINE),
            ArmSet(text, text),
            ArmCleared(text, text),
            ArrivalRecorded(text, text, 2**40),
            TaskCompleted(text, text, 0),
        ]
        events += [FixAccepted(text, text, zone, 7) for zone in Zone]
    return [EventRecord(i, i * 3, e) for i, e in enumerate(events)]


class TestRecordCodec:
    """The compiled record codec agrees with the standard library, byte for byte."""

    def test_every_record_type_matches_the_standard_library(self):
        records = every_record()
        assert {type(r.event) for r in records} == {
            ActivityCreated, InviteResponded, ArmSet, ArmCleared, FixAccepted,
            ArrivalRecorded, TaskCompleted,
        }
        for record in records:
            line = encode_record(record)
            obj = json.loads(line)
            assert line == json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"
            assert list(obj)[0] == "type"
            for nested in [obj] + [v for v in obj.values() if isinstance(v, dict)]:
                keys = [k for k in nested if k != "type"]
                assert keys == sorted(keys), line
            assert decode_record(line, record.index) == record

    def test_calendar_uid_is_left_out_when_none(self):
        without = encode_record(EventRecord(0, 0, ActivityCreated(awkward_activity("a", None))))
        assert "calendar_uid" not in without
        with_uid = encode_record(EventRecord(0, 0, ActivityCreated(awkward_activity("a", "u@v"))))
        assert json.loads(with_uid)["activity"]["calendar_uid"] == "u@v"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_raise(self, bad):
        fence = Geofence(CENTER, 100.0)
        object.__setattr__(fence, "hysteresis_m", bad)  # Geofence refuses some of them
        act = awkward_activity("a", None)
        object.__setattr__(act, "fence", fence)
        with pytest.raises(ValueError):
            encode_record(EventRecord(0, 0, ActivityCreated(act)))


class TestLargeRoster:
    def test_reverse_order_acceptance_of_a_thousand(self):
        ids = [f"p{i:04d}" for i in range(1000)]
        state = ServerState()
        act, _, records = create_activity(state, ActivitySpec(
            title="Crowd", kind=ActivityKind.GATHERING,
            window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
            organizer=ids[0], participants=tuple(ids),
            policy=PrivacyPolicy.ANONYMOUS_COUNT,
        ), now=0)
        for pid in reversed(ids):
            outbound, new = handle(state, RespondInvite(act.id, InviteAnswer.ACCEPT), pid, 10)
            assert outbound == [(pid, Ack("RESPOND_INVITE"))]
            records += new
        assert state.activities[act.id] is act
        assert all(
            state.presence[act.id][pid].status is ParticipantStatus.ACCEPTED for pid in ids
        )
        assert syncpoint.engine._accepted_ids(state, act) == tuple(ids)  # roster order
        assert replay(records) == state


ROSTER = ("ana", "bruno", "carla", "dana", "eli", "fay")


def _sharing(outbound) -> list[int]:
    """Which pushes share one frame: each frame numbered in order of first use."""
    seen = {}
    return [seen.setdefault(id(m), len(seen)) for _, m in outbound]


class TestArrivalAfterARestart:
    """A replayed state has no accepted roster cached, so its first arrival
    builds one from the presences; the fan-out must be the live one."""

    @given(
        order=st.permutations(ROSTER),
        answers=st.lists(
            st.sampled_from([InviteAnswer.ACCEPT, InviteAnswer.DECLINE, None]),
            min_size=len(ROSTER), max_size=len(ROSTER),
        ),
        kind=st.sampled_from([ActivityKind.MEETUP, ActivityKind.GATHERING]),
        data=st.data(),
    )
    def test_the_first_arrival_on_a_replayed_state_pushes_what_the_live_one_does(
        self, order, answers, kind, data
    ):
        answer = dict(zip(ROSTER, answers))
        accepted = [p for p in ROSTER if answer[p] is InviteAnswer.ACCEPT]
        assume(accepted)
        state, records = ServerState(), []
        # An earlier activity of some of them, so their queues differ in depth
        # and one arrival's frames alternate between seqs.
        for spec in (
            ActivitySpec(title="Earlier", window=TimeWindow(1000, 5000),
                         fence=Geofence(CENTER, 100.0, 25.0), organizer="bruno",
                         participants=("bruno", "dana", "fay")),
            ActivitySpec(title="Fair", kind=kind, window=TimeWindow(1000, 5000),
                         fence=Geofence(CENTER, 100.0, 25.0), organizer="ana",
                         participants=ROSTER, batch_threshold=1),
        ):
            act, _, new = create_activity(state, spec, now=0)
            records += new
        for who in order:
            if answer[who] is not None:
                records += handle(state, RespondInvite(act.id, answer[who]), who, 10)[1]
        who = data.draw(st.sampled_from(accepted), label="arriver")
        records += handle(state, Arm(act.id), who, 20)[1]
        handle(state, Status(act.id), who, 30)  # caches the live roster; no record

        restarted = replay(records)
        assert restarted.accepted == {} and act.id in state.accepted
        fix = Fix(act.id, at_distance(50), 2000)
        live, _ = handle(state, fix, who, 2000)
        after_restart, _ = handle(restarted, fix, who, 2000)

        assert after_restart == live  # recipients, seqs and notifications
        assert _sharing(after_restart) == _sharing(live)
        others = [p for p in accepted if kind is ActivityKind.GATHERING or p != who]
        everyone = accepted if accepted == [who] else []
        # The ack, the self-ack, then the accepted in roster order.
        assert [to for to, _ in live] == [who, who] + others + everyone
        assert restarted == state


class TestStatusInThePresence:
    """An answer moves the participant's presence; the activity stays as created."""

    @given(st.lists(
        st.tuples(st.sampled_from(["ana", "bruno", "carla", "zoe"]),
                  st.sampled_from(list(InviteAnswer))),
        max_size=8,
    ))
    def test_answers_never_rebuild_the_activity(self, answers):
        state, act, _, records = fresh()
        created = records[0].event.activity
        for now, (who, answer) in enumerate(answers, start=10):
            records += handle(state, RespondInvite(act.id, answer), who, now)[1]
            assert state.activities[act.id] is created
        assert replay(records) == state
        first = {}
        for who, answer in answers:
            first.setdefault(who, answer)
        for p in created.participants:
            expected = {InviteAnswer.ACCEPT: ParticipantStatus.ACCEPTED,
                        InviteAnswer.DECLINE: ParticipantStatus.DECLINED,
                        None: ParticipantStatus.INVITED}[first.get(p)]
            assert state.presence[act.id][p].status is expected
            assert type(p) is str  # the roster as created: ids, no answers

    def test_an_answer_drops_the_accepted_roster(self):
        state, act, _, _ = fresh()
        accept_all(state, act, ["ana", "carla"])
        handle(state, Arm(act.id), "ana", 20)
        handle(state, Fix(act.id, at_distance(50), 2000), "ana", 2000)
        assert state.accepted[act.id] == ("ana", "carla")  # built by the fan-out
        handle(state, RespondInvite(act.id, InviteAnswer.ACCEPT), "bruno", 2001)
        assert act.id not in state.accepted
        handle(state, Arm(act.id), "bruno", 2002)
        outbound, _ = handle(state, Fix(act.id, at_distance(50), 2003), "bruno", 2003)
        assert [to for to, _ in outbound] == ["bruno", "bruno", "ana", "carla"]
        assert state.accepted[act.id] == ("ana", "bruno", "carla")  # roster order


class TestEngineWrapper:
    def test_log_persistence_and_recovery(self, tmp_path):
        log = tmp_path / "events.log"
        eng = Engine(log_path=log)
        (act,), _, _ = eng.create_activities([ActivitySpec(
            title="Fair", kind=ActivityKind.MEETUP,
            window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
            organizer="ana", participants=("ana", "bruno"),
        )], now=0)
        eng.handle(RespondInvite(act.id, InviteAnswer.ACCEPT), "bruno", 5)
        eng.handle(Arm(act.id), "bruno", 6)
        eng.handle(Fix(act.id, at_distance(50), 2000), "bruno", 2000)
        eng.close()

        revived = Engine(log_path=log)
        assert revived.state == eng.state
        # New commands continue the dense index sequence.
        revived.handle(Disarm(act.id), "bruno", 2100)
        revived.close()
        records = list(load_log(log))
        assert [r.index for r in records] == list(range(len(records)))

    def test_torn_tail_is_cut_and_appends_start_on_a_fresh_line(self, tmp_path):
        log = tmp_path / "events.log"
        state = ServerState()
        records = scripted_run(state)
        text = "".join(encode_record(r) for r in records)
        log.write_text(text[:-7], encoding="utf-8")  # the last write was cut short
        eng = Engine(log_path=log)
        assert eng.torn_tail.index == len(records) - 1
        assert eng.state == replay(records[:-1])
        assert log.read_text() == text[: text.rindex("\n", 0, -1) + 1]
        eng.handle(Fix(records[0].event.activity.id, at_distance(30), 1500), "ana", 1500)
        eng.close()
        assert [r.index for r in load_log(log)] == list(range(len(records)))
        assert replay(load_log(log)) == eng.state

    def test_a_cut_anywhere_in_a_multibyte_last_record_opens_on_the_prefix(self, tmp_path):
        # A write torn inside a multi-byte character is a torn tail like
        # any other: every cut opens on the records before the torn line.
        state = ServerState()
        records = scripted_run(state)
        records += create_activity(state, ActivitySpec(
            title="Caf\u00e9 \u5bb6 \U0001F600", kind=ActivityKind.MEETUP,
            window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
            organizer="ana", participants=("ana", "bruno"),
        ), now=1500)[2]
        data = "".join(encode_record(r) for r in records).encode("utf-8")
        start = data.rindex(b"\n", 0, -1) + 1  # where the last record begins
        assert "\u00e9".encode("utf-8") in data[start:]
        log = tmp_path / "events.log"
        for cut in range(start, len(data) + 1):
            log.write_bytes(data[:cut])
            eng = Engine(log_path=log)
            eng.close()
            if cut in (start, len(data)):  # at a line boundary
                assert eng.torn_tail is None, cut
                kept = records if cut == len(data) else records[:-1]
            else:
                assert eng.torn_tail.index == len(records) - 1, cut
                kept = records[:-1]
            assert eng.state == replay(kept), cut
            assert log.read_bytes() == data[: len(data) if kept is records else start], cut

    def test_invalid_utf8_inside_the_log_is_corrupt(self, tmp_path):
        lines = [encode_record(r).encode("utf-8") for r in scripted_run(ServerState())]
        lines[2] = lines[2].replace(b'"index":2', b'"index":2,"x":"\xff"')
        log = tmp_path / "events.log"
        log.write_bytes(b"".join(lines))
        good = []
        with pytest.raises(CorruptRecord) as e:
            good.extend(load_log(log))
        assert len(good) == 2 and e.value.index == 2
        assert not isinstance(e.value, TornTail)
        with pytest.raises(CorruptRecord):
            Engine(log_path=log)

    def test_other_corrupt_lines_refuse_to_open(self, tmp_path):
        log = tmp_path / "events.log"
        lines = [encode_record(r) for r in scripted_run(ServerState())]
        lines[2] = lines[2].replace('"index":2', '"index":7')
        log.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CorruptRecord) as e:
            Engine(log_path=log)
        assert e.value.index == 2
        assert log.read_text() == "".join(lines)  # left as it was

    def test_records_reach_the_log_at_commit(self, tmp_path):
        log = tmp_path / "events.log"
        eng = Engine(log_path=log)
        (act,), _, _ = eng.create_activities([ActivitySpec(
            title="Fair", kind=ActivityKind.MEETUP,
            window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
            organizer="ana", participants=("ana", "bruno"),
        )], now=0)
        eng.handle(RespondInvite(act.id, InviteAnswer.ACCEPT), "bruno", 5)
        eng.handle(Poll(0), "bruno", 6)  # polls append no record
        assert log.read_text() == ""
        eng.commit()
        assert [type(r.event) for r in load_log(log)] == [ActivityCreated, InviteResponded]
        eng.commit()  # nothing new: nothing written
        eng.handle(Arm(act.id), "bruno", 7)
        eng.close()  # closing commits
        assert [r.index for r in load_log(log)] == [0, 1, 2]
        assert replay(load_log(log)) == eng.state


class TestOneWriter:
    """A log has one writer: an ``Engine`` holds its lock from open to close."""

    def opened(self, log):
        eng = Engine(log_path=log)
        eng.create_activities([ActivitySpec(
            title="Fair", kind=ActivityKind.MEETUP,
            window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0, 25.0),
            organizer="ana", participants=("ana", "bruno"),
        )], now=0)
        eng.commit()
        return eng

    def test_a_second_engine_on_the_log_is_refused_until_the_first_closes(self, tmp_path):
        log = tmp_path / "events.log"
        first = self.opened(log)
        before = log.read_bytes()
        with raises_code("LOG_IN_USE", match="another writer"):
            Engine(log_path=log)
        assert log.read_bytes() == before
        assert replay(load_log(log)) == first.state  # readers take no lock
        first.close()
        second = Engine(log_path=log)
        assert second.state == first.state
        second.close()

    def test_a_torn_tail_is_not_cut_while_another_engine_holds_the_log(self, tmp_path):
        log = tmp_path / "events.log"
        first = self.opened(log)
        with open(log, "ab") as fh:  # as if the holder were half-way through a write
            fh.write(b'{"type":"ARMED"')
        before = log.read_bytes()
        with raises_code("LOG_IN_USE"):
            Engine(log_path=log)
        assert log.read_bytes() == before
        first.close()

    def test_the_lock_dies_with_a_killed_holder(self, tmp_path):
        log = tmp_path / "events.log"
        self.opened(log).close()
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, time; from syncpoint.engine import Engine; "
             "held = Engine(log_path=sys.argv[1]); print('open', flush=True); time.sleep(60)",
             str(log)],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline() == "open\n"
            with raises_code("LOG_IN_USE"):
                Engine(log_path=log)
        finally:
            holder.kill()
            holder.wait()
            holder.stdout.close()
        Engine(log_path=log).close()


class TestDraftEquivalence:
    """A calendar event parses to the very spec a caller would write."""

    def test_ics_draft_and_direct_creation_agree(self):
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\n"
            "UID:epoch-1@example.org\r\nSUMMARY:Fair\r\n"
            "DTSTART:1000\r\nDTEND:5000\r\nGEO:41.5606;-8.3970\r\n"
            "X-SYNC-TYPE:GATHERING\r\nX-SYNC-RADIUS:80\r\n"
            "X-SYNC-PRIVACY:ANONYMOUS\r\nX-SYNC-BATCH:2\r\n"
            "ORGANIZER:mailto:ana@x\r\n"
            "ATTENDEE:mailto:bruno@x\r\nATTENDEE:mailto:ana@x\r\n"
            "ATTENDEE:mailto:sync@svc\r\nATTENDEE:mailto:carla@x\r\n"
            "END:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        (spec,) = parse_ics(text, "mailto:sync@svc").drafts
        # The organizer leads the roster; the other attendees keep their order.
        assert spec == ActivitySpec(
            title="Fair", kind=ActivityKind.GATHERING,
            window=TimeWindow(1000, 5000),
            fence=Geofence(GeoPoint(41.5606, -8.3970), 80.0, 25.0),
            organizer="ana@x", participants=("ana@x", "bruno@x", "carla@x"),
            policy=PrivacyPolicy.ANONYMOUS_COUNT, batch_threshold=2,
            calendar_uid="epoch-1@example.org",
        )
        act, _, _ = create_activity(ServerState(), spec, now=0)
        assert act.calendar_uid == "epoch-1@example.org"

    def test_calendar_scenario_and_bare_spec_build_equal_activities(self):
        # None of the three states kind, policy, radius, hysteresis or batch.
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\n"
            "UID:epoch-1@example.org\r\nSUMMARY:Fair\r\n"
            "DTSTART:1000\r\nDTEND:5000\r\nGEO:41.5606;-8.3970\r\n"
            "ORGANIZER:mailto:ana@x\r\n"
            "ATTENDEE:mailto:bruno@x\r\nATTENDEE:mailto:ana@x\r\n"
            "ATTENDEE:mailto:sync@svc\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        (from_ics,) = parse_ics(text, "mailto:sync@svc").drafts
        (from_scenario,) = scenario_from_dict({
            "seed": 1, "fix_period_s": 10, "horizon": 0,
            "activities": [{
                "title": "Fair", "start": 1000, "end": 5000,
                "lat": 41.5606, "lon": -8.3970,
                "organizer": "ana@x", "participants": ["ana@x", "bruno@x"],
            }],
        }).activities
        bare = ActivitySpec(
            title="Fair", window=TimeWindow(1000, 5000),
            fence=Geofence(GeoPoint(41.5606, -8.3970)),
            organizer="ana@x", participants=("ana@x", "bruno@x"),
        )
        assert from_ics.calendar_uid == "epoch-1@example.org"
        assert dataclasses.replace(from_ics, calendar_uid=None) == from_scenario == bare
        act_bare, _, _ = create_activity(ServerState(), bare, now=0)
        assert (act_bare.kind, act_bare.policy, act_bare.batch_threshold) == (
            ActivityKind.MEETUP, PrivacyPolicy.DISCLOSE_IDENTITY, 1,
        )
        assert act_bare.fence == Geofence(GeoPoint(41.5606, -8.3970), 100.0, 25.0)
