"""Alarm state machine: arming, disarming, and arrival detection.

Each rule is checked where it runs: ARM, DISARM and FIX commands go through
``engine.handle``, and arrivals are read from the records it appends.
"""

import random

from hypothesis import given, strategies as st

from genmsg import CENTER, at_distance
from syncpoint.activities import ActivityKind, ActivitySpec, InviteAnswer, TimeWindow
from syncpoint.engine import ServerState, create_activity, handle
from syncpoint.eventlog import ArmCleared, ArrivalRecorded
from syncpoint.geo import Geofence, Zone
from syncpoint.presence import Alarm
from syncpoint.wire import Ack, Arm, Disarm, Err, Fix, RespondInvite

FENCE = Geofence(CENTER, 100.0, 25.0)


def server():
    """A server state holding one activity that bruno has accepted; returns
    the state and the activity id."""
    state = ServerState()
    act, _, _ = create_activity(
        state,
        ActivitySpec(
            title="Fair",
            kind=ActivityKind.MEETUP,
            window=TimeWindow(1000, 5000),
            fence=FENCE,
            organizer="ana",
            participants=("ana", "bruno", "carla"),
        ),
        now=0,
    )
    handle(state, RespondInvite(act.id, InviteAnswer.ACCEPT), "bruno", 0)
    return state, act.id


def send(state, msg, who="bruno", now=0):
    """One command through ``engine.handle``: the reply to the sender, and the
    arrivals it recorded. An errored command records nothing."""
    outbound, records = handle(state, msg, who, now)
    reply = outbound[0][1]
    assert records == [] or not isinstance(reply, Err)
    return reply, [r.event for r in records if isinstance(r.event, ArrivalRecorded)]


def alarm(state, aid, who="bruno"):
    return state.presence[aid][who].alarm


def seen(state, aid, who="bruno"):
    """The participant's alarm and the zone they were last seen in."""
    pp = state.presence[aid][who]
    return pp.alarm, pp.zone


def armed(zone):
    """bruno armed in ``zone``: a fix at 10 m before arming seeds Inside."""
    state, aid = server()
    if zone is Zone.INSIDE:
        send(state, Fix(aid, at_distance(10), 1500), now=1500)
    send(state, Arm(aid))
    assert seen(state, aid) == (Alarm.ARMED, zone)
    return state, aid


def arrived():
    """bruno armed Outside, then arrived on a fix at 50 m."""
    state, aid = armed(Zone.OUTSIDE)
    assert send(state, Fix(aid, at_distance(50), 2000), now=2000)[1] != []
    return state, aid


ALREADY_ARMED = Err("ALREADY_ARMED", "alarm is already armed or the participant has arrived")


class TestArm:
    def test_arm_outside(self):
        armed(Zone.OUTSIDE)  # checks bruno's alarm and zone after an ARM

    def test_arm_inside_emits_nothing(self):
        # Arming on site must not become an arrival; the presence just
        # remembers the zone so only a later exit/re-entry can trigger.
        state, aid = server()
        send(state, Fix(aid, at_distance(10), 1500), now=1500)
        assert send(state, Arm(aid))[1] == []
        assert seen(state, aid) == (Alarm.ARMED, Zone.INSIDE)

    def test_arm_twice(self):
        state, aid = armed(Zone.OUTSIDE)
        assert handle(state, Arm(aid), "bruno", 1) == ([("bruno", ALREADY_ARMED)], [])
        assert alarm(state, aid) is Alarm.ARMED

    def test_arm_after_arrival(self):
        state, aid = arrived()
        assert handle(state, Arm(aid), "bruno", 2001) == ([("bruno", ALREADY_ARMED)], [])
        assert alarm(state, aid) is Alarm.ARRIVED


class TestDisarm:
    def test_disarm_armed(self):
        state, aid = armed(Zone.OUTSIDE)
        outbound, records = handle(state, Disarm(aid), "bruno", 1)
        assert outbound == [("bruno", Ack("DISARM"))]
        assert [r.event for r in records] == [ArmCleared(aid, "bruno")]
        assert alarm(state, aid) is Alarm.DISARMED

    def test_disarm_idempotent(self):
        state, aid = server()
        assert handle(state, Disarm(aid), "bruno", 1) == ([("bruno", Ack("DISARM"))], [])
        assert alarm(state, aid) is Alarm.DISARMED

    def test_arrived_is_terminal(self):
        state, aid = arrived()
        assert handle(state, Disarm(aid), "bruno", 2001) == ([("bruno", Ack("DISARM"))], [])
        assert alarm(state, aid) is Alarm.ARRIVED


class TestIngestFix:
    """One FIX through the engine, against each alarm state."""

    def fix(self, state, aid, d, t=2000, who="bruno"):
        return send(state, Fix(aid, at_distance(d), t), who, t)

    def test_entry_while_armed_outside(self):
        state, aid = armed(Zone.OUTSIDE)
        _, events = self.fix(state, aid, 50)
        assert alarm(state, aid) == Alarm.ARRIVED
        assert events == [ArrivalRecorded(aid, "bruno", 2000)]

    def test_armed_inside_absorbs_inside_fixes(self):
        state, aid = armed(Zone.INSIDE)
        _, events = self.fix(state, aid, 50)
        assert seen(state, aid) == (Alarm.ARMED, Zone.INSIDE)
        assert events == []

    def test_fix_before_window_ignored(self):
        state, aid = armed(Zone.OUTSIDE)
        _, events = self.fix(state, aid, 50, t=999)
        assert seen(state, aid) == (Alarm.ARMED, Zone.OUTSIDE)
        assert events == []

    def test_fix_after_window_ignored(self):
        state, aid = armed(Zone.OUTSIDE)
        _, events = self.fix(state, aid, 50, t=5000)
        assert seen(state, aid) == (Alarm.ARMED, Zone.OUTSIDE)
        assert events == []

    def test_not_accepted_rejected(self):
        state, aid = armed(Zone.OUTSIDE)
        reply, _ = self.fix(state, aid, 50, who="carla")
        assert reply.code == "NOT_ACCEPTED"
        reply, _ = self.fix(state, aid, 50, who="nobody")
        assert reply.code == "NOT_A_PARTICIPANT"

    def test_disarmed_and_arrived_absorb(self):
        state, aid = server()
        assert self.fix(state, aid, 50)[1] == []
        assert alarm(state, aid) == Alarm.DISARMED
        state, aid = armed(Zone.OUTSIDE)
        self.fix(state, aid, 50, t=1500)
        assert alarm(state, aid) == Alarm.ARRIVED
        assert self.fix(state, aid, 50)[1] == []
        assert alarm(state, aid) == Alarm.ARRIVED

    def test_exit_updates_zone_without_event(self):
        state, aid = armed(Zone.INSIDE)
        _, events = self.fix(state, aid, 200)
        assert seen(state, aid) == (Alarm.ARMED, Zone.OUTSIDE)
        assert events == []

    def test_arrival_timestamp_is_fix_timestamp(self):
        state, aid = armed(Zone.OUTSIDE)
        _, events = self.fix(state, aid, 10, t=3333)
        assert events[0].arrived_at == 3333
        assert alarm(state, aid) == Alarm.ARRIVED


def run_trace(trace):
    """Send a (time, distance, action) trace as bruno's ARM, DISARM and FIX
    commands, each at its time; returns bruno's alarm and zone, and the
    arrivals recorded. A fix not after bruno's last accepted one is stale and must
    be inert.
    """
    state, aid = server()
    arrivals = []
    for t, d, action in trace:
        if action == "arm":
            msg = Arm(aid)
        elif action == "disarm":
            msg = Disarm(aid)
        else:
            msg = Fix(aid, at_distance(d), t)
        reply, events = send(state, msg, now=t)
        if isinstance(reply, Err) and action == "fix":
            assert reply.code == "STALE_FIX" and events == []
        arrivals.extend(events)
    return seen(state, aid), arrivals


class TestTraceProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6000),
                st.floats(min_value=0, max_value=400, allow_nan=False),
                st.sampled_from(["fix", "fix", "fix", "arm", "disarm"]),
            ),
            max_size=40,
        )
    )
    def test_at_most_one_arrival(self, steps):
        trace = sorted(steps, key=lambda s: s[0])
        _, events = run_trace(trace)
        assert len(events) <= 1

    def test_ten_thousand_random_traces_single_arrival(self):
        rng = random.Random(20260811)
        for _ in range(2000):
            trace = sorted(
                (
                    rng.randint(0, 6000),
                    rng.uniform(0, 400),
                    rng.choice(["fix", "fix", "fix", "arm", "disarm"]),
                )
                for _ in range(rng.randint(1, 30))
            )
            _, events = run_trace(trace)
            assert len(events) <= 1

    def test_armed_inside_never_leaving_never_arrives(self):
        # The on-site arming trap: inside the whole time, no event ever.
        trace = [(1000, 20, "fix"), (1001, 30, "arm")] + [
            (1000 + i, 40, "fix") for i in range(2, 30)
        ]
        state, events = run_trace(trace)
        assert events == []
        assert state == (Alarm.ARMED, Zone.INSIDE)

    def test_noise_within_hysteresis_after_entry_single_arrival(self):
        rng = random.Random(7)
        trace = [(1100, 300, "arm"), (1100, 300, "fix"), (1160, 50, "fix")]
        # Oscillate across the radius with amplitude < hysteresis.
        trace += [
            (1200 + 10 * i, 100 + rng.uniform(-20, 20), "fix") for i in range(50)
        ]
        _, events = run_trace(trace)
        assert len(events) == 1
        assert events[0].arrived_at == 1160
