"""Notification fanout, privacy policy, and gathering batching."""

import json

from genmsg import dumps_canonical, notification_fields
from hypothesis import given, strategies as st

from syncpoint.activities import (
    ActivityKind,
    ActivitySpec,
    PrivacyPolicy,
    TimeWindow,
    new_activity,
)
from syncpoint.geo import Geofence, GeoPoint
from syncpoint.notify import (
    AllArrived,
    ArrivalNotice,
    GatheringUpdate,
    Invitation,
    SelfArrivalAck,
    TaskDoneNotice,
    on_arrival,
    on_invite,
    on_task_done,
    render_identity,
)

FENCE = Geofence(GeoPoint(41.5606, -8.3970), 100.0)


def pairs(fanout):
    """A fan-out flattened to (recipient, notification) pairs, in delivery order."""
    return [(who, n) for n, recipients in fanout for who in recipients]


def make(kind=ActivityKind.MEETUP, participants=("ana", "bruno", "carla"),
         organizer="ana", policy=PrivacyPolicy.DISCLOSE_IDENTITY, batch=None):
    return new_activity(ActivitySpec(
        title="Fair",
        kind=kind,
        window=TimeWindow(1000, 5000),
        fence=FENCE,
        organizer=organizer,
        participants=tuple(participants),
        policy=policy,
        batch_threshold=batch,
    ), "a1")


class TestOnInvite:
    def test_organizer_excluded(self):
        fanout = pairs(on_invite(make()))
        assert [r for r, _ in fanout] == ["bruno", "carla"]
        assert all(isinstance(n, Invitation) for _, n in fanout)

    def test_two_party_activity(self):
        fanout = pairs(on_invite(make(participants=("ana", "bruno"))))
        assert [r for r, _ in fanout] == ["bruno"]

    def test_summary_contents(self):
        act = make()
        (_, inv), *_ = pairs(on_invite(act))
        s = inv.summary
        assert s.activity == act.id
        assert (s.title, s.kind, s.start, s.end) == ("Fair", ActivityKind.MEETUP, 1000, 5000)


class TestRenderIdentity:
    def test_disclose(self):
        assert render_identity(PrivacyPolicy.DISCLOSE_IDENTITY, "mario") == "mario"

    def test_anonymous(self):
        assert render_identity(PrivacyPolicy.ANONYMOUS_COUNT, "mario") is None


class TestOnArrival:
    def test_meetup_first_arrival(self):
        act = make()
        fanout = pairs(on_arrival(act, ("ana", "bruno", "carla"), "bruno", 1, at=2000))
        assert fanout[0] == ("bruno", SelfArrivalAck(act.id, 2000))
        notices = [(r, n) for r, n in fanout[1:]]
        assert notices == [
            ("ana", ArrivalNotice(act.id, 2000, "bruno")),
            ("carla", ArrivalNotice(act.id, 2000, "bruno")),
        ]

    def test_anonymous_policy_strips_identity(self):
        act = make(policy=PrivacyPolicy.ANONYMOUS_COUNT, participants=("ana", "bruno", "carla"))
        fanout = pairs(on_arrival(act, ("ana", "bruno"), "bruno", 1, at=2000))
        notice = dict(fanout)["ana"]
        assert notice.identity is None

    def test_gathering_batches_on_threshold(self):
        act = make(kind=ActivityKind.GATHERING,
                   participants=tuple(f"g{i:02d}" for i in range(1, 13)) + ("hq",),
                   organizer="hq")
        accepted = tuple(f"g{i:02d}" for i in range(1, 13))
        fourth = pairs(on_arrival(act, accepted, "g04", 4, at=900))
        assert fourth == [("g04", SelfArrivalAck(act.id, 900))]
        fifth = pairs(on_arrival(act, accepted, "g05", 5, at=960))
        assert fifth[0] == ("g05", SelfArrivalAck(act.id, 960))
        updates = fifth[1:]
        assert [r for r, _ in updates] == [f"g{i:02d}" for i in range(1, 13)]
        assert all(n == GatheringUpdate(act.id, 5) for _, n in updates)

    def test_gathering_never_sends_arrival_notices(self):
        act = make(kind=ActivityKind.GATHERING)
        fanout = pairs(on_arrival(act, ("ana", "bruno", "carla"), "ana", 1, at=2000))
        assert not any(isinstance(n, ArrivalNotice) for _, n in fanout)

    def test_all_arrived_on_last(self):
        act = make(participants=("ana", "bruno"))
        second = pairs(on_arrival(act, ("ana", "bruno"), "ana", 2, at=2500))
        assert second == [
            ("ana", SelfArrivalAck(act.id, 2500)),
            ("bruno", ArrivalNotice(act.id, 2500, "ana")),
            ("ana", AllArrived(act.id, 2500)),
            ("bruno", AllArrived(act.id, 2500)),
        ]

    def test_updates_and_all_arrived_go_to_the_accepted_tuple_itself(self):
        act = make(kind=ActivityKind.GATHERING, batch=1)
        accepted = ("ana", "bruno", "carla")
        fanout = on_arrival(act, accepted, "ana", 3, at=2000)
        assert [type(n) for n, _ in fanout] == [SelfArrivalAck, GatheringUpdate, AllArrived]
        assert all(recipients is accepted for _, recipients in fanout[1:])

    def test_non_responders_excluded_from_all_arrived(self):
        # carla never answered: two accepted arrivals complete the group.
        act = make()
        second = pairs(on_arrival(act, ("ana", "bruno"), "ana", 2, at=2500))
        assert ("ana", AllArrived(act.id, 2500)) in second
        assert not any(r == "carla" for r, _ in second)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=8))
    def test_gathering_updates_only_at_multiples(self, total, batch):
        guests = tuple(f"g{i:02d}" for i in range(1, 45))
        act = make(kind=ActivityKind.GATHERING, participants=guests + ("hq",),
                   organizer="hq", batch=batch)
        fanout = pairs(on_arrival(act, guests, "g01", total, at=100 + total))
        has_update = any(isinstance(n, GatheringUpdate) for _, n in fanout)
        assert has_update == (total % batch == 0)


class TestOnTaskDone:
    def test_task_done_to_other_parent(self):
        act = make(kind=ActivityKind.TASK, participants=("p1", "p2"), organizer="p1")
        fanout = pairs(on_task_done(act, ("p1", "p2"), "p1", at=2400))
        assert fanout == [("p2", TaskDoneNotice(act.id, 2400, "p1"))]

    def test_anonymous_task_done(self):
        act = make(kind=ActivityKind.TASK, participants=("p1", "p2"),
                   organizer="p1", policy=PrivacyPolicy.ANONYMOUS_COUNT)
        fanout = pairs(on_task_done(act, ("p1", "p2"), "p1", at=2400))
        assert fanout[0][1].identity is None


roster = st.lists(
    st.text(alphabet="abcdef", min_size=2, max_size=4), min_size=2, max_size=8,
    unique=True,
)


class TestInvariants:
    @given(roster, st.integers(min_value=1, max_value=8), st.booleans())
    def test_no_coordinates_and_no_arriver_echo(self, participants, total, anon):
        policy = PrivacyPolicy.ANONYMOUS_COUNT if anon else PrivacyPolicy.DISCLOSE_IDENTITY
        act = make(participants=tuple(participants), organizer=participants[0], policy=policy)
        arriver = participants[total % len(participants)]
        fanout = pairs(on_arrival(
            act, tuple(participants), arriver, min(total, len(participants)), at=2000
        ))
        for recipient, n in fanout:
            payload = notification_fields(n)
            flat = json.dumps(payload)
            assert "lat" not in payload and "lon" not in payload
            assert str(FENCE.center.lat) not in flat
            if isinstance(n, ArrivalNotice):
                assert recipient != arriver

    @given(roster)
    def test_anonymous_serialization_carries_no_ids(self, participants):
        act = make(participants=tuple(participants), organizer=participants[0],
                   policy=PrivacyPolicy.ANONYMOUS_COUNT)
        fanout = pairs(on_arrival(
            act, tuple(participants), participants[-1], len(participants), at=2000
        ))
        fanout += pairs(on_invite(act))
        for _, n in fanout:
            body = dumps_canonical(notification_fields(n))
            for pid in participants:
                assert f'"{pid}"' not in body
