"""Activity domain types and lifecycle operations."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from codes import raises_code

from syncpoint.activities import (
    ActivityKind,
    ActivityPhase,
    ActivitySpec,
    InviteAnswer,
    ParticipantStatus,
    PrivacyPolicy,
    TimeWindow,
    new_activity,
    phase_at,
    respond_invitation,
)
from syncpoint.engine import ServerState, create_activity, handle
from syncpoint.errors import SyncError
from syncpoint.geo import Geofence, GeoPoint
from syncpoint.wire import Err, RespondInvite

FENCE = Geofence(GeoPoint(41.5606, -8.3970), 100.0, 25.0)


def make(activity_id="fair", **overrides):
    spec = dict(
        title="Fair",
        kind=ActivityKind.MEETUP,
        window=TimeWindow(1000, 5000),
        fence=FENCE,
        organizer="ana",
        participants=("ana", "bruno", "carla"),
    )
    spec.update(overrides)
    return new_activity(ActivitySpec(**spec), activity_id)


class TestNewActivity:
    def test_valid_meetup(self):
        act = make()
        assert act.id
        assert phase_at(act, 0) is ActivityPhase.SCHEDULED
        assert act.participants == ("ana", "bruno", "carla")
        state = ServerState()  # each answer is the engine's, and starts INVITED
        created, _, _ = create_activity(state, ActivitySpec(
            title="Fair", window=act.window, fence=FENCE, organizer="ana",
            participants=act.participants,
        ), now=0)
        assert all(pp.status is ParticipantStatus.INVITED
                   for pp in state.presence[created.id].values())
        assert act.batch_threshold == 1
        assert act.policy is PrivacyPolicy.DISCLOSE_IDENTITY

    def test_window_end_equals_start(self):
        with raises_code("WINDOW_INVALID"):
            TimeWindow(1000, 1000)

    def test_window_negative_time(self):
        with raises_code("WINDOW_INVALID"):
            TimeWindow(-1, 1000)

    def test_gathering_batch_defaults_to_five(self):
        act = make(kind=ActivityKind.GATHERING)
        assert act.batch_threshold == 5

    def test_explicit_batch_kept(self):
        act = make(kind=ActivityKind.GATHERING, batch_threshold=3)
        assert act.batch_threshold == 3

    def test_batch_below_one_rejected(self):
        with raises_code("BATCH_THRESHOLD_INVALID"):
            make(batch_threshold=0)

    @pytest.mark.parametrize("batch", [True, False])
    def test_a_boolean_batch_is_rejected(self, batch):
        with raises_code("BATCH_THRESHOLD_INVALID"):
            make(kind=ActivityKind.GATHERING, batch_threshold=batch)

    @pytest.mark.parametrize("field,code", [
        ("title", "TITLE_INVALID"),
        ("participant", "DUPLICATE_PARTICIPANT"),
        ("organizer", "ORGANIZER_NOT_PARTICIPANT"),
    ])
    def test_a_string_utf8_cannot_encode_is_rejected(self, field, code):
        lone = "\ud800"
        spec = {
            "title": {"title": lone},
            "participant": {"participants": ("ana", lone)},
            "organizer": {"organizer": lone},
        }[field]
        with raises_code(code, match="ud800"):
            make(**spec)

    def test_too_few_participants(self):
        with raises_code("TOO_FEW_PARTICIPANTS"):
            make(participants=("ana",), organizer="ana")

    @pytest.mark.parametrize("title", [5, None, b"Fair"])
    def test_a_title_that_is_not_a_string_is_rejected(self, title):
        with raises_code("TITLE_INVALID"):
            make(title=title)

    def test_duplicate_participant(self):
        with raises_code("DUPLICATE_PARTICIPANT"):
            make(participants=("ana", "bruno", "ana"))

    def test_empty_participant_id(self):
        with raises_code("DUPLICATE_PARTICIPANT"):
            make(participants=("ana", ""))

    def test_organizer_must_participate(self):
        with raises_code("ORGANIZER_NOT_PARTICIPANT"):
            make(organizer="zoe")

    @pytest.mark.parametrize("organizer", [["ana"], None])
    def test_an_organizer_that_is_not_a_string_is_rejected(self, organizer):
        with raises_code("ORGANIZER_NOT_PARTICIPANT"):
            make(organizer=organizer)

    def test_caller_supplied_id(self):
        assert make(activity_id="a1").id == "a1"


class TestRespondInvitation:
    def test_accept(self):
        assert respond_invitation(InviteAnswer.ACCEPT) is ParticipantStatus.ACCEPTED

    def test_decline(self):
        assert respond_invitation(InviteAnswer.DECLINE) is ParticipantStatus.DECLINED

    # Who may answer is checked once, by the engine's command dispatch;
    # respond_invitation only names the status an answer leaves.

    def served(self):
        state = ServerState()
        act, _, _ = create_activity(state, ActivitySpec(
            title="Fair", kind=ActivityKind.MEETUP,
            window=TimeWindow(1000, 5000), fence=FENCE, organizer="ana",
            participants=("ana", "bruno", "carla"),
        ), now=0)
        return state, act.id

    def test_unknown_participant(self):
        state, aid = self.served()
        assert handle(state, RespondInvite(aid, InviteAnswer.ACCEPT), "zz", 10) == (
            [("zz", Err("NOT_A_PARTICIPANT", f"'zz' is not a participant of {aid}"))], []
        )

    def test_everything_else_unchanged(self):
        state, aid = self.served()
        before = state.activities[aid]
        handle(state, RespondInvite(aid, InviteAnswer.ACCEPT), "bruno", 10)
        assert state.activities[aid] is before
        assert state.presence[aid]["bruno"].status is ParticipantStatus.ACCEPTED
        assert state.presence[aid]["carla"].status is ParticipantStatus.INVITED
        assert before.participants == ("ana", "bruno", "carla")  # as created

    def test_indexed_activity_equals_a_fresh_one(self):
        indexed = make(activity_id="a1")
        assert indexed.participant("carla") is True
        assert indexed.participant("zoe") is False
        fresh = replace(indexed, participants=tuple(indexed.participants))
        assert indexed == fresh and hash(indexed) == hash(fresh)
        assert repr(indexed) == repr(fresh)
        assert "_members" not in repr(indexed)

    @pytest.mark.parametrize("first", [InviteAnswer.ACCEPT, InviteAnswer.DECLINE])
    @pytest.mark.parametrize("second", [InviteAnswer.ACCEPT, InviteAnswer.DECLINE])
    def test_second_response_always_rejected(self, first, second):
        state, aid = self.served()
        handle(state, RespondInvite(aid, first), "bruno", 10)
        status = "ACCEPTED" if first is InviteAnswer.ACCEPT else "DECLINED"
        assert handle(state, RespondInvite(aid, second), "bruno", 11) == (
            [("bruno", Err("ALREADY_RESPONDED", f"'bruno' already responded ({status})"))], []
        )


class TestPhase:
    @pytest.mark.parametrize(
        "now,phase",
        [
            (999, ActivityPhase.SCHEDULED),
            (1000, ActivityPhase.ACTIVE),
            (4999, ActivityPhase.ACTIVE),
            (5000, ActivityPhase.ENDED),
            (0, ActivityPhase.SCHEDULED),
        ],
    )
    def test_boundaries(self, now, phase):
        assert phase_at(make(), now) is phase

    @given(st.integers(min_value=0, max_value=10_000))
    def test_exactly_one_phase(self, now):
        act = make()
        phase = phase_at(act, now)
        expected = (
            ActivityPhase.SCHEDULED
            if now < 1000
            else ActivityPhase.ACTIVE if now < 5000 else ActivityPhase.ENDED
        )
        assert phase is expected


# Random spec generator, valid and invalid alike: accepted specs must
# satisfy every invariant, rejected ones must raise a named violation.
ids = st.text(alphabet="abcdefgh", min_size=0, max_size=3)
NAMED_VIOLATIONS = {
    "WINDOW_INVALID", "FENCE_INVALID", "FIELD_INVALID", "TOO_FEW_PARTICIPANTS",
    "DUPLICATE_PARTICIPANT", "ORGANIZER_NOT_PARTICIPANT", "BATCH_THRESHOLD_INVALID",
}


@given(
    start=st.integers(min_value=-5, max_value=100),
    duration=st.integers(min_value=-5, max_value=100),
    lat=st.floats(min_value=-100, max_value=100, allow_nan=False),
    radius=st.floats(min_value=-10, max_value=500, allow_nan=False),
    kind=st.sampled_from(list(ActivityKind)),
    participants=st.lists(ids, min_size=0, max_size=6),
    organizer=ids,
    batch=st.one_of(st.none(), st.integers(min_value=-2, max_value=8)),
)
def test_new_activity_total_validation(
    start, duration, lat, radius, kind, participants, organizer, batch
):
    try:
        act = new_activity(ActivitySpec(
            title="t",
            kind=kind,
            window=TimeWindow(start, start + duration),
            fence=Geofence(GeoPoint(lat, 8.0), radius),
            organizer=organizer,
            participants=tuple(participants),
            batch_threshold=batch,
        ), "t")
    except SyncError as e:
        if e.code in NAMED_VIOLATIONS:
            return  # rejected with a named violation
        pytest.fail(f"unnamed violation: {e.code}: {e.detail}")  # pragma: no cover
    # Accepted: all invariants must hold.
    assert act.window.start < act.window.end >= 0
    assert act.fence.radius_m > 0
    assert len(act.participants) >= 2
    seen = list(act.participants)
    assert len(seen) == len(set(seen))
    assert act.organizer in seen
    assert act.batch_threshold >= 1
    if kind is ActivityKind.GATHERING and batch is None:
        assert act.batch_threshold == 5
