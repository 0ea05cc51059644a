"""Domain types for synchronised activities.

An activity is a planned social event with a time window, a geofence, and a
participant list. Everything here is a pure value: operations return new
``Activity`` instances and never mutate their inputs.

Time is integer Unix seconds, UTC. The activity phase is always derived
from (window, now) — it is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import SyncError
from .geo import Geofence

DEFAULT_GATHERING_BATCH = 5


class WindowInvalid(SyncError):
    code = "WINDOW_INVALID"


class TooFewParticipants(SyncError):
    code = "TOO_FEW_PARTICIPANTS"


class DuplicateParticipant(SyncError):
    code = "DUPLICATE_PARTICIPANT"


class OrganizerNotParticipant(SyncError):
    code = "ORGANIZER_NOT_PARTICIPANT"


class BatchThresholdInvalid(SyncError):
    code = "BATCH_THRESHOLD_INVALID"


class TitleInvalid(SyncError):
    code = "TITLE_INVALID"


class ActivityKind(str, Enum):
    MEETUP = "MEETUP"
    GATHERING = "GATHERING"
    PICKUP = "PICKUP"
    TASK = "TASK"


class PrivacyPolicy(str, Enum):
    DISCLOSE_IDENTITY = "IDENTITY"
    ANONYMOUS_COUNT = "ANONYMOUS"


class ParticipantStatus(str, Enum):
    INVITED = "INVITED"
    ACCEPTED = "ACCEPTED"
    DECLINED = "DECLINED"


class InviteAnswer(str, Enum):
    ACCEPT = "ACCEPT"
    DECLINE = "DECLINE"


class ActivityPhase(str, Enum):
    SCHEDULED = "SCHEDULED"
    ACTIVE = "ACTIVE"
    ENDED = "ENDED"


def validate_timestamp(seconds: int, what: str = "timestamp") -> int:
    if not isinstance(seconds, int) or isinstance(seconds, bool):
        raise WindowInvalid(f"{what} must be an integer, got {seconds!r}")
    if seconds < 0:
        raise WindowInvalid(f"{what} must be non-negative, got {seconds}")
    return seconds


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """Half-open activity window: start inclusive, end exclusive."""

    start: int
    end: int

    def __post_init__(self):
        validate_timestamp(self.start, "start")
        validate_timestamp(self.end, "end")
        if not self.start < self.end:
            raise WindowInvalid(f"start {self.start} must be < end {self.end}")


@dataclass(frozen=True, slots=True)
class ParticipantRecord:
    id: str
    status: ParticipantStatus = ParticipantStatus.INVITED


@dataclass(frozen=True)
class Activity:
    """An activity value.

    Participant lookups go through an id->position index and the accepted
    roster is cached; both are built at most once per instance and live
    outside the dataclass fields, so equality, hashing and every encoding
    see only the fields.

    Every other dataclass of the package declares ``slots=True``, so its
    instances carry no ``__dict__``. ``Activity`` is the one exception: its
    cached index and roster live in its ``__dict__``, which
    ``respond_invitation`` copies to build the updated value.
    """

    id: str
    title: str
    kind: ActivityKind
    window: TimeWindow
    fence: Geofence
    organizer: str
    participants: tuple[ParticipantRecord, ...]
    policy: PrivacyPolicy
    batch_threshold: int
    calendar_uid: str | None = None

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {p.id: i for i, p in enumerate(self.participants)}

    @cached_property
    def _accepted(self) -> tuple[str, ...]:
        return tuple(
            p.id for p in self.participants
            if p.status is ParticipantStatus.ACCEPTED
        )

    def participant(self, participant_id: str) -> ParticipantRecord | None:
        i = self._positions.get(participant_id)
        return None if i is None else self.participants[i]

    def accepted_ids(self) -> tuple[str, ...]:
        return self._accepted


@dataclass(frozen=True, slots=True)
class ActivitySpec:
    """An activity as its organiser describes it, before the server names it.

    ``participants`` is the roster in order, organizer included. Kind and
    policy default here, radius and hysteresis on ``Geofence``, and the
    batch threshold in ``new_activity``, by kind.
    """

    title: str
    window: TimeWindow
    fence: Geofence
    organizer: str
    participants: tuple[str, ...]
    kind: ActivityKind = ActivityKind.MEETUP
    policy: PrivacyPolicy = PrivacyPolicy.DISCLOSE_IDENTITY
    batch_threshold: int | None = None
    calendar_uid: str | None = None


def new_activity(spec: ActivitySpec, activity_id: str) -> Activity:
    """Validate an activity spec and build the activity.

    All participants (organizer included) start as Invited. A missing
    batch threshold defaults to 5 for Gathering activities and 1 for every
    other kind. The caller names the activity: the server allocates ids
    from its state, so that logs and transcripts are reproducible.
    """
    if not isinstance(spec.title, str):
        raise TitleInvalid(f"title must be a string, got {spec.title!r}")
    ids = list(spec.participants)
    seen = set()
    for pid in ids:
        if not isinstance(pid, str) or not pid:
            raise DuplicateParticipant(f"participant id must be a non-empty string, got {pid!r}")
        if pid in seen:
            raise DuplicateParticipant(f"participant {pid!r} listed twice")
        seen.add(pid)
    if len(ids) < 2:
        raise TooFewParticipants(f"need at least 2 participants, got {len(ids)}")
    if spec.organizer not in seen:
        raise OrganizerNotParticipant(f"organizer {spec.organizer!r} not in participant list")
    batch_threshold = spec.batch_threshold
    if batch_threshold is None:
        batch_threshold = (
            DEFAULT_GATHERING_BATCH if spec.kind is ActivityKind.GATHERING else 1
        )
    if not isinstance(batch_threshold, int) or batch_threshold < 1:
        raise BatchThresholdInvalid(
            f"batch threshold must be an integer >= 1, got {batch_threshold!r}"
        )
    return Activity(
        id=activity_id,
        title=spec.title,
        kind=spec.kind,
        window=spec.window,
        fence=spec.fence,
        organizer=spec.organizer,
        participants=tuple(ParticipantRecord(pid) for pid in ids),
        policy=spec.policy,
        batch_threshold=batch_threshold,
        calendar_uid=spec.calendar_uid,
    )


def respond_invitation(
    activity: Activity, participant_id: str, answer: InviteAnswer
) -> Activity:
    """The activity with a participant's accept/decline recorded.

    The engine's command dispatch has already checked that the participant
    is still Invited; this only rebuilds the value.
    """
    i = activity._positions[participant_id]
    status = (
        ParticipantStatus.ACCEPTED
        if answer is InviteAnswer.ACCEPT
        else ParticipantStatus.DECLINED
    )
    ps = activity.participants
    # A copy of the instance dict, not a call of the frozen ``__init__``: the
    # fields but ``participants`` carry over, and so does the position index,
    # since the order is unchanged; the accepted roster is rebuilt on demand.
    updated = object.__new__(Activity)
    values = updated.__dict__
    values.update(activity.__dict__)
    values["participants"] = ps[:i] + (ParticipantRecord(participant_id, status),) + ps[i + 1:]
    values.pop("_accepted", None)
    return updated


def phase_at(activity: Activity, now: int) -> ActivityPhase:
    """Scheduled before start, Active in [start, end), Ended from end on."""
    if now < activity.window.start:
        return ActivityPhase.SCHEDULED
    if now < activity.window.end:
        return ActivityPhase.ACTIVE
    return ActivityPhase.ENDED
