"""Domain types for synchronised activities.

An activity is a planned social event with a time window, a geofence, and a
participant list. Everything here is a pure value, built once and never
changed: what changes while an activity runs, such as each participant's
answer to the invitation, is the engine's state (``ParticipantPresence``).

Time is integer Unix seconds, UTC. The activity phase is always derived
from (window, now) — it is never stored.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from enum import Enum

from .errors import Refused
from .geo import Geofence

DEFAULT_GATHERING_BATCH = 5


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
        raise Refused("WINDOW_INVALID", f"{what} must be an integer, got {seconds!r}")
    if seconds < 0:
        raise Refused("WINDOW_INVALID", f"{what} must be non-negative, got {seconds}")
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
            raise Refused("WINDOW_INVALID", f"start {self.start} must be < end {self.end}")


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


@dataclass(frozen=True, slots=True)
class Activity(ActivitySpec):
    """An activity: the spec it was made of, its batch threshold resolved, and an id.

    ``participants`` is the roster as planned, a tuple of ids; each
    participant's answer to the invitation is the engine's state. The
    member set behind ``participant`` is built once at construction and
    left out of ``__init__``, equality, hashing, ``repr`` and every encoding.
    """

    id: str = field(kw_only=True)
    _members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.participants))

    def participant(self, participant_id: str) -> bool:
        """Whether ``participant_id`` is on the roster."""
        return participant_id in self._members


def _encodable(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: a lone surrogate, say, it cannot."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def check_names(title: str, organizer: str, ids: Iterable[str]) -> None:
    """An activity's title and roster rules, for a spec and a logged activity alike.

    The title is a string; the ids are distinct non-empty strings, at least
    two, the organizer's among them; UTF-8 can encode each.
    """
    if not isinstance(title, str):
        raise Refused("TITLE_INVALID", f"title must be a string, got {title!r}")
    if not _encodable(title):
        raise Refused("TITLE_INVALID", f"title {title!r} cannot be encoded as UTF-8")
    seen = set()
    for pid in ids:
        if not isinstance(pid, str) or not pid:
            raise Refused(
                "DUPLICATE_PARTICIPANT", f"participant id must be a non-empty string, got {pid!r}"
            )
        if not _encodable(pid):
            raise Refused(
                "DUPLICATE_PARTICIPANT", f"participant id {pid!r} cannot be encoded as UTF-8"
            )
        if pid in seen:
            raise Refused("DUPLICATE_PARTICIPANT", f"participant {pid!r} listed twice")
        seen.add(pid)
    if len(seen) < 2:
        raise Refused("TOO_FEW_PARTICIPANTS", f"need at least 2 participants, got {len(seen)}")
    if not isinstance(organizer, str) or organizer not in seen:
        raise Refused(
            "ORGANIZER_NOT_PARTICIPANT", f"organizer {organizer!r} not in participant list"
        )


def new_activity(spec: ActivitySpec, activity_id: str) -> Activity:
    """Validate an activity spec and build the activity: the spec and the id.

    A missing batch threshold defaults to 5 for Gathering activities and 1
    for every other kind. The caller names the activity: the server
    allocates ids from its state, so that logs and transcripts are
    reproducible.

    Every string the activity's records and frames carry must be one that
    UTF-8 can encode, so that no record of it fails to reach the log.
    """
    check_names(spec.title, spec.organizer, spec.participants)
    batch_threshold = spec.batch_threshold
    if batch_threshold is None:
        batch_threshold = (
            DEFAULT_GATHERING_BATCH if spec.kind is ActivityKind.GATHERING else 1
        )
    # Exact type: JSON true and false load as bool, which is an int.
    if type(batch_threshold) is not int or batch_threshold < 1:
        raise Refused(
            "BATCH_THRESHOLD_INVALID",
            f"batch threshold must be an integer >= 1, got {batch_threshold!r}",
        )
    made = {f.name: getattr(spec, f.name) for f in fields(ActivitySpec)}
    made.update(participants=tuple(spec.participants), batch_threshold=batch_threshold)
    return Activity(**made, id=activity_id)


def respond_invitation(answer: InviteAnswer) -> ParticipantStatus:
    """The status an answer to the invitation leaves its participant in.

    The engine's command dispatch has already checked that the participant
    is still Invited; the engine keeps the status in its presence.
    """
    if answer is InviteAnswer.ACCEPT:
        return ParticipantStatus.ACCEPTED
    return ParticipantStatus.DECLINED


# Bound once, for the FIX path: reading a member off its class calls a descriptor.
_SCHEDULED, _ACTIVE, _ENDED = ActivityPhase.SCHEDULED, ActivityPhase.ACTIVE, ActivityPhase.ENDED


def phase_at(activity: Activity, now: int) -> ActivityPhase:
    """Scheduled before start, Active in [start, end), Ended from end on."""
    if now < activity.window.start:
        return _SCHEDULED
    if now < activity.window.end:
        return _ACTIVE
    return _ENDED
