"""Notification fanout: who hears what, when, and with which identity.

Pure functions from (activity, event) to a list of (recipient, notification)
pairs. The privacy policy is applied here and only here: under the
anonymous-count policy no outbound notification carries any participant
identifier, and no notification of any kind ever carries coordinates — the
server relays arrival facts, not locations. A member's STATUS answer goes
through the same policy (``render_status``).

Who has accepted is the engine's state, so the fan-outs take the accepted
ids, in the activity's participant-list order. Recipient order is
deterministic: the arriver's own ack first, then the remaining recipients
in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .activities import Activity, ActivityKind, PrivacyPolicy

if TYPE_CHECKING:  # the wire imports this module
    from .wire import StatusView


@dataclass(frozen=True, slots=True)
class ActivitySummary:
    """The slice of an activity shown to invitees: no fence, no roster."""

    activity: str
    title: str
    kind: ActivityKind
    start: int
    end: int


@dataclass(frozen=True, slots=True)
class Invitation:
    summary: ActivitySummary


@dataclass(frozen=True, slots=True)
class SelfArrivalAck:
    activity: str
    at: int


@dataclass(frozen=True, slots=True)
class ArrivalNotice:
    activity: str
    at: int
    identity: str | None = None


@dataclass(frozen=True, slots=True)
class GatheringUpdate:
    activity: str
    count: int


@dataclass(frozen=True, slots=True)
class AllArrived:
    activity: str
    at: int


@dataclass(frozen=True, slots=True)
class TaskDoneNotice:
    activity: str
    at: int
    identity: str | None = None


Notification = (
    Invitation
    | SelfArrivalAck
    | ArrivalNotice
    | GatheringUpdate
    | AllArrived
    | TaskDoneNotice
)

Fanout = list[tuple[str, Notification]]


def render_identity(policy: PrivacyPolicy, who: str) -> str | None:
    """The identity a notification may carry: the id, or nothing."""
    if policy is PrivacyPolicy.DISCLOSE_IDENTITY:
        return who
    return None


def render_status(view: StatusView, activity: Activity, accepted: int, asker: str) -> StatusView:
    """The STATUS answer a member may see: the full view, or under the
    anonymous-count policy the asker's own row and the count members have
    been told.

    That count is every arrival for kinds that announce each one. A
    Gathering announces the count at multiples of its batch threshold, and
    the full count once all ``accepted`` participants have arrived. The
    organizer is a member like any other; the operator's full view is
    ``engine.status_view``.
    """
    if activity.policy is PrivacyPolicy.DISCLOSE_IDENTITY:
        return view
    told = view.arrivals
    if activity.kind is ActivityKind.GATHERING and told != accepted:
        told -= told % activity.batch_threshold
    own = tuple(p for p in view.participants if p.id == asker)
    return replace(view, participants=own, arrivals=told)


def on_invite(activity: Activity) -> Fanout:
    """One invitation per participant, except the organizer."""
    w = activity.window
    invitation = Invitation(
        ActivitySummary(activity.id, activity.title, activity.kind, w.start, w.end)
    )
    return [(who, invitation) for who in activity.participants if who != activity.organizer]


def on_arrival(
    activity: Activity, accepted: tuple[str, ...], arriver: str, arrivals_total: int, at: int
) -> Fanout:
    """Fan out one arrival to the ``accepted`` participants.

    ``arrivals_total`` counts this arrival. The arriver always gets a
    self-ack. Non-Gathering kinds notify every other accepted participant
    individually (identity per policy). Gathering kinds instead emit an
    anonymous count update to all accepted participants — arriver included —
    but only when the running total hits a multiple of the batch threshold.
    Whenever the total equals the accepted-participant count, everyone also
    hears that the group is complete.
    """
    out: Fanout = [(arriver, SelfArrivalAck(activity.id, at))]
    if activity.kind is ActivityKind.GATHERING:
        if arrivals_total % activity.batch_threshold == 0:
            update = GatheringUpdate(activity.id, arrivals_total)
            out += [(pid, update) for pid in accepted]
    else:
        notice = ArrivalNotice(
            activity.id, at, render_identity(activity.policy, arriver)
        )
        out += [(pid, notice) for pid in accepted if pid != arriver]
    if arrivals_total == len(accepted):
        done = AllArrived(activity.id, at)
        out += [(pid, done) for pid in accepted]
    return out


def on_task_done(
    activity: Activity, accepted: tuple[str, ...], doer: str, at: int
) -> Fanout:
    """Tell the other accepted participants the task is handled.

    No self-ack: reporting completion is explicit, it needs no echo. The
    engine has checked the activity's kind and the doer's acceptance.
    """
    notice = TaskDoneNotice(
        activity.id, at, render_identity(activity.policy, doer)
    )
    return [(pid, notice) for pid in accepted if pid != doer]
