"""Notification fanout: who hears what, when, and with which identity.

Pure functions from (activity, event) to a list of (recipient, notification)
pairs. The privacy policy is applied here and only here: under the
anonymous-count policy no outbound notification carries any participant
identifier, and no notification of any kind ever carries coordinates — the
server relays arrival facts, not locations.

Recipient order is deterministic: the arriver's own ack first, then the
remaining recipients in the activity's participant-list order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .activities import Activity, ActivityKind, PrivacyPolicy


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


def on_invite(activity: Activity) -> Fanout:
    """One invitation per participant, except the organizer."""
    w = activity.window
    invitation = Invitation(
        ActivitySummary(activity.id, activity.title, activity.kind, w.start, w.end)
    )
    return [
        (p.id, invitation)
        for p in activity.participants
        if p.id != activity.organizer
    ]


def on_arrival(
    activity: Activity, arriver: str, arrivals_total: int, at: int
) -> Fanout:
    """Fan out one arrival.

    ``arrivals_total`` counts this arrival. The arriver always gets a
    self-ack. Non-Gathering kinds notify every other accepted participant
    individually (identity per policy). Gathering kinds instead emit an
    anonymous count update to all accepted participants — arriver included —
    but only when the running total hits a multiple of the batch threshold.
    Whenever the total equals the accepted-participant count, everyone also
    hears that the group is complete.
    """
    out: Fanout = [(arriver, SelfArrivalAck(activity.id, at))]
    accepted = activity.accepted_ids()
    if activity.kind is ActivityKind.GATHERING:
        if arrivals_total % activity.batch_threshold == 0:
            update = GatheringUpdate(activity.id, arrivals_total)
            out.extend((pid, update) for pid in accepted)
    else:
        notice = ArrivalNotice(
            activity.id, at, render_identity(activity.policy, arriver)
        )
        out.extend((pid, notice) for pid in accepted if pid != arriver)
    if arrivals_total == len(accepted):
        done = AllArrived(activity.id, at)
        out.extend((pid, done) for pid in accepted)
    return out


def on_task_done(activity: Activity, doer: str, at: int) -> Fanout:
    """Tell the other accepted participants the task is handled.

    No self-ack: reporting completion is explicit, it needs no echo. The
    engine has checked the activity's kind and the doer's acceptance.
    """
    notice = TaskDoneNotice(
        activity.id, at, render_identity(activity.policy, doer)
    )
    return [
        (pid, notice) for pid in activity.accepted_ids() if pid != doer
    ]
