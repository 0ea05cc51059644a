"""Per-(activity, participant) alarm state machine.

Turns raw location fixes into at-most-one arrival event. The crucial rule:
an arrival is an Outside-to-Inside fence transition observed while armed
and while the activity is active. Arming while already inside the fence
never counts as arriving — someone standing at the meeting point when they
switch the alarm on must physically leave and come back before the system
will announce them.

The transition test itself is ``arrives``, the one place the rule lives:
``ingest_fix`` uses it here, and the engine's FIX path uses it on the zone
its ``FixAccepted`` record classified, so each fix is classified once.

State layout:

    Disarmed --arm(zone)--> Armed{zone} --Outside->Inside fix--> Arrived{at}
       ^                        |
       +-------disarm-----------+          Arrived is terminal.

Fixes are assumed to arrive in per-participant timestamp order; the server
layer rejects stale fixes before they get here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .activities import Activity, ActivityPhase, ParticipantStatus, phase_at
from .errors import SyncError
from .geo import GeoPoint, Zone, classify_zone


class AlreadyArmed(SyncError):
    code = "ALREADY_ARMED"


class NotAccepted(SyncError):
    code = "NOT_ACCEPTED"


@dataclass(frozen=True)
class Disarmed:
    pass


@dataclass(frozen=True)
class Armed:
    zone: Zone


@dataclass(frozen=True)
class Arrived:
    at: int


AlarmState = Disarmed | Armed | Arrived

DISARMED = Disarmed()


@dataclass(frozen=True)
class LocationFix:
    who: str
    point: GeoPoint
    at: int


@dataclass(frozen=True)
class Arrival:
    who: str
    at: int


def arm(state: AlarmState, zone_now: Zone) -> AlarmState:
    """Arm arrival detection, seeding the zone from the latest known fix.

    ``zone_now`` is Outside when the participant has never produced an
    accepted fix. Arming while Inside emits no event: arrival requires a
    later Outside->Inside transition.
    """
    if not isinstance(state, Disarmed):
        raise AlreadyArmed("alarm is already armed or the participant has arrived")
    return Armed(zone_now)


def disarm(state: AlarmState) -> AlarmState:
    """Disarm. Idempotent; an Arrived state is terminal and stays Arrived."""
    if isinstance(state, Armed):
        return DISARMED
    return state


def arrives(state: AlarmState, zone: Zone) -> bool:
    """Whether a fix classified into ``zone`` is the arrival.

    Only an Armed state last seen Outside arrives, and only on a fix now
    classified Inside; Disarmed and Arrived never do.
    """
    return isinstance(state, Armed) and state.zone is Zone.OUTSIDE and zone is Zone.INSIDE


def ingest_fix(
    activity: Activity, state: AlarmState, fix: LocationFix
) -> tuple[AlarmState, list[Arrival]]:
    """Feed one location fix through the alarm state machine.

    Fixes outside the activity's Active phase are ignored entirely. While
    Armed, the fence zone is re-classified with hysteresis and an
    Outside->Inside transition produces the (single) Arrival event.
    Disarmed and Arrived states absorb fixes without events.
    """
    record = activity.participant(fix.who)
    if record is None or record.status is not ParticipantStatus.ACCEPTED:
        raise NotAccepted(f"{fix.who!r} has not accepted {activity.id}")
    if phase_at(activity, fix.at) is not ActivityPhase.ACTIVE:
        return state, []
    if isinstance(state, Armed):
        zone = classify_zone(activity.fence, state.zone, fix.point)
        if arrives(state, zone):
            return Arrived(fix.at), [Arrival(fix.who, fix.at)]
        return Armed(zone), []
    return state, []
