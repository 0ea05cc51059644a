"""Per-(activity, participant) alarm state machine.

Decides which raw location fix, if any, is a participant's one arrival. The
crucial rule: an arrival is an Outside-to-Inside fence transition observed
while armed and while the activity is active. Arming while already inside
the fence never counts as arriving — someone standing at the meeting point
when they switch the alarm on must physically leave and come back before
the system will announce them.

The transition test itself is ``ingest_fix``, the one place the rule
lives; the engine's FIX path applies it to the zone its ``FixAccepted``
record classified, so each fix is classified once.

State layout:

    Disarmed --arm(zone)--> Armed{zone} --Outside->Inside fix--> Arrived{at}
       ^                        |
       +-------disarm-----------+          Arrived is terminal.

Fixes are assumed to arrive in per-participant timestamp order, and only
fixes inside the activity's Active window count; the engine rejects stale
fixes and ignores the others before they get here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SyncError
from .geo import Zone


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


def ingest_fix(state: AlarmState, zone: Zone) -> bool:
    """Whether an accepted fix, classified into ``zone``, is the arrival.

    Only an Armed state last seen Outside arrives, and only on a fix now
    classified Inside; Disarmed and Arrived never do.
    """
    return isinstance(state, Armed) and state.zone is Zone.OUTSIDE and zone is Zone.INSIDE

