"""Per-(activity, participant) alarm state machine.

Decides which raw location fix, if any, is a participant's one arrival. The
crucial rule: an arrival is an Outside-to-Inside fence transition observed
while armed and while the activity is active. Arming while already inside
the fence never counts as arriving — someone standing at the meeting point
when they switch the alarm on must physically leave and come back before
the system will announce them.

The transition test itself is ``ingest_fix``, the one place the rule
lives; the engine's FIX path classifies each fix once and applies the
rule to the zone the participant was last seen in and the new zone. The
alarm holds no zone: the participant's one zone lives beside it, in the
engine's presence bookkeeping.

Privacy stance: this module sees zones only, never a point. The new zone
is also all that the fix's ``FixAccepted`` record keeps of it.

State layout:

    Disarmed --arm--> Armed --Outside->Inside fix--> Arrived{at}
       ^                |
       +----disarm------+          Arrived is terminal.

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


@dataclass(frozen=True, slots=True)
class Disarmed:
    pass


@dataclass(frozen=True, slots=True)
class Armed:
    pass


@dataclass(frozen=True, slots=True)
class Arrived:
    at: int


AlarmState = Disarmed | Armed | Arrived

DISARMED = Disarmed()
ARMED = Armed()


def arm(state: AlarmState) -> AlarmState:
    """Arm arrival detection.

    Arming while Inside emits no event: arrival requires a later
    Outside->Inside transition.
    """
    if not isinstance(state, Disarmed):
        raise AlreadyArmed("alarm is already armed or the participant has arrived")
    return ARMED


def disarm(state: AlarmState) -> AlarmState:
    """Disarm. Idempotent; an Arrived state is terminal and stays Arrived."""
    if isinstance(state, Armed):
        return DISARMED
    return state


def ingest_fix(state: AlarmState, previous_zone: Zone, zone: Zone) -> bool:
    """Whether an accepted fix, classified into ``zone``, is the arrival.

    Only an Armed participant last seen Outside (``previous_zone``, which
    is Outside before any accepted fix) arrives, and only on a fix now
    classified Inside; Disarmed and Arrived never do.
    """
    return isinstance(state, Armed) and previous_zone is Zone.OUTSIDE and zone is Zone.INSIDE

