"""Per-(activity, participant) alarm and the arrival rule.

Decides which raw location fix, if any, is a participant's one arrival. The
crucial rule: an arrival is an Outside-to-Inside fence transition observed
while armed and while the activity is active. Arming while already inside
the fence never counts as arriving — someone standing at the meeting point
when they switch the alarm on must physically leave and come back before
the system will announce them.

The transition test is ``ingest_fix``, the one place the rule lives; the
engine's FIX path (see ``engine``) calls it. It sees zones only, never a
point. The alarm is one of three values:

    DISARMED --ARM--> ARMED --Outside->Inside fix--> ARRIVED
       ^                |
       +----DISARM------+          ARRIVED is terminal.

Fixes are assumed to arrive in per-participant timestamp order, and only
fixes inside the activity's Active window count; the engine rejects stale
fixes and ignores the others before they get here.
"""

from __future__ import annotations

from enum import Enum

from .geo import Zone


class Alarm(Enum):
    DISARMED = "DISARMED"
    ARMED = "ARMED"
    ARRIVED = "ARRIVED"


# Bound once, for the FIX path: reading a member off its class calls a descriptor.
_ARMED, _INSIDE, _OUTSIDE = Alarm.ARMED, Zone.INSIDE, Zone.OUTSIDE


def ingest_fix(alarm: Alarm, previous_zone: Zone, zone: Zone) -> bool:
    """Whether an accepted fix, classified into ``zone``, is the arrival.

    Only an armed participant last seen Outside (``previous_zone``, which
    is Outside before any accepted fix) arrives, and only on a fix now
    classified Inside; a disarmed or arrived one never does.
    """
    return alarm is _ARMED and previous_zone is _OUTSIDE and zone is _INSIDE
