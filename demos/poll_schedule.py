"""The adaptive poll schedule, swept from two days out to past the end.

Clients poll lazily while an activity is far off and tighten up as the
start approaches; polling stops once the activity has ended. The interval
never increases as the start gets closer.

Run:  python demos/poll_schedule.py
"""

from syncpoint.activities import ActivityKind, ActivitySpec, TimeWindow, new_activity
from syncpoint.geo import Geofence, GeoPoint
from syncpoint.sim import next_poll_interval

START = 200_000
act = new_activity(ActivitySpec(
    title="Dinner", kind=ActivityKind.GATHERING,
    window=TimeWindow(START, START + 7_200),
    fence=Geofence(GeoPoint(41.5454, -8.4265)),
    organizer="dora", participants=("dora", "emil"),
), "a1")

if __name__ == "__main__":
    print(f"{'time to start':>16}  {'poll every':>10}")
    probes = [
        48 * 3600, 25 * 3600, 24 * 3600, 12 * 3600, 2 * 3600,
        3600, 1800, 300, 0, -600, -7200, -7201,
    ]
    for delta in probes:
        now = START - delta
        interval = next_poll_interval(now, act)
        if delta >= 0:
            when = f"{delta / 3600:.1f} h before"
        elif now < act.window.end:
            when = "active"
        else:
            when = "ended"
        shown = f"{interval} s" if interval else "stop"
        print(f"{when:>16}  {shown:>10}")
