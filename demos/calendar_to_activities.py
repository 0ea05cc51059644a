"""From a shared-calendar export to live activities.

Parses the bundled .ics corpus the way the ingestion service does: events
that invited the service's own address become activity specs; everything
else is skipped. The specs then create their activities, with defaults for
what the event leaves unstated, in an in-memory engine, and the status
views are printed.

Run:  python demos/calendar_to_activities.py
"""

from pathlib import Path

from syncpoint.engine import Engine, status_view
from syncpoint.ics import parse_ics
from syncpoint.wire import encode

REPO = Path(__file__).parents[1]
SYSTEM = "mailto:sync@syncpoint.example"

if __name__ == "__main__":
    engine = Engine()
    for name in ("meetup_fair.ics", "mixed_enrolment.ics", "epoch_times.ics"):
        text = (REPO / "data" / "calendar" / name).read_text(encoding="utf-8")
        result = parse_ics(text, SYSTEM)
        print(f"{name}: {len(result.drafts)} enrolled event(s), {result.skipped} skipped")
        acts, skipped, invitations = engine.create_activities(result.drafts, now=0)
        for w in (*result.warnings, *skipped):
            print(f"  warning: {w}")
        for act in acts:
            print(f"  -> {act.id} {act.kind.value} {act.title!r}")
            print(f"     fence {act.fence.radius_m:.0f} m at "
                  f"({act.fence.center.lat}, {act.fence.center.lon}), "
                  f"policy {act.policy.value}, batch {act.batch_threshold}")
            print("     invitations queued for " + ", ".join(
                to for to, m in invitations if m.notification.summary.activity == act.id))
    print("\nstatus views (as wire frames):")
    for activity_id in engine.state.activities:
        print(" ", encode(status_view(engine.state, activity_id, now=0)).rstrip())
