"""Coarse-grained location-based synchronisation.

Activities with a time window, a geofence, and a participant list;
participants' arrivals at the fence generate policy-mediated notifications
to the others. Ships a calendar-file ingestion path, a newline-delimited
JSON wire protocol with a TCP server, an event-sourced engine, and a
deterministic scenario simulator.
"""

from .activities import (
    Activity,
    ActivityKind,
    ActivityPhase,
    InviteAnswer,
    ParticipantRecord,
    ParticipantStatus,
    PrivacyPolicy,
    TimeWindow,
    new_activity,
    phase_at,
    respond_invitation,
)
from .engine import Engine, ServerState, create_activity, handle, pending, replay, status_view
from .errors import SyncError
from .geo import GeoPoint, Geofence, Zone, classify_zone, haversine_m
from .ics import ActivityDraft, parse_geo, parse_ics, unfold_lines
from .notify import on_arrival, on_invite, on_task_done, render_identity
from .presence import Alarm, ingest_fix
from .sim import (
    Scenario,
    Trace,
    interpolate,
    load_scenario,
    next_poll_interval,
    perturb,
    run_scenario,
)
from .wire import decode, encode

__version__ = "0.1.0"
