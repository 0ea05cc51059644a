"""Authoritative synchronisation engine.

The functional core is a command handler over an explicit ``ServerState``:
validate the command, derive the event records, then fold the records into
the state with ``apply``. Replay folds the persisted records through the
very same ``apply``, which is why a replayed log reproduces the live state
field for field. ``handle`` is deterministic in (state, message, sender,
now) — "now" is always injected, never read from a clock, so a simulator
can drive virtual time.

Every command check runs once, in ``_dispatch``, before any record exists:
the participant lookup (``_member``, one ``Activity.participant`` call per
command), the invitation status (``_invited``, ``_accepted``) and the
alarm state (``_disarmed``, and DISARM's no-op test). ``apply`` checks
only that records come in index order and are records; it assigns, and
``respond_invitation`` only rebuilds the activity.

The FIX path looks the sender up once and classifies the fix once, in
``_dispatch``; whether that fix is the arrival is decided by
``presence.ingest_fix`` from the zones before and after it, the one place
that rule lives. Its ``FixAccepted`` record carries the zone, so ``apply``
runs no geometry. Each participant's zone is kept once, in its
``ParticipantPresence``, beside its ``Alarm`` (DISARMED, ARMED or
ARRIVED), which holds none.

Notification queues are part of the state: a queue holds each recipient's
notifications, each stored once, and an entry's sequence number is its
position, dense from 1. A ``Notify`` frame is built only where one leaves:
for the pushes that ``handle`` and ``create_activity`` return, where a
fan-out's recipients with one seq share one frame (which the codec then
encodes once), and for the slice that ``pending`` returns. Polls append no
records: the cursor travels with each POLL, and the queue is never trimmed.

Durability is the ``Engine`` wrapper's: it appends each command's records
to the log, and ``Engine.commit`` writes and flushes all records appended
since the last commit at once. A caller commits before any reply or push
for those commands leaves (the server does so once per read). A failed
commit raises ``LogWriteFailed`` with the log cut back to the last commit;
the server then stops, so state ahead of the log dies with the process.

The engine is single-threaded: the server drives it from one asyncio
loop, which gives commands the total order the determinism guarantees
depend on.

Every dataclass of the package declares ``slots=True``, so the state's
many small values (queued notifications, presences, records) carry no
per-instance ``__dict__``. ``Activity`` is the one exception; its
docstring says why.

Privacy stance: fixes come in, facts go out. A fix is classified into a
zone on arrival and then dropped: the state keeps each participant's zone
and the time of the latest fix, and no outbound message ever carries a
coordinate. What the log keeps is ``eventlog``'s to say.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .activities import (
    Activity,
    ActivityKind,
    ActivityPhase,
    ActivitySpec,
    ParticipantRecord,
    ParticipantStatus,
    new_activity,
    phase_at,
    respond_invitation,
)
from .errors import SyncError
from .eventlog import (
    ActivityCreated,
    ArmCleared,
    ArmSet,
    ArrivalRecorded,
    CorruptRecord,
    EventRecord,
    FixAccepted,
    InviteResponded,
    LogWriter,
    PointFix,
    TaskCompleted,
    TornTail,
    load_log,
)
from .geo import Zone, classify_zone
from .notify import Fanout, Notification, on_arrival, on_invite, on_task_done
from .presence import Alarm, ingest_fix
from .wire import (
    Ack,
    Arm,
    ClientMessage,
    Disarm,
    Err,
    Fix,
    Hello,
    Notify,
    ParticipantView,
    Poll,
    RespondInvite,
    ServerMessage,
    Status,
    StatusView,
    TaskDone,
    Welcome,
)


class UnknownActivity(SyncError):
    code = "UNKNOWN_ACTIVITY"


class StaleFix(SyncError):
    code = "STALE_FIX"


class PhaseViolation(SyncError):
    code = "PHASE_VIOLATION"


class KindMismatch(SyncError):
    code = "KIND_MISMATCH"


class UnknownParticipant(SyncError):
    code = "NOT_A_PARTICIPANT"


class AlreadyResponded(SyncError):
    code = "ALREADY_RESPONDED"


class NotAccepted(SyncError):
    code = "NOT_ACCEPTED"


class AlreadyArmed(SyncError):
    code = "ALREADY_ARMED"


class AlreadyIngested(SyncError):
    code = "ALREADY_INGESTED"


@dataclass(slots=True)
class ParticipantPresence:
    """Per-(activity, participant) server-side presence bookkeeping."""

    alarm: Alarm = Alarm.DISARMED
    zone: Zone = Zone.OUTSIDE  # last classified zone; the arrival rule reads it
    last_fix_at: int | None = None


@dataclass(slots=True)
class ServerState:
    """Everything the event log determines."""

    activities: dict[str, Activity] = field(default_factory=dict)
    presence: dict[tuple[str, str], ParticipantPresence] = field(default_factory=dict)
    arrivals: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # Entry i of a recipient's queue is the notification with seq i + 1.
    queues: dict[str, list[Notification]] = field(default_factory=dict)
    calendar_uids: set[str] = field(default_factory=set)  # of the activities made from events
    record_count: int = 0


Outbound = list[tuple[str, ServerMessage]]
Queued = list[tuple[str, int, Notification]]  # (recipient, seq, notification)


def _enqueue(state: ServerState, fanout: Fanout) -> Queued:
    queued = []
    for recipient, n in fanout:
        queue = state.queues.setdefault(recipient, [])
        queue.append(n)
        queued.append((recipient, len(queue), n))
    return queued


def apply(state: ServerState, record: EventRecord) -> Queued:
    """Fold one record into the state; returns what it queued, with each seq.

    This is the single mutation path for live handling and replay alike.
    Records are applied exactly in log order (dense indices enforced).
    Each record has passed its command's checks in ``_dispatch`` before it
    was logged, so the fold checks nothing else: it only assigns. An unknown
    id raises ``KeyError`` before any assignment but ``record_count``.
    """
    if record.index != state.record_count:
        raise SyncError(
            f"record index {record.index} applied out of order "
            f"(expected {state.record_count})"
        )
    state.record_count += 1
    e = record.event
    if isinstance(e, FixAccepted):  # the commonest record, so tested first
        pp = state.presence[(e.activity, e.who)]
        pp.zone = e.zone
        pp.last_fix_at = e.fix_at
        # The arrival itself, when due, is its own record applied next.
        return []
    if isinstance(e, ActivityCreated):
        a = e.activity
        state.activities[a.id] = a
        if a.calendar_uid is not None:
            state.calendar_uids.add(a.calendar_uid)
        for p in a.participants:
            state.presence[(a.id, p.id)] = ParticipantPresence()
        state.arrivals[a.id] = ()
        return _enqueue(state, on_invite(a))
    if isinstance(e, InviteResponded):
        state.activities[e.activity] = respond_invitation(
            state.activities[e.activity], e.who, e.answer
        )
        return []
    if isinstance(e, ArmSet):
        state.presence[(e.activity, e.who)].alarm = Alarm.ARMED
        return []
    if isinstance(e, ArmCleared):
        state.presence[(e.activity, e.who)].alarm = Alarm.DISARMED
        return []
    if isinstance(e, ArrivalRecorded):
        act = state.activities[e.activity]
        state.presence[(e.activity, e.who)].alarm = Alarm.ARRIVED
        state.arrivals[e.activity] = state.arrivals[e.activity] + (e.who,)
        total = len(state.arrivals[e.activity])
        return _enqueue(state, on_arrival(act, e.who, total, e.arrived_at))
    if isinstance(e, TaskCompleted):
        act = state.activities[e.activity]
        state.presence[(e.activity, e.who)]  # KeyError if the doer is no participant
        return _enqueue(state, on_task_done(act, e.who, e.done_at))
    raise TypeError(f"not an event: {e!r}")


def _record(state: ServerState, now: int, event) -> tuple[EventRecord, Outbound]:
    """The next record, carrying ``event``, applied to the state; and its pushes.

    Recipients of one notification with one seq share one ``Notify`` frame;
    ``apply`` queues a fan-out grouped by notification.
    """
    record = EventRecord(state.record_count, now, event)
    pushes, last, frames = [], None, {}
    for r, seq, n in apply(state, record):
        if n is not last:
            last, frames = n, {}
        frame = frames.get(seq)
        if frame is None:
            frame = frames[seq] = Notify(seq, n)
        pushes.append((r, frame))
    return record, pushes


def replay(records) -> ServerState:
    """Rebuild state by folding records through the live transition logic.

    ``records`` may be any iterable, such as ``load_log``: each record is
    folded as it comes, and none is kept. Replay builds no ``Notify``.

    A ``PointFix`` (a fix record of an older log) is classified here, once,
    against the fence and the participant's zone so far, into the
    ``FixAccepted`` the FIX path records today; ``apply`` never sees one.

    Replay stops at the first corrupt record: a bad line, or a record that
    names an unknown activity or participant. The ``CorruptRecord`` it
    raises carries the state of the records before it in ``state``.
    """
    state = ServerState()
    try:
        for record in records:
            e = record.event
            if type(e) is PointFix:
                zone = classify_zone(
                    state.activities[e.activity].fence,
                    state.presence[(e.activity, e.who)].zone, e.point,
                )
                record = EventRecord(
                    record.index, record.at, FixAccepted(e.activity, e.who, zone, e.fix_at)
                )
            apply(state, record)
    except (KeyError, CorruptRecord) as error:
        if isinstance(error, KeyError):  # ``apply`` moved only the count
            state.record_count = record.index
            error = CorruptRecord(record.index, f"unknown activity or participant {error}")
        error.state = state
        raise error from None
    return state


# --- command handling --------------------------------------------------------


def _activity(state: ServerState, activity_id: str) -> Activity:
    act = state.activities.get(activity_id)
    if act is None:
        raise UnknownActivity(f"no such activity {activity_id!r}")
    return act


def _member(act: Activity, who: str) -> ParticipantRecord:
    """The participant record of ``who``, who must be a participant of ``act``."""
    record = act.participant(who)
    if record is None:
        raise UnknownParticipant(f"{who!r} is not a participant of {act.id}")
    return record


def _invited(act: Activity, who: str) -> None:
    """``who`` may still answer the invitation: each participant answers once."""
    status = _member(act, who).status
    if status is not ParticipantStatus.INVITED:
        raise AlreadyResponded(f"{who!r} already responded ({status.value})")


def _accepted(state: ServerState, act: Activity, who: str) -> ParticipantPresence:
    """The presence of ``who``, who must have accepted ``act``."""
    if _member(act, who).status is not ParticipantStatus.ACCEPTED:
        raise NotAccepted(f"{who!r} has not accepted {act.id}")
    return state.presence[(act.id, who)]


def _disarmed(pp: ParticipantPresence) -> None:
    """ARM needs a disarmed alarm: not one already armed, nor one that arrived."""
    if pp.alarm is not Alarm.DISARMED:
        raise AlreadyArmed("alarm is already armed or the participant has arrived")


def pending(
    state: ServerState, participant: str, cursor: int
) -> tuple[list[Notify], int]:
    """Queued notifications with sequence > cursor, as frames, and the new cursor.

    Pure read; the stored queue is never mutated here. Re-polling with the
    same cursor returns the same messages. Sequence numbers are dense from
    1, so the messages above the cursor are the queue from index ``cursor``.
    """
    start = max(cursor, 0)
    out = [
        Notify(seq, n)
        for seq, n in enumerate(state.queues.get(participant, ())[start:], start + 1)
    ]
    return out, (out[-1].seq if out else cursor)


def status_view(state: ServerState, activity_id: str, now: int) -> StatusView:
    """Per-participant invitation status and arrivals, plus current phase."""
    act = _activity(state, activity_id)
    arrived = state.arrivals.get(activity_id, ())
    return StatusView(
        activity=act.id,
        participants=tuple(
            ParticipantView(p.id, p.status, p.id in arrived)
            for p in act.participants
        ),
        arrivals=len(arrived),
        phase=phase_at(act, now),
    )


def handle(
    state: ServerState, msg: ClientMessage, from_: str, now: int
) -> tuple[Outbound, list[EventRecord]]:
    """Process one client message.

    Returns the outbound (recipient, message) list — Ack/Err and direct
    responses to the sender plus Notify pushes — and the records appended.
    An errored command appends zero records and mutates nothing.
    """
    try:
        return _dispatch(state, msg, from_, now)
    except SyncError as e:
        return [(from_, Err(e.code, e.detail))], []


def _dispatch(
    state: ServerState, msg: ClientMessage, from_: str, now: int
) -> tuple[Outbound, list[EventRecord]]:
    if isinstance(msg, Hello):
        return [(from_, Welcome(now))], []

    if isinstance(msg, RespondInvite):
        act = _activity(state, msg.activity)
        if phase_at(act, now) is ActivityPhase.ENDED:
            raise PhaseViolation(f"{act.id} has already ended")
        _invited(act, from_)
        record, pushes = _record(state, now, InviteResponded(act.id, from_, msg.answer))
        return [(from_, Ack("RESPOND_INVITE"))] + pushes, [record]

    if isinstance(msg, Arm):
        act = _activity(state, msg.activity)
        _disarmed(_accepted(state, act, from_))
        record, _ = _record(state, now, ArmSet(act.id, from_))
        return [(from_, Ack("ARM"))], [record]

    if isinstance(msg, Disarm):
        act = _activity(state, msg.activity)
        _member(act, from_)
        if state.presence[(act.id, from_)].alarm is not Alarm.ARMED:
            # Disarming an alarm that is not armed is a no-op: no record.
            return [(from_, Ack("DISARM"))], []
        record, _ = _record(state, now, ArmCleared(act.id, from_))
        return [(from_, Ack("DISARM"))], [record]

    if isinstance(msg, Fix):
        act = _activity(state, msg.activity)
        pp = _accepted(state, act, from_)
        if pp.last_fix_at is not None and msg.at <= pp.last_fix_at:
            raise StaleFix(
                f"fix at {msg.at} is not after the last fix at {pp.last_fix_at}"
            )
        if phase_at(act, msg.at) is not ActivityPhase.ACTIVE:
            # Outside the window the fix is ignored: no state, no record.
            return [(from_, Ack("FIX"))], []
        alarm, previous_zone = pp.alarm, pp.zone
        zone = classify_zone(act.fence, previous_zone, msg.point)
        fixed, _ = _record(state, now, FixAccepted(act.id, from_, zone, msg.at))
        if not ingest_fix(alarm, previous_zone, zone):
            return [(from_, Ack("FIX"))], [fixed]
        arrival, pushes = _record(state, now, ArrivalRecorded(act.id, from_, msg.at))
        return [(from_, Ack("FIX"))] + pushes, [fixed, arrival]

    if isinstance(msg, TaskDone):
        act = _activity(state, msg.activity)
        _accepted(state, act, from_)
        if act.kind is not ActivityKind.TASK:
            raise KindMismatch(f"{act.id} is {act.kind.value}, not TASK")
        record, pushes = _record(state, now, TaskCompleted(act.id, from_, msg.at))
        return [(from_, Ack("TASK_DONE"))] + pushes, [record]

    if isinstance(msg, Poll):
        msgs, _ = pending(state, from_, msg.cursor)
        return [(from_, m) for m in msgs] + [(from_, Ack("POLL"))], []

    if isinstance(msg, Status):
        act = _activity(state, msg.activity)
        _member(act, from_)
        return [(from_, status_view(state, act.id, now))], []

    raise TypeError(f"not a client message: {msg!r}")


def create_activity(
    state: ServerState, spec: ActivitySpec, now: int
) -> tuple[Activity, Outbound, list[EventRecord]]:
    """Validate, store, and fan out invitations for a new activity.

    Activity ids are allocated deterministically from the state ("a1",
    "a2", ... in creation order) so logs and transcripts are reproducible.
    A calendar event makes one activity: a second spec with its UID raises
    ``AlreadyIngested``.
    """
    if spec.calendar_uid in state.calendar_uids:
        raise AlreadyIngested(f"event {spec.calendar_uid} already ingested")
    act = new_activity(spec, f"a{len(state.activities) + 1}")
    record, pushes = _record(state, now, ActivityCreated(act))
    return act, pushes, [record]


# Kept for perfbench/tracer.py, which wraps this name; calendars now parse to specs.
materialize_draft = create_activity


# --- stateful wrapper ---------------------------------------------------------


class Engine:
    """State + optional durable log.

    ``create_activity`` takes a spec from any source: a calendar event, a
    scenario or a caller. Views read ``state`` through the module functions.

    Records are appended to the log as commands run and reach the file at
    the next ``commit`` (or ``close``); reply to no command before the
    commit that follows it.

    Opening a log replays it as it is read (``replay(load_log(path))``); a
    torn final line is cut off and kept in ``torn_tail``, and any other
    corrupt record raises ``CorruptRecord``.
    """

    def __init__(self, log_path: str | Path | None = None):
        self.state = ServerState()
        self._writer: LogWriter | None = None
        self.torn_tail: TornTail | None = None
        if log_path is not None:
            if Path(log_path).exists():
                try:
                    self.state = replay(load_log(log_path))
                except TornTail as e:  # appends then start on a fresh line
                    os.truncate(log_path, e.offset)
                    self.state, self.torn_tail = e.state, e
            self._writer = LogWriter(log_path, start_index=self.state.record_count)

    def _persist(self, records: list[EventRecord]) -> None:
        if self._writer is not None:
            for record in records:
                self._writer.append(record)

    def handle(self, msg: ClientMessage, from_: str, now: int) -> Outbound:
        outbound, records = handle(self.state, msg, from_, now)
        self._persist(records)
        return outbound

    def commit(self) -> None:
        """Write and flush every record appended since the last commit.

        Raises ``LogWriteFailed`` if they cannot all be written: the log
        then ends at the last commit, and the state runs ahead of it.
        """
        if self._writer is not None:
            self._writer.commit()

    def create_activity(self, spec: ActivitySpec, now: int) -> tuple[Activity, Outbound]:
        act, outbound, records = create_activity(self.state, spec, now)
        self._persist(records)
        return act, outbound

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
