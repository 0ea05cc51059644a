"""Authoritative synchronisation engine.

The functional core is a command handler over an explicit ``ServerState``:
validate the command, derive the event records, then fold the records into
the state with ``apply``. Replay folds the persisted records through the
very same ``apply``, which is why a replayed log reproduces the live state
field for field. ``handle`` is deterministic in (state, message, sender,
now) — "now" is always injected, never read from a clock, so a simulator
can drive virtual time.

Each record has one guard, a branch of ``_guard``: the checks its command
makes before the record exists, first the participant lookup (``_member``,
one ``Activity.participant`` call per command). ``_dispatch`` runs it before
it logs a record and ``replay`` before it folds one. A refusal raises
``errors.Refused`` with its wire code, which ``handle`` answers with an
``ERR``; an ``Ignored`` one (a FIX outside the window, a DISARM when not
armed) gets an ACK and no record. ``apply`` checks only the index order.

The FIX path looks the sender up once and classifies the fix once, in
``_dispatch``; whether that fix is the arrival is decided by
``presence.ingest_fix`` from the zones before and after it, the one place
that rule lives. Its ``FixAccepted`` record carries the zone, so ``apply``
runs no geometry. What changes about a participant is kept once, in its
``ParticipantPresence``: the invitation status, the ``Alarm`` (DISARMED,
ARMED or ARRIVED) and the zone. An ``Activity`` is its spec and an id, and
is never rebuilt; it carries no answers. Each
activity has one presence map, by participant id in roster order, so the
accepted ids a fan-out goes to are read in one pass over it, and cached
in ``ServerState.accepted`` until an answer drops them; state equality
ignores that cache.

Notification queues are part of the state: a queue holds each recipient's
``Notify`` frames, and a frame's sequence number is its position, dense
from 1. A fan-out builds its frames once, in ``_enqueue``: recipients of
one notification at one seq share one frame, which the codec then encodes
once. The same frames are the pushes that ``handle`` and
``create_activity`` return, the slice that ``pending`` returns, and what
replay queues. Polls append no records: the cursor travels with each
POLL, and the queue is never trimmed.

Durability is the ``Engine`` wrapper's: it appends each command's records
to the log, and ``Engine.commit`` writes and flushes all records appended
since the last commit at once. A caller commits before any reply or push
for those commands leaves (the server does so once per read). A failed
commit raises ``LogWriteFailed`` with the log cut back to the last commit;
the server then stops, so state ahead of the log dies with the process.

The engine is single-threaded: the server drives it from one asyncio
loop, which gives commands the total order the determinism guarantees
depend on.

Every dataclass is slotted; which are frozen, and why, ``schema.OneOf`` says.

Privacy stance: fixes come in, facts go out. A fix is classified into a
zone on arrival and then dropped: the state keeps each participant's zone
and the time of the latest fix, and no outbound message ever carries a
coordinate. What the log keeps is ``eventlog``'s to say.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .activities import (
    Activity,
    ActivityKind,
    ActivityPhase,
    ActivitySpec,
    ParticipantStatus,
    new_activity,
    phase_at,
    respond_invitation,
)
from .errors import Refused, SyncError
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
from .notify import Fanout, on_arrival, on_invite, on_task_done, render_status
from .presence import Alarm, ingest_fix
from .wire import (
    Ack, Arm, ClientMessage, Disarm, Err, Fix, Hello, Notify, ParticipantView, Poll,
    RespondInvite, ServerMessage, Status, StatusView, TaskDone, Welcome,
)

# One shared frame per acknowledged command, so back-to-back ACKs of a
# kind reuse the text the codec encoded last (``schema.OneOf.encode``).
ACK_RESPOND_INVITE = Ack("RESPOND_INVITE")
ACK_ARM = Ack("ARM")
ACK_DISARM = Ack("DISARM")
ACK_FIX = Ack("FIX")
ACK_TASK_DONE = Ack("TASK_DONE")
ACK_POLL = Ack("POLL")


class AlreadyIngested(SyncError):
    code = "ALREADY_INGESTED"


@dataclass(slots=True)
class ParticipantPresence:
    """Per-(activity, participant) server-side presence bookkeeping."""

    status: ParticipantStatus = ParticipantStatus.INVITED
    alarm: Alarm = Alarm.DISARMED
    zone: Zone = Zone.OUTSIDE  # last classified zone; the arrival rule reads it
    last_fix_at: int | None = None


@dataclass(slots=True)
class ServerState:
    """Everything the event log determines."""

    activities: dict[str, Activity] = field(default_factory=dict)
    # Each activity's presences by participant id, in roster order.
    presence: dict[str, dict[str, ParticipantPresence]] = field(default_factory=dict)
    arrivals: dict[str, list[str]] = field(default_factory=dict)  # in arrival order
    # Entry i of a recipient's queue is the frame with seq i + 1.
    queues: dict[str, list[Notify]] = field(default_factory=dict)
    calendar_uids: set[str] = field(default_factory=set)  # of the activities made from events
    record_count: int = 0
    # Each activity's accepted ids in roster order, from its first fan-out to the next answer.
    accepted: dict[str, tuple[str, ...]] = field(default_factory=dict, compare=False, repr=False)


Outbound = list[tuple[str, ServerMessage]]

# Bound once, for the FIX path: reading a member off its class calls a descriptor.
_ACCEPTED, _ACTIVE = ParticipantStatus.ACCEPTED, ActivityPhase.ACTIVE


def _enqueue(state: ServerState, fanout: Fanout) -> Outbound:
    """Queue a fan-out's frames and return them as its pushes.

    A fan-out comes grouped by notification, so recipients of one
    notification with one seq share one ``Notify`` frame. This is the one
    place a queued frame is built, and nothing assigns to it afterwards.
    """
    queues = state.queues
    pushes, last, frames = [], None, {}
    for recipient, n in fanout:
        queue = queues.get(recipient)
        if queue is None:
            queue = queues[recipient] = []
        if n is not last:
            last, frames = n, {}
        seq = len(queue) + 1
        frame = frames.get(seq)
        if frame is None:
            frame = frames[seq] = Notify(seq, n)
        queue.append(frame)
        pushes.append((recipient, frame))
    return pushes


def _accepted_ids(state: ServerState, act: Activity) -> tuple[str, ...]:
    ids = state.accepted.get(act.id)
    if ids is None:
        ids = state.accepted[act.id] = tuple([
            who for who, pp in state.presence[act.id].items() if pp.status is _ACCEPTED
        ])
    return ids


def apply(state: ServerState, record: EventRecord) -> Outbound:
    """Fold one record into the state; returns the frames it queued, as pushes.

    This is the single mutation path for live handling and replay alike.
    Records are applied exactly in log order (dense indices enforced).
    Each record has passed its guard (``_guard``) before it gets here, so
    the fold checks nothing else: it only assigns.
    """
    if record.index != state.record_count:
        raise SyncError(f"record index {record.index} applied out of order "
                        f"(expected {state.record_count})")
    state.record_count += 1
    e = record.event
    if isinstance(e, FixAccepted):  # the commonest record, so tested first
        pp = state.presence[e.activity][e.who]
        pp.zone = e.zone
        pp.last_fix_at = e.fix_at
        return []  # the arrival, when due, is its own record, applied next
    if isinstance(e, ActivityCreated):
        a = e.activity
        state.activities[a.id] = a
        if a.calendar_uid is not None:
            state.calendar_uids.add(a.calendar_uid)
        state.presence[a.id] = {who: ParticipantPresence() for who in a.participants}
        state.arrivals[a.id] = []
        return _enqueue(state, on_invite(a))
    if isinstance(e, InviteResponded):
        state.presence[e.activity][e.who].status = respond_invitation(e.answer)
        state.accepted.pop(e.activity, None)
        return []
    if isinstance(e, ArmSet):
        state.presence[e.activity][e.who].alarm = Alarm.ARMED
        return []
    if isinstance(e, ArmCleared):
        state.presence[e.activity][e.who].alarm = Alarm.DISARMED
        return []
    if isinstance(e, ArrivalRecorded):
        act = state.activities[e.activity]
        state.presence[e.activity][e.who].alarm = Alarm.ARRIVED
        arrivals = state.arrivals[e.activity]
        arrivals.append(e.who)
        return _enqueue(
            state, on_arrival(act, _accepted_ids(state, act), e.who, len(arrivals), e.arrived_at)
        )
    if isinstance(e, TaskCompleted):
        act = state.activities[e.activity]
        return _enqueue(state, on_task_done(act, _accepted_ids(state, act), e.who, e.done_at))
    raise TypeError(f"not an event: {e!r}")


def _record(state: ServerState, now: int, event) -> tuple[EventRecord, Outbound]:
    """The next record, carrying ``event``, applied to the state; and its pushes."""
    record = EventRecord(state.record_count, now, event)
    return record, apply(state, record)


class Ignored(Refused):
    """A guard's refusal that the live path answers with an ACK and no record."""


def _guard(state: ServerState, at: int, e):
    """``e`` if the live path could log it at ``at``, else its command's ERR as a
    ``Refused``, from that command's checks in its order (an arrival's, but for
    "armed, and Outside before the fix"). Only replay runs the ACTIVITY_CREATED
    branch: ``create_activity`` makes an activity by the rule it checks."""
    t = type(e)
    if t is FixAccepted:  # the commonest record, so tested first
        _can_fix(state, e.activity, e.who, e.fix_at)
    elif t is ActivityCreated:
        act = e.activity
        try:
            made = _next_activity(state, act)
        except SyncError as no:
            raise CorruptRecord(state.record_count, f"activity {act.id}: {no.detail}") from None
        if made != act:
            raise CorruptRecord(state.record_count, (
                f"activity id {act.id!r} is not the next id {made.id!r}" if made.id != act.id
                else f"activity {act.id}: not what create_activity makes of it"
            ))
    elif t is InviteResponded:
        act = _activity(state, e.activity)
        if phase_at(act, at) is ActivityPhase.ENDED:
            raise Refused("PHASE_VIOLATION", f"{act.id} has already ended")
        pp = _member(state, act, e.who)
        if pp.status is not ParticipantStatus.INVITED:  # each participant answers once
            raise Refused("ALREADY_RESPONDED", f"{e.who!r} already responded ({pp.status.value})")
    elif t is ArmCleared:
        if _member(state, _activity(state, e.activity), e.who).alarm is not Alarm.ARMED:
            raise Ignored("NOT_ARMED", "alarm is not armed")
    else:  # ARMED, ARRIVAL_RECORDED and TASK_COMPLETED: by a participant who accepted
        act = _activity(state, e.activity)
        alarm = _accepted(state, act, e.who).alarm
        if t is ArmSet and alarm is not Alarm.DISARMED:  # armed, or arrived
            raise Refused("ALREADY_ARMED", "alarm is already armed or the participant has arrived")
        if t is ArrivalRecorded and alarm is Alarm.ARRIVED:
            raise Refused("ALREADY_ARRIVED", f"{e.who!r} has already arrived")
        if t is TaskCompleted and act.kind is not ActivityKind.TASK:
            raise Refused("KIND_MISMATCH", f"{act.id} is {act.kind.value}, not TASK")
    return e


def _can_fix(state: ServerState, activity_id: str, who: str, fix_at: int):
    """The ``FIX_ACCEPTED`` guard, on fields, as the FIX path runs it before the zone is known."""
    act = _activity(state, activity_id)
    pp = _accepted(state, act, who)
    if pp.last_fix_at is not None and fix_at <= pp.last_fix_at:
        raise Refused("STALE_FIX", f"fix at {fix_at} is not after the last fix at {pp.last_fix_at}")
    if phase_at(act, fix_at) is not _ACTIVE:
        raise Ignored("OUTSIDE_WINDOW", f"fix at {fix_at} is outside the window of {act.id}")
    return act, pp


def replay(records) -> ServerState:
    """Rebuild state by folding records through the live transition logic.

    ``records`` may be any iterable, such as ``load_log``: each record is
    folded as it comes, and none is kept. Its queues hold the frames the
    live fan-outs pushed, one per notification and seq.

    Each record passes its guard first, so replay stops at a record the live
    path could not have logged, as at a bad line, with a ``CorruptRecord``
    that carries the state of the records before it in ``state``. A
    ``PointFix`` (a fix record of an older log) passes the fix guard and is
    then classified, once, against the fence and the participant's zone so
    far, into the ``FixAccepted`` the FIX path records today.
    """
    state = ServerState()
    try:
        for record in records:
            e = record.event
            if type(e) is PointFix:
                act, pp = _can_fix(state, e.activity, e.who, e.fix_at)
                zone = classify_zone(act.fence, pp.zone, e.point)
                record = EventRecord(
                    record.index, record.at, FixAccepted(e.activity, e.who, zone, e.fix_at)
                )
            else:
                _guard(state, record.at, e)
            apply(state, record)
    except (Refused, CorruptRecord) as error:
        if isinstance(error, Refused):  # a guard's, raised before ``apply``
            unknown = error.code in ("UNKNOWN_ACTIVITY", "NOT_A_PARTICIPANT")
            about = "unknown activity or participant" if unknown else f"activity {e.activity}"
            error = CorruptRecord(record.index, f"{about}: {error.detail}")
        error.state = state
        raise error from None
    return state


# --- command handling --------------------------------------------------------


def _activity(state: ServerState, activity_id: str) -> Activity:
    act = state.activities.get(activity_id)
    if act is None:
        raise Refused("UNKNOWN_ACTIVITY", f"no such activity {activity_id!r}")
    return act


def _member(state: ServerState, act: Activity, who: str) -> ParticipantPresence:
    """The presence of ``who``, who must be a participant of ``act``."""
    if not act.participant(who):
        raise Refused("NOT_A_PARTICIPANT", f"{who!r} is not a participant of {act.id}")
    return state.presence[act.id][who]


def _accepted(state: ServerState, act: Activity, who: str) -> ParticipantPresence:
    """The presence of ``who``, who must have accepted ``act``."""
    pp = _member(state, act, who)
    if pp.status is not _ACCEPTED:
        raise Refused("NOT_ACCEPTED", f"{who!r} has not accepted {act.id}")
    return pp


def pending(state: ServerState, participant: str, cursor: int) -> tuple[list[Notify], int]:
    """The queued frames with sequence > cursor, and the new cursor.

    Pure read: it returns the stored frames and builds none. Re-polling with
    the same cursor returns the same frames. Sequence numbers are dense from
    1, so the frames above the cursor are the queue from index ``cursor``.
    """
    out = state.queues.get(participant, [])[max(cursor, 0):]
    return out, (out[-1].seq if out else cursor)


def status_view(state: ServerState, activity_id: str, now: int) -> StatusView:
    """Per-participant invitation status and arrivals, plus current phase.

    The operator's full view; a member's STATUS answer is this view as
    ``notify.render_status`` lets that member see it.
    """
    act = _activity(state, activity_id)
    return StatusView(
        activity=act.id,
        participants=tuple(
            ParticipantView(who, pp.status, pp.alarm is Alarm.ARRIVED)
            for who, pp in state.presence[act.id].items()
        ),
        arrivals=len(state.arrivals[act.id]),
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
    if isinstance(msg, Fix):  # the commonest command, so tested first
        try:
            act, pp = _can_fix(state, msg.activity, from_, msg.at)
        except Ignored:  # outside the window the fix is ignored: no state, no record
            return [(from_, ACK_FIX)], []
        alarm, previous_zone = pp.alarm, pp.zone
        zone = classify_zone(act.fence, previous_zone, msg.point)
        fixed, _ = _record(state, now, FixAccepted(act.id, from_, zone, msg.at))
        if not ingest_fix(alarm, previous_zone, zone):
            return [(from_, ACK_FIX)], [fixed]
        # Accepted (the fix's guard) and armed (ingest_fix): the arrival passes its guard.
        arrival, pushes = _record(state, now, ArrivalRecorded(act.id, from_, msg.at))
        return [(from_, ACK_FIX)] + pushes, [fixed, arrival]

    if isinstance(msg, Hello):
        return [(from_, Welcome(now))], []

    if isinstance(msg, RespondInvite):
        answered = _guard(state, now, InviteResponded(msg.activity, from_, msg.answer))
        record, pushes = _record(state, now, answered)
        return [(from_, ACK_RESPOND_INVITE)] + pushes, [record]

    if isinstance(msg, Arm):
        record, _ = _record(state, now, _guard(state, now, ArmSet(msg.activity, from_)))
        return [(from_, ACK_ARM)], [record]

    if isinstance(msg, Disarm):
        try:
            disarmed = _guard(state, now, ArmCleared(msg.activity, from_))
        except Ignored:  # disarming an alarm that is not armed is a no-op: no record
            return [(from_, ACK_DISARM)], []
        record, _ = _record(state, now, disarmed)
        return [(from_, ACK_DISARM)], [record]

    if isinstance(msg, TaskDone):
        done = _guard(state, now, TaskCompleted(msg.activity, from_, msg.at))
        record, pushes = _record(state, now, done)
        return [(from_, ACK_TASK_DONE)] + pushes, [record]

    if isinstance(msg, Poll):
        msgs, _ = pending(state, from_, msg.cursor)
        return [(from_, m) for m in msgs] + [(from_, ACK_POLL)], []

    if isinstance(msg, Status):
        act = _activity(state, msg.activity)
        _member(state, act, from_)
        view = render_status(
            status_view(state, act.id, now), act, len(_accepted_ids(state, act)), from_
        )
        return [(from_, view)], []

    raise TypeError(f"not a client message: {msg!r}")


def _next_activity(state: ServerState, spec: ActivitySpec) -> Activity:
    """The activity ``create_activity`` makes of ``spec`` next; one per calendar event."""
    if spec.calendar_uid in state.calendar_uids:
        raise AlreadyIngested(f"event {spec.calendar_uid} already ingested")
    return new_activity(spec, f"a{len(state.activities) + 1}")


def create_activity(
    state: ServerState, spec: ActivitySpec, now: int
) -> tuple[Activity, Outbound, list[EventRecord]]:
    """Validate, store, and fan out invitations for a new activity.

    Activity ids are allocated deterministically from the state ("a1",
    "a2", ... in creation order) so logs and transcripts are reproducible.
    A calendar event makes one activity: a second spec with its UID raises
    ``AlreadyIngested``.
    """
    act = _next_activity(state, spec)
    record, pushes = _record(state, now, ActivityCreated(act))
    return act, pushes, [record]


def materialize_draft(state: ServerState, spec: ActivitySpec, now: int):
    """``create_activity`` under the name the benchmark's tracer looks up; nothing calls it.

    A function of its own, not an alias, so that wrapping ``create_activity``
    does not wrap each creation a second time under this name."""
    return create_activity(state, spec, now)


# --- stateful wrapper ---------------------------------------------------------


class Engine:
    """State + optional durable log.

    ``create_activity`` takes a spec from any source: a calendar event, a
    scenario or a caller. Views read ``state`` through the module functions.

    Records are appended to the log as commands run and reach the file at
    the next ``commit`` (or ``close``); reply to no command before the
    commit that follows it.

    The log is held by its one ``LogWriter``, which takes the log's lock
    (``LOG_IN_USE`` while another writer has it) until ``close``. The log
    is then replayed as it is read (``replay(load_log(path))``); a torn
    final line is cut off through the writer and kept in ``torn_tail``, and
    any other corrupt record raises ``CorruptRecord``.
    """

    def __init__(self, log_path: str | Path | None = None):
        self.state = ServerState()
        self._writer: LogWriter | None = None
        self.torn_tail: TornTail | None = None
        if log_path is not None:
            self._writer = writer = LogWriter(log_path)
            try:
                try:
                    self.state = replay(load_log(log_path))
                except TornTail as e:  # appends then start on a fresh line
                    writer.cut(e.offset)
                    self.state, self.torn_tail = e.state, e
            except BaseException:
                writer.close()  # releases the log
                raise
            writer.next_index = self.state.record_count

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
