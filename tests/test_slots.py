"""The slot rule: every dataclass of the package is declared with
``slots=True``, so its instances carry no ``__dict__``. The frozen rule:
a value shared by identity or hashed is frozen, and a value that one owner
builds, uses once and drops is not, a client frame included. ``Notify`` is
the one shared value that is not frozen: see
``test_notify_frames_are_slotted_and_not_frozen``."""

import dataclasses
import importlib
import pkgutil
from typing import get_args

import pytest

import syncpoint
from syncpoint.activities import (
    Activity, ActivityKind, ActivitySpec, InviteAnswer, PrivacyPolicy, TimeWindow,
)
from syncpoint.engine import ServerState, create_activity, handle
from syncpoint.eventlog import Event, EventRecord, PointFix
from syncpoint.geo import Geofence, GeoPoint
from syncpoint.notify import Notification
from syncpoint.sim import Transcript, TranscriptEntry
from syncpoint.wire import (
    MESSAGES, Arm, ClientMessage, Fix, Notify, ParticipantView, RespondInvite, ServerMessage,
    encode,
)


def package_dataclasses() -> list[type]:
    """Every dataclass defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(syncpoint.__path__):
        module = importlib.import_module(f"syncpoint.{info.name}")
        found += [
            obj for obj in vars(module).values()
            if isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
        ]
    return found


def test_the_walk_finds_the_dataclasses_of_every_layer():
    names = {cls.__qualname__ for cls in package_dataclasses()}
    assert {
        "Activity", "ParticipantPresence", "ServerState", "EventRecord", "FixAccepted",
        "GeoPoint", "ParseResult", "GatheringUpdate", "ArmSet", "TranscriptEntry",
        "Transcript", "RunResult", "Notify", "Fix", "ActivitySpec",
    } <= names


def test_every_dataclass_is_slotted():
    for cls in package_dataclasses():
        instance = object.__new__(cls)  # no field values needed to see the layout
        assert "__slots__" in vars(cls), cls.__qualname__
        assert not hasattr(instance, "__dict__"), cls.__qualname__


# A server frame's text is cached by identity (``OneOf.encode``), and an
# ``Activity`` and its parts are hashed.
SHARED = [
    *(cls for cls in get_args(ServerMessage) if cls is not Notify), ParticipantView,
    *get_args(Notification), Activity, ActivitySpec, GeoPoint, Geofence,
]
# A frozen ``__init__`` sets each field through ``object.__setattr__``, which
# costs several times a plain slot store on these hot values. A client frame
# is decoded, handled once and dropped: a FIX builds one per report.
BUILT_ONCE = [
    EventRecord, *get_args(Event), PointFix, TranscriptEntry, *get_args(ClientMessage),
]


def test_the_frozen_rule_covers_every_frame():
    assert {*SHARED, *BUILT_ONCE, Notify} >= {s.cls for s in MESSAGES.schemas}


def _assign_first_field(cls) -> None:
    instance = object.__new__(cls)  # a frozen class refuses before any field is read
    setattr(instance, dataclasses.fields(cls)[0].name, None)


@pytest.mark.parametrize("cls", SHARED, ids=lambda cls: cls.__qualname__)
def test_values_shared_by_identity_or_hashed_are_frozen(cls):
    with pytest.raises(dataclasses.FrozenInstanceError):
        _assign_first_field(cls)


@pytest.mark.parametrize("cls", BUILT_ONCE, ids=lambda cls: cls.__qualname__)
def test_values_built_used_once_and_dropped_are_not_frozen(cls):
    _assign_first_field(cls)
    assert cls.__hash__ is None


def test_notify_frames_are_slotted_and_not_frozen():
    """A crossing fix builds one ``Notify`` per seq of its fan-out, and a
    frozen ``__init__`` costs over twice as much. Its text, which the codec
    keeps by identity, stays right because ``engine._enqueue`` is the one
    place a queued frame is built and nothing assigns to one afterwards."""
    _assign_first_field(Notify)
    assert Notify.__hash__ is None


def test_a_transcript_is_slotted_and_not_frozen():
    """A run's one ``Transcript`` grows as the run goes: ``add`` extends its
    columns in place, so no object is kept per message."""
    _assign_first_field(Transcript)
    assert "__slots__" in vars(Transcript)
    assert Transcript.__hash__ is None


def test_every_push_of_a_fan_out_with_alternating_seqs_encodes_to_its_own_text():
    guests = [f"g{i}" for i in range(8)]
    state = ServerState()
    # A meetup of every other guest first, so the guests' queue depths alternate.
    for roster, kind in ((guests[::2], ActivityKind.MEETUP), (guests, ActivityKind.GATHERING)):
        act, _, _ = create_activity(state, ActivitySpec(
            title="Walk", kind=kind, window=TimeWindow(1000, 5000),
            fence=Geofence(GeoPoint(41.5606, -8.3970), 100.0, 25.0),
            organizer="org", participants=("org", *roster),
            policy=PrivacyPolicy.ANONYMOUS_COUNT, batch_threshold=1,
        ), now=0)
    for who in ("org", *guests):
        handle(state, RespondInvite(act.id, InviteAnswer.ACCEPT), who, 10)
    handle(state, Arm(act.id), "org", 20)
    outbound, _ = handle(state, Fix(act.id, GeoPoint(41.5606, -8.3970), 2000), "org", 2000)
    pushes = [frame for _, frame in outbound if isinstance(frame, Notify)]
    seqs = [frame.seq for frame in pushes[2:]]  # the guests' count updates
    assert len(set(seqs)) == 2 and all(a != b for a, b in zip(seqs, seqs[1:]))
    own = MESSAGES.encoders[Notify]  # the schema's encoder, which keeps no text
    assert [encode(frame) for frame in pushes] == [own(frame) + "\n" for frame in pushes]
