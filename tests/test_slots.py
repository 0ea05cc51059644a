"""The slot rule: every dataclass of the package is declared with
``slots=True``, so its instances carry no ``__dict__``. The frozen rule:
a value shared by identity or hashed is frozen, and a value that one owner
builds, uses once and drops is not."""

import dataclasses
import importlib
import pkgutil
from typing import get_args

import pytest

import syncpoint
from syncpoint.activities import Activity, ActivitySpec
from syncpoint.eventlog import Event, EventRecord, PointFix
from syncpoint.geo import Geofence, GeoPoint
from syncpoint.notify import Notification
from syncpoint.sim import TranscriptEntry
from syncpoint.wire import MESSAGES


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
        "RunResult", "Notify", "Fix", "ActivitySpec",
    } <= names


def test_every_dataclass_is_slotted():
    for cls in package_dataclasses():
        instance = object.__new__(cls)  # no field values needed to see the layout
        assert "__slots__" in vars(cls), cls.__qualname__
        assert not hasattr(instance, "__dict__"), cls.__qualname__


# A frame's text is cached by identity (``OneOf.encode``), a fan-out's
# recipients share one ``Notify``, and an ``Activity`` and its parts are hashed.
SHARED = [s.cls for s in MESSAGES.schemas] + list(get_args(Notification)) + [
    Activity, ActivitySpec, GeoPoint, Geofence,
]
# A frozen ``__init__`` sets each field through ``object.__setattr__``, which
# costs several times a plain slot store on these hot values.
BUILT_ONCE = [EventRecord, *get_args(Event), PointFix, TranscriptEntry]


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
