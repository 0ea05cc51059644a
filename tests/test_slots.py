"""The slot rule: every dataclass of the package is declared with
``slots=True``, so its instances carry no ``__dict__``."""

import dataclasses
import importlib
import pkgutil

import syncpoint


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
