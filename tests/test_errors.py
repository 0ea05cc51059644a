"""The error rule: an error is its code, raised as ``Refused(code, detail)``,
and a ``SyncError`` class of its own stays only where the package catches it
by type or it adds a field."""

import importlib
import pkgutil

import syncpoint
from syncpoint.errors import Refused, SyncError


def package_errors() -> dict[str, str]:
    """Each ``SyncError`` subclass a module of the package defines, by name: its module."""
    found = {}
    for info in pkgutil.iter_modules(syncpoint.__path__):
        module = importlib.import_module(f"syncpoint.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, SyncError) and obj is not SyncError
                    and obj.__module__ == module.__name__):
                found[obj.__qualname__] = info.name
    return found


def test_the_error_classes_are_the_ones_caught_by_type_or_with_a_field():
    assert package_errors() == {
        "Refused": "errors",
        "CorruptRecord": "eventlog",
        "TornTail": "eventlog",
        "LogWriteFailed": "eventlog",
        "AlreadyIngested": "engine",
        "Ignored": "engine",
        "FieldMissing": "schema",
        "FieldInvalid": "schema",
        "EventInvalid": "ics",
    }


def test_a_refusal_is_its_code_and_detail():
    e = Refused("FENCE_INVALID", "radius_m must be finite and > 0, got 0.0")
    assert isinstance(e, SyncError)
    assert (e.code, e.detail, str(e)) == (
        "FENCE_INVALID", "radius_m must be finite and > 0, got 0.0",
        "radius_m must be finite and > 0, got 0.0",
    )
    assert Refused.code == SyncError.code == "ERROR"  # the instance's code is its own
