"""Common error base, and the one reader of the text files a user names.

Every domain error carries a stable ``code`` (SCREAMING_SNAKE) so the server
can surface it on the wire as an ``Err`` frame without per-exception mapping
tables. An error is its code: most are raised as ``Refused(code, detail)``.
A class of its own stays only where ``src/`` catches it by type or it adds
a field. A field refused for its type or range is ``schema.FieldInvalid``,
named by the field, wherever the check runs: in a decoder or in a value's
own constructor, such as ``GeoPoint``'s.
"""

from pathlib import Path


class SyncError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class Refused(SyncError):
    """An error named by its code alone, such as a command the state does not allow."""

    def __init__(self, code: str, detail: str):
        self.code = code
        super().__init__(detail)


def read_utf8(path: str | Path) -> str:
    """The text of a calendar, scenario or golden file, which must be UTF-8.

    Raises ``NOT_UTF8`` for a file that is not, and ``UNREADABLE``, with the
    system's reason, for a path that cannot be opened or read: a missing
    file, a directory, a NUL in the path or a name the file system cannot
    encode.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise Refused("NOT_UTF8", f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None
    except (OSError, ValueError) as e:  # ValueError: a NUL, or a name not encodable
        reason = getattr(e, "strerror", None) or e
        raise Refused("UNREADABLE", f"cannot read {str(path)!r}: {reason}") from None
