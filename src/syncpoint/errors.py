"""Common error base, and the one reader of the text files a user names.

Every domain error carries a stable ``code`` (SCREAMING_SNAKE) so the server
can surface it on the wire as an ``Err`` frame without per-exception mapping
tables.
"""

from pathlib import Path


class SyncError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class NotUtf8(SyncError):
    code = "NOT_UTF8"


class Unreadable(SyncError):
    code = "UNREADABLE"


def read_utf8(path: str | Path) -> str:
    """The text of a calendar, scenario or golden file, which must be UTF-8.

    Raises ``NotUtf8`` for a file that is not, and ``Unreadable``, with the
    system's reason, for a path that cannot be opened or read: a missing
    file, a directory, a NUL in the path or a name the file system cannot
    encode.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise NotUtf8(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None
    except (OSError, ValueError) as e:  # ValueError: a NUL, or a name not encodable
        reason = getattr(e, "strerror", None) or e
        raise Unreadable(f"cannot read {str(path)!r}: {reason}") from None
