"""``raises_code``: ``pytest.raises`` for a ``SyncError`` known by its code."""

from contextlib import contextmanager

import pytest

from syncpoint.errors import SyncError


@contextmanager
def raises_code(code: str, match: str | None = None):
    """Expect the block to raise a ``SyncError`` with ``code``; yields the raised info."""
    with pytest.raises(SyncError, match=match) as info:
        yield info
    assert info.value.code == code, f"raised {info.value.code}: {info.value.detail}"
