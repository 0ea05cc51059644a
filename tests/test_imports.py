"""The package's ``__init__`` imports nothing, so each module must import
on its own: alone, in a fresh interpreter, with no import cycle."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import syncpoint

MODULES = sorted(info.name for info in pkgutil.iter_modules(syncpoint.__path__))


def fresh(code: str) -> str:
    """What ``code`` prints, run in a new interpreter that sees this copy of the package."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(syncpoint.__path__[0]).parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_package_binds_no_name():
    code = "import syncpoint; print(sorted(n for n in vars(syncpoint) if n[:2] != '__'))"
    assert fresh(code) == "[]\n"


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_alone_in_a_fresh_interpreter(module):
    fresh(f"import syncpoint.{module}")
