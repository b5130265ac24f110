"""Each module imports on its own, in a fresh interpreter.

The package namespace holds ``__version__`` only, so importing one module
runs nothing but what that module imports.  A module that only worked once
another had been imported first would fail here, and a warning raised at
import time is an error.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import loraprop

MODULES = sorted(info.name for info in pkgutil.iter_modules(loraprop.__path__))

#: The loraprop modules an import may load, for the modules whose set is pinned.
LOADS = {"records": ["loraprop", "loraprop.errors", "loraprop.records"]}


def test_modules_are_found():
    assert {"cli", "errors", "jsonio", "records"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    src = str(Path(loraprop.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        f"import sys, loraprop.{name}; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'loraprop'))"
    )
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert f"loraprop.{name}" in loaded
    if name in LOADS:
        assert loaded == LOADS[name]
