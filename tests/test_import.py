"""``import repro`` needs nothing beyond the standard library.

``pyproject.toml`` declares no runtime dependencies, so the package
must import on a bare interpreter: every module that ``import repro``
loads is part of ``repro``, of the standard library, or already loaded
by a bare ``python -c pass`` (site hooks such as ``.pth`` files).  The
engine runs in one process, so it loads no process-pool machinery
(``concurrent.futures``, ``multiprocessing``) either.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def _modules_after(statement: str) -> set[str]:
    """The modules loaded in a fresh interpreter after ``statement``."""
    completed = subprocess.run(
        [
            sys.executable, "-c",
            f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))",
        ],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return set(completed.stdout.split())


def test_import_loads_only_the_standard_library():
    bare = _modules_after("pass")
    loaded = _modules_after("import repro")
    assert "repro" in loaded
    added = loaded - bare
    allowed = {*sys.stdlib_module_names, "repro"}
    foreign = sorted(
        name for name in added if name.split(".")[0] not in allowed
    )
    assert foreign == []
    pools = sorted(
        name for name in added
        if name.split(".")[0] in ("concurrent", "multiprocessing")
    )
    assert pools == []
