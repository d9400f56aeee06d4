"""The benchmark's layer tracer finds the import sites it times.

``bench/layers.py`` times engine layers by wrapping named module
globals (its ``TARGETS``).  A target that a change renamed, moved or
deleted is skipped without an error, and its layer's time goes
unattributed, so this test resolves every target the way the tracer
does.  Every target must resolve except those in ``STALE``; a listed
target that resolves again fails the test too, so the list only
shrinks.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"

# Targets known to be gone, waiting for the benchmark's own fix
# (ROADMAP.md item 7): the UCQ rewriter no longer reaches
# ``find_extension`` through its module global.
STALE = {"repro.omqa.rewriting:find_extension"}


def _layers_module():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_except_the_stale_ones():
    tracer = _layers_module().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert sorted(tracer.missing) == sorted(STALE)
