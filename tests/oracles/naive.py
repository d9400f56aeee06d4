"""Naive evaluation: the reference the engine's semi-naive sweeps are
proven against.

The chase of :mod:`repro.chase.engine` is semi-naive: after a
dependency's first sweep it only joins against facts logged since its
last one.  The textbook fixpoint loop instead re-enumerates every body
match of every dependency on every sweep.  Both keep the first match
per binding the engine asks for and fire a dependency's triggers in
the same canonical order, so both must give the same
instance, null numbering, ``rounds`` and ``fired``, while the naive
loop hands the firing loop at least as many triggers
(``tests/test_differential_chase.py``).

:func:`naive_sweeps` substitutes the naive sweep for the engine's, so a
whole chase — budgets, egds, denials, firing hook and all — runs on
the reference evaluation.  It looks the matcher up on the engine module
at call time, so it composes with
:func:`tests.oracles.interpreted.interpreted_search`.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Iterator

from repro.chase import engine as _engine
from repro.dependencies.tgd import TGD
from repro.lang.terms import Var

__all__ = ["EVALUATIONS", "naive_sweeps", "sweeps"]

# The evaluation axis of the differential tests.
EVALUATIONS = ("naive", "seminaive")


def _naive_triggers(
    state: "_engine._State", dep: TGD, start: int | None, stop: int,
    per: tuple[Var, ...],
) -> list[dict[Var, object]]:
    """Every body match of ``dep``, canonically sorted, keeping only the
    first per binding of ``per``."""
    matches = sorted(
        _engine.all_extensions_of(dep.body, state.live()),
        key=_engine._firing_order(dep.universal_variables),
    )
    seen: set[tuple[object, ...]] = set()
    triggers = []
    for trigger in matches:
        binding = tuple(trigger[v] for v in per)
        if binding not in seen:
            seen.add(binding)
            triggers.append(trigger)
    return triggers


@contextmanager
def naive_sweeps() -> Iterator[None]:
    """Run every chase inside the block on naive sweeps."""
    original = _engine._sweep_triggers
    _engine._sweep_triggers = _naive_triggers
    try:
        yield
    finally:
        _engine._sweep_triggers = original


def sweeps(evaluation: str) -> AbstractContextManager[None]:
    """:func:`naive_sweeps` for ``"naive"``; the engine's own semi-naive
    sweeps for ``"seminaive"``."""
    if evaluation not in EVALUATIONS:
        raise ValueError(f"unknown evaluation {evaluation!r}")
    return naive_sweeps() if evaluation == "naive" else nullcontext()
