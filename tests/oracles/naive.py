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

The oblivious chase fires every trigger once.  The engine needs no
bookkeeping for that, since a semi-naive sweep never finds a match
twice, but a naive sweep re-finds every match: standing in for an
oblivious chase (``variant="oblivious"``), the oracle remembers the
triggers it handed out in that chase and never hands one out again.

:func:`naive_sweeps` substitutes the naive sweep for the engine's, so a
whole chase — budgets, egds, denials, firing hook and all — runs on
the reference evaluation.  The engine still skips the turns that could
find nothing (a naive sweep re-finds only matches already handled
there); ``tests/oracles/restricted.py`` is the loop that skips none.  It looks the matcher up on the engine module
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
    state: "_engine._State", dep: TGD, per: tuple[Var, ...],
    seen: set[tuple[object, ...]],
) -> list[dict[Var, object]]:
    """Every body match of ``dep``, canonically sorted, keeping only the
    first per binding of ``per`` not yet in ``seen`` (which it extends)."""
    matches = sorted(
        _engine.all_extensions_of(dep.body, state.live()),
        key=_engine._firing_order(dep.universal_variables),
    )
    triggers = []
    for trigger in matches:
        binding = tuple(trigger[v] for v in per)
        if binding not in seen:
            seen.add(binding)
            triggers.append(trigger)
    return triggers


@contextmanager
def naive_sweeps(variant: str = "restricted") -> Iterator[None]:
    """Run every chase inside the block on naive sweeps, standing in
    for chases of the given variant."""
    # (state, dependency) -> the two, and the triggers an oblivious
    # chase fired.  Holding the state and the dependency keeps their ids
    # from being reused while the entry lives.
    fired: dict[
        tuple[int, int], tuple[object, TGD, set[tuple[object, ...]]]
    ] = {}

    def sweep(
        state: "_engine._State", dep: TGD, start: int | None, stop: int,
        per: tuple[Var, ...],
    ) -> list[dict[Var, object]]:
        if variant != "oblivious":
            return _naive_triggers(state, dep, per, set())
        # The engine skips a sweep that could find nothing, a first
        # one included, so the first call for a dependency need not
        # have ``start`` None.
        key = (id(state), id(dep))
        entry = fired.get(key)
        if entry is None:
            entry = fired[key] = (state, dep, set())
        # An oblivious sweep keys on every body variable, and fires
        # every trigger it is handed.
        return _naive_triggers(state, dep, per, entry[2])

    original = _engine._sweep_triggers
    _engine._sweep_triggers = sweep
    try:
        yield
    finally:
        _engine._sweep_triggers = original


def sweeps(
    evaluation: str, variant: str = "restricted"
) -> AbstractContextManager[None]:
    """:func:`naive_sweeps` for ``"naive"``; the engine's own semi-naive
    sweeps for ``"seminaive"``."""
    if evaluation not in EVALUATIONS:
        raise ValueError(f"unknown evaluation {evaluation!r}")
    return naive_sweeps(variant) if evaluation == "naive" else nullcontext()
