"""Chase provenance: which rule firing produced which fact.

`traced_chase` runs :func:`repro.chase.chase` with a firing hook that
records one :class:`Firing` per trigger that added facts, so a trace is
available under every variant and join order, and :func:`explain`
walks the trace backwards to produce the derivation tree of a fact — the
standard debugging surface of a materialization engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, Union

from ..dependencies.denial import DenialConstraint
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..instances.instance import Instance
from ..lang.atoms import Fact
from ..lang.terms import Var
from .engine import ChaseError, ChaseResult, chase

__all__ = ["Firing", "TracedChaseResult", "traced_chase", "explain"]


@dataclass(frozen=True)
class Firing:
    """One rule application: the tgd, the trigger's body image, and the
    facts the head image added (facts already present are not listed)."""

    tgd: TGD
    premises: tuple[Fact, ...]
    conclusions: tuple[Fact, ...]

    def __str__(self) -> str:
        premises = ", ".join(str(f) for f in self.premises) or "(empty body)"
        conclusions = ", ".join(str(f) for f in self.conclusions)
        return f"{premises}  ⊢[{self.tgd}]  {conclusions}"


@dataclass(frozen=True)
class TracedChaseResult:
    """A chase result plus its firing log, in order."""

    result: ChaseResult
    trace: tuple[Firing, ...]

    @property
    def instance(self) -> Instance:
        return self.result.instance

    @cached_property
    def _producer(self) -> dict[Fact, Firing]:
        # Conclusions are only ever new facts, so each fact has at most
        # one producing firing.
        return {
            fact: firing
            for firing in self.trace
            for fact in firing.conclusions
        }

    def producers(self, fact: Fact) -> tuple[Firing, ...]:
        """All firings that introduced the fact (at most one)."""
        firing = self._producer.get(fact)
        return () if firing is None else (firing,)


def traced_chase(
    instance: Instance,
    dependencies: Iterable[Union[TGD, EGD, DenialConstraint]],
    **options: Any,
) -> TracedChaseResult:
    """:func:`repro.chase.chase` with a firing log.

    ``options`` are passed to :func:`~repro.chase.chase` unchanged
    (budgets, ``variant``, ...).
    Provenance is only meaningful while element identity is stable, so
    egds (which merge elements) are rejected; use :func:`repro.chase.chase`
    when egds are involved.
    """
    deps = list(dependencies)
    if any(isinstance(d, EGD) for d in deps):
        raise ChaseError("traced_chase supports tgds and dcs only")
    trace: list[Firing] = []

    def record(
        tgd: TGD, trigger: Mapping[Var, object], added: tuple[Fact, ...]
    ) -> None:
        if added:
            premises = sorted(atom.to_fact(trigger) for atom in tgd.body)
            trace.append(Firing(tgd, tuple(premises), tuple(sorted(added))))

    result = chase(instance, deps, on_fire=record, **options)
    return TracedChaseResult(result, tuple(trace))


def explain(
    traced: TracedChaseResult,
    fact: Fact,
    *,
    max_depth: int = 20,
) -> list[str]:
    """A textual derivation of the fact, back to database facts.

    Each line is ``indent fact  [rule or 'database']``; shared premises
    are expanded once per occurrence up to ``max_depth``.
    """
    lines: list[str] = []

    def walk(current: Fact, depth: int) -> None:
        indent = "  " * depth
        producers = traced.producers(current)
        if not producers:
            lines.append(f"{indent}{current}  [database]")
            return
        firing = producers[0]
        lines.append(f"{indent}{current}  [{firing.tgd}]")
        if depth >= max_depth:
            lines.append(f"{indent}  ...")
            return
        for premise in firing.premises:
            walk(premise, depth + 1)

    if not traced.instance.has_fact(fact):
        raise ValueError(f"{fact} does not hold in the chased instance")
    walk(fact, 0)
    return lines
