"""Relative diagrams (Section 4.1) and the edd extraction of Claim 4.6.

The *ℓ-diagram of K relative to I* (for ``K ≤ I``) is the conjunction of

* the facts of ``K``,
* inequalities between the distinct elements of ``dom(K)``, and
* the negations ``¬∃ȳ γ(ȳ)`` of every conjunction γ over atoms built from
  ``dom(K)`` and ℓ star variables with ``I ⊭ ∃ȳ γ(ȳ)``.

``Φ^I_{K,ℓ}(x̄)`` renames each element ``c ∈ dom(K)`` to a variable
``x_c``.  Negating ``∃x̄ Φ`` yields an edd (Claim 4.6): body = the facts
of K, head = the equalities plus the violating conjunctions.

Up to logical equivalence it suffices to record the ⊆-*minimal* violating
conjunctions: any violating γ' contains a minimal violating γ ⊆ γ', and
``J ⊨ ∃γ'`` implies ``J ⊨ ∃γ``, so the disjunction over minimal ones is
equivalent to the disjunction over all.

The frontier-guarded variant ``Φ^I_{K,m,F}`` (Appendix E) keeps only the
negated conjuncts whose elements come from ``F``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..dependencies.edd import EDD, EqualityDisjunct, ExistentialDisjunct
from ..dependencies.enumeration import atoms_over
from ..homomorphisms.search import all_extensions_of, satisfies_atoms
from ..instances.instance import Instance
from ..lang.atoms import Atom
from ..lang.terms import Var, element_sort_key

__all__ = [
    "DiagramError",
    "RelativeDiagram",
    "relative_diagram",
    "extract_edd",
    "phi_satisfied_by",
    "find_separating_anchor",
]


class DiagramError(ValueError):
    """Raised when a diagram or edd extraction is ill-posed."""


@dataclass(frozen=True)
class RelativeDiagram:
    """``Φ^I_{K,ℓ}(x̄)`` in variable-renamed form.

    ``element_vars`` maps each element of ``dom(K)`` to its ``x_c``;
    ``star_vars`` are the ℓ star variables; ``violating`` holds the
    (minimal) conjunctions γ with ``I ⊭ ∃γ`` as atoms over those
    variables.  ``focus_elements`` records the F of the frontier-guarded
    variant (equal to ``dom(K)`` in the plain case).
    """

    anchor: Instance
    host: Instance
    ell: int
    element_vars: tuple[tuple[object, Var], ...]
    star_vars: tuple[Var, ...]
    body_atoms: tuple[Atom, ...]
    violating: tuple[tuple[Atom, ...], ...]
    focus_elements: frozenset


def diagram_body(
    instance: Instance,
) -> tuple[dict[object, Var], tuple[Atom, ...]]:
    """The positive part of an instance's diagram, shared by Claims 4.6
    and B.4: its elements, sorted, named ``x0, x1, ...`` (in that order),
    and its sorted facts as atoms over those names."""
    elements = sorted(instance.domain, key=element_sort_key)
    as_var = {elem: Var(f"x{i}") for i, elem in enumerate(elements)}
    body = tuple(
        Atom(fact.relation, tuple(as_var[e] for e in fact.elements))
        for fact in sorted(instance.facts())
    )
    return as_var, body


def _violating_conjunctions(
    host: Instance,
    pool: Sequence[Atom],
    fixed: dict[Var, object],
    max_size: int | None,
) -> tuple[tuple[Atom, ...], ...]:
    """⊆-minimal conjunctions over ``pool`` not satisfiable in ``host``
    (with element variables pinned by ``fixed``, stars existential)."""
    minimal: list[frozenset[Atom]] = []
    results: list[tuple[Atom, ...]] = []
    limit = len(pool) if max_size is None else min(max_size, len(pool))
    for size in range(1, limit + 1):
        for combo in itertools.combinations(pool, size):
            combo_set = frozenset(combo)
            if any(kept <= combo_set for kept in minimal):
                continue
            partial = {
                var: elem
                for var, elem in fixed.items()
                if any(var in atom.variables() for atom in combo)
            }
            if not satisfies_atoms(combo, host, partial):
                minimal.append(combo_set)
                results.append(tuple(sorted(combo)))
    return tuple(results)


def relative_diagram(
    anchor: Instance,
    host: Instance,
    ell: int,
    *,
    focus: frozenset | None = None,
    max_conjunction_size: int | None = None,
) -> RelativeDiagram:
    """Build ``Φ^{host}_{anchor,ℓ}`` (or the F-restricted variant when
    ``focus`` is given, as in Appendix E).

    Requires ``dom(anchor) = adom(anchor)`` so that the resulting edd is
    well-formed (item (ii) of Claim 4.6; guaranteed in the proofs by
    domain independence).
    """
    if anchor.domain != anchor.active_domain and anchor.domain:
        raise DiagramError(
            "relative diagrams require dom(K) = adom(K); "
            "call K.shrink_domain() first"
        )
    if not anchor.is_subinstance_of(host) and not anchor.is_subset_of(host):
        raise DiagramError("the anchor must be contained in the host")
    as_var, body = diagram_body(anchor)
    elements = list(as_var)
    stars = tuple(Var(f"star{i}") for i in range(ell))

    focus_elements = frozenset(focus) if focus is not None else frozenset(elements)
    if not focus_elements <= set(elements):
        raise DiagramError("the focus must be a subset of dom(K)")
    conjunction_vars: tuple[Var, ...] = tuple(
        as_var[e] for e in elements if e in focus_elements
    ) + stars
    fixed = {as_var[e]: e for e in elements}
    violating = _violating_conjunctions(
        host,
        atoms_over(host.schema, conjunction_vars),
        fixed,
        max_conjunction_size,
    )
    return RelativeDiagram(
        anchor=anchor,
        host=host,
        ell=ell,
        element_vars=tuple(as_var.items()),
        star_vars=stars,
        body_atoms=body,
        violating=violating,
        focus_elements=focus_elements,
    )


def extract_edd(diagram: RelativeDiagram) -> EDD:
    """The edd equivalent to ``¬∃x̄ Φ^I_{K,m}(x̄)`` (Claim 4.6)."""
    disjuncts: list = []
    variables = [var for __, var in diagram.element_vars]
    for left, right in itertools.combinations(variables, 2):
        disjuncts.append(EqualityDisjunct(left, right))
    for conjunction in diagram.violating:
        disjuncts.append(ExistentialDisjunct(conjunction))
    if not disjuncts:
        raise DiagramError(
            "Φ has no negative conjunct — the extraction needs a "
            "1-critical non-trivial situation (cf. Claim 4.6 item (i))"
        )
    return EDD(diagram.body_atoms, tuple(disjuncts))


def _injective_body_matches(
    diagram: RelativeDiagram, instance: Instance
) -> Iterator[dict[Var, object]]:
    variables = [var for __, var in diagram.element_vars]
    if not diagram.body_atoms:
        # No facts to anchor the x_c's: they may go anywhere (injectively).
        pool = sorted(instance.domain, key=element_sort_key)
        for combo in itertools.permutations(pool, len(variables)):
            yield dict(zip(variables, combo))
        return
    yield from all_extensions_of(
        diagram.body_atoms, instance, injective=True
    )


def phi_satisfied_by(diagram: RelativeDiagram, instance: Instance) -> bool:
    """``J ⊨ ∃x̄ Φ^I_{K,m}(x̄)``.

    Requires an injective assignment of the ``x_c`` realizing the facts
    of ``K`` (the inequalities of the diagram) under which none of the
    violating conjunctions becomes satisfiable in ``J``.
    """
    for assignment in _injective_body_matches(diagram, instance):
        ok = True
        for conjunction in diagram.violating:
            partial = {
                var: assignment[var]
                for atom in conjunction
                for var in atom.variables()
                if var in assignment
            }
            if satisfies_atoms(conjunction, instance, partial):
                ok = False
                break
        if ok:
            return True
    return False


def find_separating_anchor(
    ontology,
    host: Instance,
    n: int,
    m: int,
    *,
    member_domain_bound: int = 2,
    max_conjunction_size: int | None = None,
):
    """The Claim 4.5 witness: a ``K ≤ host`` with ``|adom(K)| ≤ n`` such
    that **no** member of the ontology (with ≤ ``member_domain_bound``
    elements) satisfies ``∃x̄ Φ^host_{K,m}(x̄)``.

    Claim 4.5 guarantees such a ``K`` exists whenever the ontology is
    (n, m)-local and ``host`` is a non-member; the extracted edd
    (Claim 4.6) then belongs to ``Σ^∨`` and refutes ``host``
    (Lemma 4.4).  Returns ``(anchor, diagram)`` or ``None``.
    """
    from ..instances.neighbourhood import subinstances_with_adom_at_most

    shrunk = host.shrink_domain()
    members = list(ontology.members(member_domain_bound))
    for anchor in subinstances_with_adom_at_most(shrunk, n):
        diagram = relative_diagram(
            anchor.shrink_domain(),
            shrunk,
            m,
            max_conjunction_size=max_conjunction_size,
        )
        if all(
            not phi_satisfied_by(diagram, member) for member in members
        ):
            return anchor.shrink_domain(), diagram
    return None
