"""UCQ rewriting for linear tgds (first-order rewritability).

Linear tgds are a *finite unification set*: every CQ can be rewritten
into a finite union of CQs whose plain evaluation over the database
computes the certain answers (Calì–Gottlob–Lukasiewicz; Baget et al.).
This module implements the classic piece-rewriting procedure restricted
to linear rules:

* a *piece* is a subset ``P`` of query atoms unified with head atoms of
  a rule such that every query variable glued to an existential variable
  of the rule is non-answer and occurs only inside ``P``;
* a rewriting step replaces ``P`` by the (single) body atom of the rule
  under the unifier;
* the procedure saturates under homomorphism subsumption, and expands
  only the disjuncts still kept (prunability): a query that a later
  disjunct subsumes is retired and never expanded, because the
  rewritings of the query that subsumes it cover its own (König,
  Leclère, Mugnier and Thomazo, SWJ 2015).

The result evaluates over the raw database — no chase needed — which is
the OMQA deployment mode the paper's introduction motivates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..collector import pauses_collector
from ..dependencies.tgd import TGD
from ..lang.atoms import Atom
from ..lang.schema import Relation
from ..lang.terms import Const, Term, Var
from .cq import CQ, UCQ

__all__ = ["RewritingResult", "rewrite_ucq", "subsumes"]


@dataclass(frozen=True)
class RewritingResult:
    """The saturated UCQ plus bookkeeping.

    ``complete`` is False only when a safety cap stopped saturation; in
    that case the UCQ is still sound (every disjunct's answers are
    certain answers) but may miss some.
    """

    ucq: UCQ
    complete: bool
    generated: int
    subsumed: int


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}

    def find(self, term: Term) -> Term:
        parent = self._parent.setdefault(term, term)
        if parent is term or parent == term:
            return parent
        root = self.find(parent)
        self._parent[term] = root
        return root

    def union(self, left: Term, right: Term) -> None:
        self._parent[self.find(left)] = self.find(right)

    def classes(self) -> list[set[Term]]:
        groups: dict[Term, set[Term]] = {}
        for term in list(self._parent):
            groups.setdefault(self.find(term), set()).add(term)
        return list(groups.values())


def _unify_piece(
    piece: Sequence[Atom], images: Sequence[Atom]
) -> list[set[Term]] | None:
    """The classes of the most general unifier of the aligned atom
    pairs, or ``None``."""
    uf = _UnionFind()
    for query_atom, head_atom in zip(piece, images):
        if query_atom.relation != head_atom.relation:
            return None
        for qarg, harg in zip(query_atom.args, head_atom.args):
            uf.union(qarg, harg)
    classes = uf.classes()
    # a class with two distinct constants is inconsistent
    for members in classes:
        constants = {m for m in members if isinstance(m, Const)}
        if len(constants) > 1:
            return None
    return classes


def _piece_admissible(
    classes: list[set[Term]],
    answer: set[Var],
    outside_vars: set[Var],
    existentials: set[Var],
    rule_vars: set[Var],
) -> bool:
    """The piece condition: classes containing a rule existential must
    consist of that existential plus query variables that are non-answer
    and do not occur outside the piece."""
    for members in classes:
        exist_members = {m for m in members if m in existentials}
        if not exist_members:
            continue
        if len(exist_members) > 1:
            return False  # two distinct inventions cannot be equal
        for member in members:
            if member in exist_members:
                continue
            if isinstance(member, Const):
                return False
            if member in rule_vars:
                return False  # a universally quantified value is not invented
            if member in answer or member in outside_vars:
                return False
    return True


def _representatives(
    classes: list[set[Term]], existentials: set[Var], answer: set[Var]
) -> Mapping[Term, Term] | None:
    """Pick one representative per class: constants win; otherwise an
    answer variable if present; otherwise any variable.  Returns ``None``
    when an answer variable would be forced to a constant (a rewriting
    shape outside plain CQs — skipped, see module docstring)."""
    mapping: dict[Term, Term] = {}
    for members in classes:
        constants = [m for m in members if isinstance(m, Const)]
        if constants and members & answer:
            return None
        if constants:
            representative: Term = constants[0]
        else:
            answer_members = sorted(
                (m for m in members if m in answer), key=str
            )
            if answer_members:
                representative = answer_members[0]
            else:
                non_exist = sorted(
                    (m for m in members if m not in existentials), key=str
                )
                representative = (
                    non_exist[0] if non_exist else sorted(members, key=str)[0]
                )
        for member in members:
            mapping[member] = representative
    return mapping


def _apply(atom: Atom, mapping: Mapping[Term, Term]) -> Atom:
    return Atom(
        atom.relation,
        tuple(mapping.get(arg, arg) for arg in atom.args),
    )


def _one_step_rewritings(query: CQ, tgd: TGD) -> Iterator[CQ]:
    """All piece-rewritings of the query with one linear tgd."""
    head_relations = {atom.relation for atom in tgd.head}
    if not any(atom.relation in head_relations for atom in query.atoms):
        return
    rule = tgd.rename_apart(query.variables(), prefix="r")
    head = rule.head
    existentials = set(rule.existential_variables)
    rule_vars = set(rule.universal_variables)
    answer = set(query.answer)
    for size in range(1, len(query.atoms) + 1):
        for piece in itertools.combinations(query.atoms, size):
            piece_set = set(piece)
            head_choices = [
                [h for h in head if h.relation == atom.relation]
                for atom in piece
            ]
            if any(not choice for choice in head_choices):
                continue
            outside_vars = {
                var
                for atom in query.atoms
                if atom not in piece_set
                for var in atom.variables()
            }
            for images in itertools.product(*head_choices):
                # several query atoms may collapse onto one head atom
                classes = _unify_piece(piece, images)
                if classes is None:
                    continue
                if not _piece_admissible(
                    classes, answer, outside_vars, existentials, rule_vars
                ):
                    continue
                mapping = _representatives(classes, existentials, answer)
                if mapping is None:
                    continue
                new_atoms = [_apply(atom, mapping) for atom in rule.body]
                new_atoms.extend(
                    _apply(atom, mapping)
                    for atom in query.atoms
                    if atom not in piece_set
                )
                # dedup atoms, keep order
                seen: set[Atom] = set()
                unique = []
                for atom in new_atoms:
                    if atom not in seen:
                        seen.add(atom)
                        unique.append(atom)
                new_answer = tuple(
                    mapping.get(v, v) for v in query.answer
                )
                if not unique:
                    continue
                try:
                    yield CQ(tuple(unique), new_answer)
                except ValueError:
                    continue


def subsumes(general: CQ, specific: CQ) -> bool:
    """``general`` subsumes ``specific``: a homomorphism from the general
    query's atoms into the specific query's atoms that sends each
    general answer variable to the specific answer variable in the same
    position — then the specific disjunct is redundant in a union.

    Containment is decided by a direct backtracking match of the two
    atom lists: general variables bind to specific terms, general
    constants match only equal constants.  No instance is built, so the
    check never touches the compiled-plan cache."""
    return _subsumes(general, _Disjunct(specific))


class _Disjunct:
    """A disjunct of the saturation together with its atoms grouped by
    relation (the match targets of every check that it is the specific
    side of), built once.  ``retired`` is set when a later disjunct
    subsumes it."""

    __slots__ = ("query", "targets", "retired")

    def __init__(self, query: CQ) -> None:
        self.query = query
        self.targets: dict[Relation, list[tuple[Term, ...]]] = {}
        for atom in query.atoms:
            self.targets.setdefault(atom.relation, []).append(atom.args)
        self.retired = False


def _subsumes(general: CQ, specific: _Disjunct) -> bool:
    answer = specific.query.answer
    if len(general.answer) != len(answer):
        return False
    mapping: dict[Var, Term] = {}
    for gen_var, spec_var in zip(general.answer, answer):
        if mapping.setdefault(gen_var, spec_var) != spec_var:
            return False  # one answer variable, two required images
    return _match(general.atoms, 0, specific.targets, mapping)


def _match(
    atoms: Sequence[Atom],
    index: int,
    targets: Mapping[Relation, list[tuple[Term, ...]]],
    mapping: dict[Var, Term],
) -> bool:
    """Extend ``mapping`` so that ``atoms[index:]`` all land on
    ``targets``; on failure ``mapping`` is left as it was."""
    if index == len(atoms):
        return True
    atom = atoms[index]
    for args in targets.get(atom.relation, ()):
        bound: list[Var] = []
        for term, image in zip(atom.args, args):
            if isinstance(term, Var):
                current = mapping.get(term)
                if current is None:
                    mapping[term] = image
                    bound.append(term)
                elif current != image:
                    break
            elif term != image:
                break
        else:
            if _match(atoms, index + 1, targets, mapping):
                return True
        for var in bound:
            del mapping[var]
    return False


@pauses_collector
def rewrite_ucq(
    query: CQ,
    tgds: Sequence[TGD],
    *,
    max_queries: int = 500,
    max_depth: int = 25,
) -> RewritingResult:
    """Saturate the query under piece-rewriting with linear tgds.

    Raises for non-linear rules (the guarantee of finiteness is a
    linear-tgd property; guarded rules are not FO-rewritable in
    general).  Runs with the cyclic collector paused (DESIGN §6.5).
    """
    for tgd in tgds:
        if not tgd.is_linear:
            raise ValueError(f"rewrite_ucq needs linear tgds, got: {tgd}")
    root = _Disjunct(query)
    kept: list[_Disjunct] = [root]
    frontier: list[tuple[_Disjunct, int]] = [(root, 0)]
    generated = 0
    dropped = 0
    complete = True
    while frontier:
        current, depth = frontier.pop()
        if current.retired:
            continue  # its rewritings are covered by its subsumer's
        if depth >= max_depth:
            complete = False
            continue
        for tgd in tgds:
            for candidate in _one_step_rewritings(current.query, tgd):
                generated += 1
                if len(kept) >= max_queries:
                    complete = False
                    break
                disjunct = _Disjunct(candidate)
                if any(_subsumes(old.query, disjunct) for old in kept):
                    dropped += 1
                    continue
                survivors = []
                for old in kept:
                    if _subsumes(candidate, old):
                        old.retired = True
                    else:
                        survivors.append(old)
                kept = survivors
                kept.append(disjunct)
                frontier.append((disjunct, depth + 1))
    return RewritingResult(
        ucq=UCQ(tuple(entry.query for entry in kept)),
        complete=complete,
        generated=generated,
        subsumed=dropped,
    )
