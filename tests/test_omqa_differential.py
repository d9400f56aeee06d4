"""The pruned saturation of ``rewrite_ucq`` against the explore-everything
reference loop (``tests/oracles/ucq.py``) on random linear tgd sets and
CQs.

Wherever the reference saturates within its caps, the engine must too,
with the same UCQ text (the same disjuncts in the same order with the
same variable names), and it must not generate more candidates.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dependencies.tgd import TGD
from repro.lang import Const, Var
from repro.lang.atoms import Atom
from repro.lang.schema import Relation
from repro.omqa import CQ, rewrite_ucq

from .oracles.ucq import reference_rewrite_ucq

RELATIONS = (
    Relation("A", 1),
    Relation("B", 1),
    Relation("R", 2),
    Relation("S", 2),
    Relation("T", 2),
)
# Small caps keep every example fast; both loops get the same ones.
CAPS = {"max_queries": 60, "max_depth": 8}


def _atom(draw, terms) -> Atom:
    relation = draw(st.sampled_from(RELATIONS))
    args = draw(st.lists(
        st.sampled_from(terms),
        min_size=relation.arity, max_size=relation.arity,
    ))
    return Atom(relation, tuple(args))


@st.composite
def linear_tgds(draw) -> TGD:
    body = _atom(draw, (Var("x"), Var("y")))
    existentials = [Var(f"z{i}") for i in range(draw(st.integers(0, 2)))]
    head_terms = (*body.variables(), *existentials)
    head = [_atom(draw, head_terms) for _ in range(draw(st.integers(1, 2)))]
    return TGD([body], head)


@st.composite
def queries(draw) -> CQ:
    terms = [Var(f"v{i}") for i in range(3)]
    if draw(st.booleans()):
        terms.append(Const("c"))
    atoms = [_atom(draw, terms) for _ in range(draw(st.integers(1, 4)))]
    variables = sorted({v for a in atoms for v in a.variables()}, key=str)
    answer = draw(st.lists(
        st.sampled_from(variables), max_size=2, unique=True,
    )) if variables else []
    return CQ(atoms, answer)


@given(st.lists(linear_tgds(), min_size=1, max_size=5), queries())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_engine_matches_reference(tgds, query):
    reference = reference_rewrite_ucq(query, tgds, **CAPS)
    if not reference.complete:
        return
    engine = rewrite_ucq(query, tgds, **CAPS)
    assert engine.complete
    assert str(engine.ucq) == str(reference.ucq)
    assert engine.generated <= reference.generated
