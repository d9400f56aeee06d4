"""Unit tests for ontology-mediated query answering: CQs, certain
answers, and UCQ rewriting for linear tgds."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import Instance, Schema, parse_tgds
from repro.homomorphisms import find_extension
from repro.lang import Atom, Const, Var
from repro.lang.schema import SchemaError
from repro.omqa import CQ, UCQ, certain_answers, rewrite_ucq, subsumes

SCHEMA = Schema.of(
    ("Enrolled", 2), ("Student", 1), ("HasTutor", 2), ("Lecturer", 1)
)
SIGMA = parse_tgds(
    """
    Enrolled(s, c) -> Student(s)
    Student(s) -> exists t . HasTutor(s, t)
    HasTutor(s, t) -> Lecturer(t)
    """,
    SCHEMA,
)
DB = Instance.parse("Enrolled(ada, logic). Student(bob)", SCHEMA)

GRAPH = Schema.of(("E", 2), ("Start", 1))
GROWING = parse_tgds(
    "Start(x) -> exists y . E(x, y)\nE(x, y) -> exists z . E(y, z)",
    GRAPH,
)


class TestCQ:
    def test_parse_with_answer_vars(self):
        q = CQ.parse("x, y <- E(x, z), E(z, y)", GRAPH)
        assert q.answer == (Var("x"), Var("y"))
        assert len(q.atoms) == 2

    def test_parse_boolean(self):
        q = CQ.parse("E(x, y)", GRAPH)
        assert q.answer == ()

    def test_answer_vars_must_occur(self):
        with pytest.raises(ValueError):
            CQ.parse("w <- E(x, y)", GRAPH)

    def test_evaluate_projects(self):
        db = Instance.parse("E(a, b). E(b, c)", GRAPH)
        q = CQ.parse("x <- E(x, y)", GRAPH)
        assert q.evaluate(db) == {(Const("a"),), (Const("b"),)}

    def test_evaluate_boolean(self):
        db = Instance.parse("E(a, b)", GRAPH)
        assert CQ.parse("E(x, y)", GRAPH).evaluate(db) == {()}
        assert CQ.parse("E(x, x)", GRAPH).evaluate(db) == set()

    def test_missing_relation_has_no_answers_without_copying(
        self, monkeypatch
    ):
        db = Instance.parse("E(a, b). E(b, c). Start(a)", GRAPH)
        texts = (
            "y <- E(x, y), Missing(y)",
            "Missing(x)",
            "x, y <- E(x, y), Start(x), Gone(x, y, x)",
        )
        # the answers over the instance widened to the query's relations
        expected = {
            text: CQ.parse(text).evaluate(
                db.with_schema(db.schema.union(CQ.parse(text).schema))
            )
            for text in texts
        }

        def no_copy(self, schema):
            raise AssertionError("evaluate copied the instance")

        monkeypatch.setattr(Instance, "with_schema", no_copy)
        for text in texts:
            assert CQ.parse(text).evaluate(db) == expected[text] == set()
        ucq = UCQ(
            (CQ.parse("y <- Start(x), E(x, y)"), CQ.parse("y <- Missing(y)"))
        )
        assert ucq.evaluate(db) == {(Const("b"),)}

    def test_relation_at_another_arity_still_raises(self):
        db = Instance.parse("E(a, b)", GRAPH)
        for text in ("x <- E(x)", "x <- E(x), Missing(x)"):
            with pytest.raises(SchemaError, match="conflicting arities"):
                CQ.parse(text).evaluate(db)

    def test_existential_variables(self):
        q = CQ.parse("x <- E(x, z)", GRAPH)
        assert q.existential_variables() == (Var("z"),)

    def test_ucq_arity_check(self):
        with pytest.raises(ValueError):
            UCQ((CQ.parse("x <- E(x, y)", GRAPH), CQ.parse("E(x, y)", GRAPH)))

    def test_ucq_union_semantics(self):
        db = Instance.parse("E(a, b). Start(c)", GRAPH)
        ucq = UCQ(
            (CQ.parse("x <- E(x, y)", GRAPH), CQ.parse("x <- Start(x)", GRAPH))
        )
        assert ucq.evaluate(db) == {(Const("a"),), (Const("c"),)}


class TestCertainAnswers:
    def test_derived_facts_count(self):
        q = CQ.parse("s <- Student(s)", SCHEMA)
        assert certain_answers(DB, SIGMA, q) == {
            (Const("ada"),),
            (Const("bob"),),
        }

    def test_null_answers_filtered(self):
        # every student has a tutor, but the tutors are invented.
        q = CQ.parse("t <- HasTutor(s, t)", SCHEMA)
        assert certain_answers(DB, SIGMA, q) == set()

    def test_boolean_certain_answer(self):
        q = CQ.parse("HasTutor(s, t), Lecturer(t)", SCHEMA)
        assert certain_answers(DB, SIGMA, q) == {()}

    def test_failing_chase_raises(self):
        from repro.lang import parse_dependency

        key = parse_dependency("Enrolled(s, c), Enrolled(s, d) -> c = d", SCHEMA)
        db = Instance.parse("Enrolled(a, c1). Enrolled(a, c2)", SCHEMA)
        with pytest.raises(ValueError):
            certain_answers(db, list(SIGMA) + [key], CQ.parse("Student(s)", SCHEMA))


class TestRewriting:
    def test_rejects_non_linear(self):
        non_linear = parse_tgds("Student(s), Lecturer(s) -> Enrolled(s, s)", SCHEMA)
        with pytest.raises(ValueError):
            rewrite_ucq(CQ.parse("Student(s)", SCHEMA), non_linear)

    def test_atomic_query_rewriting(self):
        q = CQ.parse("s <- Student(s)", SCHEMA)
        result = rewrite_ucq(q, SIGMA)
        assert result.complete
        assert result.ucq.evaluate(DB) == certain_answers(DB, SIGMA, q)

    def test_join_query_rewriting(self):
        q = CQ.parse("s <- HasTutor(s, t), Lecturer(t)", SCHEMA)
        result = rewrite_ucq(q, SIGMA)
        assert result.complete
        assert result.ucq.evaluate(DB) == certain_answers(DB, SIGMA, q)
        # the saturation must have reached the data-level reformulations
        texts = {str(d) for d in result.ucq}
        assert "s <- Student(s)" in texts
        assert any("Enrolled" in t for t in texts)

    def test_answer_variable_blocks_invention(self):
        # t is an answer variable: it cannot be unified with the invented
        # tutor, so Lecturer(t) does NOT rewrite to Student(...).
        q = CQ.parse("t <- Lecturer(t)", SCHEMA)
        result = rewrite_ucq(q, SIGMA)
        texts = {str(d) for d in result.ucq}
        assert "t <- Lecturer(t)" in texts
        assert not any("Student" in t for t in texts)

    def test_non_weakly_acyclic_linear_rules_terminate(self):
        q = CQ.parse("x <- E(x, u), E(u, v)", GRAPH)
        result = rewrite_ucq(q, GROWING)
        assert result.complete
        db = Instance.parse("Start(a). E(b, c)", GRAPH)
        assert result.ucq.evaluate(db) == {
            (Const("a"),),
            (Const("b"),),
            (Const("c"),),
        }

    def test_rewriting_soundness_random_dbs(self, rng):
        # every disjunct's answers are certain (soundness), on random dbs.
        from repro.workloads import random_instance

        q = CQ.parse("s <- Lecturer(s)", SCHEMA)
        result = rewrite_ucq(q, SIGMA)
        for __ in range(5):
            db = random_instance(rng, SCHEMA, 3, density=0.3)
            assert result.ucq.evaluate(db) <= certain_answers(db, SIGMA, q)

    def test_constants_in_query(self):
        from repro.lang import Atom

        q = CQ(
            (Atom(SCHEMA.relation("Student"), (Const("ada"),)),), ()
        )
        result = rewrite_ucq(q, SIGMA)
        db = Instance.parse("Enrolled(ada, logic)", SCHEMA)
        assert result.ucq.evaluate(db) == {()}

    def test_bookkeeping(self):
        q = CQ.parse("s <- Student(s)", SCHEMA)
        result = rewrite_ucq(q, SIGMA)
        assert result.generated >= len(result.ucq) - 1


class TestSubsumption:
    def test_more_general_subsumes(self):
        general = CQ.parse("x <- E(x, y)", GRAPH)
        specific = CQ.parse("x <- E(x, y), E(y, z)", GRAPH)
        assert subsumes(general, specific)
        assert not subsumes(specific, general)

    def test_answer_positions_respected(self):
        q1 = CQ.parse("x <- E(x, y)", GRAPH)
        q2 = CQ.parse("y <- E(x, y)", GRAPH)
        assert not subsumes(q1, q2)

    def test_alphabetic_variants_mutually_subsume(self):
        q1 = CQ.parse("x <- E(x, y)", GRAPH)
        q2 = CQ.parse("u <- E(u, w)", GRAPH)
        assert subsumes(q1, q2) and subsumes(q2, q1)

    def test_arity_mismatch(self):
        q1 = CQ.parse("x <- E(x, y)", GRAPH)
        q2 = CQ.parse("x, y <- E(x, y)", GRAPH)
        assert not subsumes(q1, q2)

    def test_frozen_names_are_not_constants(self):
        # R("@q_y") names a constant; the specific R(y) holds for any
        # value of y, so it is not contained in the constant's query.
        unary = Schema.of(("R", 1))
        general = CQ((Atom(unary.relation("R"), (Const("@q_y"),)),), ())
        specific = CQ.parse("R(y)", unary)
        assert not subsumes(general, specific)
        assert subsumes(specific, general)

    def test_repeated_general_answer_variable(self):
        # x, x needs both answer positions to be the same value; a, b
        # may differ, so the specific disjunct is not redundant.
        general = CQ.parse("x, x <- E(x, z)", GRAPH)
        specific = CQ.parse("a, b <- E(a, c), E(b, d)", GRAPH)
        assert not subsumes(general, specific)
        assert subsumes(general, CQ.parse("a, a <- E(a, c)", GRAPH))


# ----------------------------------------------------------------------
# Differential checks of ``subsumes``
# ----------------------------------------------------------------------

PAIR_SCHEMA = Schema.of(("E", 2), ("P", 1))
GENERAL_VARS = tuple(Var(name) for name in "xyzw")
SPECIFIC_VARS = tuple(Var(name) for name in "xyuv")  # shares names on purpose
CONSTS = (Const("a"), Const("b"))


def _frozen_instance_subsumes(general: CQ, specific: CQ) -> bool:
    """The earlier instance-based check: freeze the specific query's
    variables into constants, load its atoms as facts and search for an
    extension of the answer mapping.  It is exact only when the general
    answer variables are distinct and no constant is named ``@q_...``."""
    if len(general.answer) != len(specific.answer):
        return False
    freeze = {
        var: Const(f"@q_{var.name}") for var in specific.variables()
    }
    schema = Schema(
        atom.relation for atom in (*general.atoms, *specific.atoms)
    )
    database = Instance.from_facts(
        schema, [atom.to_fact(freeze) for atom in specific.atoms]
    )
    partial = {}
    for gen_var, spec_var in zip(general.answer, specific.answer):
        partial[gen_var] = freeze[spec_var]
    return find_extension(general.atoms, database, partial) is not None


def _brute_force_subsumes(general: CQ, specific: CQ) -> bool:
    """Try every map from the general variables to the specific terms."""
    if len(general.answer) != len(specific.answer):
        return False
    variables = general.variables()
    terms = sorted(
        {arg for atom in specific.atoms for arg in atom.args}, key=repr
    )
    facts = set(specific.atoms)
    for images in itertools.product(terms, repeat=len(variables)):
        mapping = dict(zip(variables, images))
        if tuple(mapping[v] for v in general.answer) != specific.answer:
            continue
        if all(atom.substitute(mapping) in facts for atom in general.atoms):
            return True
    return False


@st.composite
def _cqs(draw, variables, width, distinct_answer):
    atoms = []
    for __ in range(draw(st.integers(min_value=1, max_value=4))):
        relation = draw(st.sampled_from(tuple(PAIR_SCHEMA)))
        args = tuple(
            draw(st.sampled_from(variables + CONSTS))
            for __ in range(relation.arity)
        )
        atoms.append(Atom(relation, args))
    occurring = list(dict.fromkeys(
        arg for atom in atoms for arg in atom.args if isinstance(arg, Var)
    ))
    assume(len(occurring) >= width)
    if distinct_answer:
        answer = draw(st.permutations(occurring))[:width]
    else:
        answer = [draw(st.sampled_from(occurring)) for __ in range(width)]
    return CQ(atoms, answer)


@st.composite
def _cq_pairs(draw, distinct_general_answer=True):
    width = draw(st.integers(min_value=0, max_value=2))
    general = draw(_cqs(GENERAL_VARS, width, distinct_general_answer))
    specific = draw(_cqs(SPECIFIC_VARS, width, False))
    return general, specific


PAIR_SETTINGS = settings(max_examples=300, deadline=None)


class TestSubsumptionDifferential:
    @PAIR_SETTINGS
    @given(_cq_pairs(distinct_general_answer=False))
    def test_agrees_with_brute_force(self, pair):
        general, specific = pair
        assert subsumes(general, specific) == _brute_force_subsumes(
            general, specific
        )

    @PAIR_SETTINGS
    @given(_cq_pairs())
    def test_agrees_with_instance_oracle(self, pair):
        # distinct general answer variables and no "@q_" constants: the
        # range on which the instance-based check is exact
        general, specific = pair
        assert subsumes(general, specific) == _frozen_instance_subsumes(
            general, specific
        )
