"""One chase per candidate body.

:class:`~repro.search.EntailmentDecider` keeps the chase of the last
frozen body and reads every following candidate with an equal body off
it (:func:`~repro.entailment.implication.entails_sharing`).  Two claims
carry that:

* **Verdicts** — per candidate, the decider answers exactly what a
  fresh :func:`~repro.entailment.entails` call answers, on random
  guarded and frontier-guarded premise sets (some with a key egd, so
  bodies freeze into nulls) over unary and binary schemas, for the
  enumerators' candidate streams and for hand-made streams that come
  back to a body after another one or use a head relation outside both
  the premises and the body.
* **Chases** — a run of candidates with one body costs one chase.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import TGDClass
from repro.dependencies import (
    EGD,
    TGD,
    enumerate_guarded_tgds,
    enumerate_linear_tgds,
)
from repro.entailment import TriBool, entails
from repro.lang import Atom, Var
from repro.lang.schema import Relation, Schema
from repro.search import EntailmentDecider, Verdict, run_search
from repro.telemetry import TELEMETRY, MemorySink
from repro.workloads import random_schema
from repro.workloads.random_tgds import random_tgd

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VERDICT = {
    TriBool.TRUE: Verdict.ACCEPT,
    TriBool.FALSE: Verdict.REJECT,
    TriBool.UNKNOWN: Verdict.UNKNOWN,
}


@pytest.fixture(autouse=True)
def clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def _premises(rng: random.Random, arity: int, cls: TGDClass, key_egd: bool):
    schema = random_schema(
        rng, relations=rng.randint(2, 3), min_arity=arity, max_arity=arity
    )
    sigma = [
        random_tgd(
            rng,
            schema,
            cls=cls,
            body_atoms=2,
            head_atoms=2,
            body_variables=arity + 1,
            existential_variables=1,
        )
        for __ in range(rng.randint(1, 3))
    ]
    if key_egd and arity >= 2:
        # The first position of the first relation is a key.
        rel = schema.relations[0]
        x, y, z = Var("k"), Var("y"), Var("z")
        sigma.append(EGD((Atom(rel, (x, y)), Atom(rel, (x, z))), y, z))
    return schema, tuple(sigma)


@st.composite
def premise_sets(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    arity = draw(st.sampled_from((1, 2)))
    cls = draw(st.sampled_from((TGDClass.GUARDED, TGDClass.FRONTIER_GUARDED)))
    key_egd = draw(st.booleans())
    schema, sigma = _premises(rng, arity, cls, key_egd)
    max_rounds = draw(st.sampled_from((None, 1, 3)))
    return rng, schema, sigma, max_rounds


def _enumerated(rng: random.Random, schema: Schema) -> list:
    """An order-preserving sample of an enumerator's candidates, so
    runs of one body stay runs (shortened)."""
    enumerator = rng.choice((enumerate_linear_tgds, enumerate_guarded_tgds))
    n = rng.randint(1, 2)
    m = rng.randint(0, 1)
    stream = itertools.islice(
        enumerator(schema, n, m, max_head_atoms=2), 400
    )
    picked = [c for c in stream if rng.random() < 0.3]
    return picked[:60]


def _runs(candidates: list) -> list[list]:
    return [
        list(run)
        for __, run in itertools.groupby(candidates, key=lambda c: c.body)
    ]


def _hand_made(rng: random.Random, schema: Schema, candidates: list) -> list:
    """The same bodies, but each run split in two, the second halves
    coming back after other bodies; with extra conclusions per body: a
    head over a relation outside the premises and the body, and an egd
    over two body variables."""
    fresh = Relation("Fresh", rng.randint(1, 2))
    first, second = [], []
    for run in _runs(candidates):
        body = run[0].body
        run = list(run)
        variables = sorted(
            {v for atom in body for v in atom.variables()}, key=str
        ) or [Var("w")]
        head = Atom(fresh, tuple(rng.choice(variables) for __ in range(fresh.arity)))
        run.insert(rng.randint(0, len(run)), TGD(body, (head,)))
        if len(variables) >= 2 and body:
            run.insert(
                rng.randint(0, len(run)), EGD(body, variables[0], variables[1])
            )
        cut = rng.randint(0, len(run))
        first.append(run[:cut])
        second.append(run[cut:])
    rng.shuffle(second)
    return [c for part in (*first, *second) for c in part]


def _assert_verdicts_match(sigma, stream, max_rounds):
    decider = EntailmentDecider(premises=sigma, max_rounds=max_rounds)
    shared = [decider.decide(candidate) for candidate in stream]
    fresh = [
        VERDICT[entails(sigma, candidate, max_rounds=max_rounds)]
        for candidate in stream
    ]
    assert shared == fresh


class TestVerdictsMatchFreshChases:
    @SETTINGS
    @given(premise_sets())
    def test_enumerated_streams(self, drawn):
        rng, schema, sigma, max_rounds = drawn
        _assert_verdicts_match(sigma, _enumerated(rng, schema), max_rounds)

    @SETTINGS
    @given(premise_sets())
    def test_hand_made_streams(self, drawn):
        rng, schema, sigma, max_rounds = drawn
        stream = _hand_made(rng, schema, _enumerated(rng, schema))
        _assert_verdicts_match(sigma, stream, max_rounds)

    def test_head_outside_every_schema_reads_no_image(self):
        schema = Schema.of(("R", 1), ("P", 1))
        x = Var("x")
        R, P = schema.relation("R"), schema.relation("P")
        sigma = (TGD((Atom(R, (x,)),), (Atom(P, (x,)),)),)
        outside = Relation("Q", 1)
        stream = [
            TGD((Atom(R, (x,)),), (Atom(P, (x,)),)),
            TGD((Atom(R, (x,)),), (Atom(outside, (x,)),)),
            TGD((Atom(R, (x,)),), (Atom(R, (x,)),)),
        ]
        decider = EntailmentDecider(premises=sigma)
        verdicts = [decider.decide(c) for c in stream]
        assert verdicts == [Verdict.ACCEPT, Verdict.REJECT, Verdict.ACCEPT]
        _assert_verdicts_match(sigma, stream, None)


class TestOneChasePerBodyRun:
    def test_chases_count_body_runs(self):
        schema = Schema.of(("R", 1), ("P", 1), ("T", 1))
        x = Var("x")
        R, P, T = (schema.relation(name) for name in "RPT")
        sigma = (
            TGD((Atom(R, (x,)),), (Atom(P, (x,)),)),
            TGD((Atom(R, (x,)), Atom(P, (x,))), (Atom(T, (x,)),)),
        )
        candidates = list(enumerate_guarded_tgds(schema, 1, 1))
        TELEMETRY.enable(MemorySink())
        outcome = run_search(candidates, EntailmentDecider(premises=sigma))
        counters = TELEMETRY.snapshot()
        TELEMETRY.disable()
        assert counters["entailment.calls"] == outcome.considered
        assert counters["chase.runs"] == len(_runs(candidates))
        assert counters["chase.runs"] < outcome.considered
        # every chase ran without a round budget, once each
        assert counters["chase.certificate"] == counters["chase.runs"]
