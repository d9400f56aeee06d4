"""Pinned outputs of ``rewrite_ucq`` and of its reference loop.

The pins cover both saturation loops.  ``PINNED`` holds the outputs of
the explore-everything reference (``tests/oracles/ucq.py``), which
expands every query it ever kept; they were recorded before the engine
learned to skip retired disjuncts, and the reference must reproduce
them bit for bit.  The engine expands only the disjuncts still kept, so
it must return the same UCQ text everywhere; its pins
(``ENGINE_PINNED``) are a copy of ``PINNED`` in which only the
``reach3`` entries' ``generated``/``subsumed`` counts move
(``ENGINE_REPINNED``).

The rewriting loop's only inputs from subsumption are yes/no answers,
so any change to how containment is decided must leave every result
below unchanged: the same disjuncts in the same order and the same
``generated``, ``subsumed`` and ``complete`` bookkeeping.  The corpus
covers three ontologies:

* a level hierarchy ``Lk(x, y) -> Sub(x, y)`` with the existential
  successor rule ``Sub(x, y) -> exists z . Sub(y, z)``, asked the point,
  two-hop, three-step reachability and hub-scan query shapes, with the
  anchor both a constant and a variable;
* ``SIGMA`` and ``GROWING`` from ``test_omqa.py``;
* the DL-Lite TBox of ``test_dl.py``, translated to linear tgds.

Each pin is ``(str(ucq), generated, subsumed, complete)``.
"""

from __future__ import annotations

import pytest

from repro import parse_tgds
from repro.dl import AtomicConcept, ConceptInclusion, Exists, Role, TBox
from repro.homomorphisms.plans import PLAN_CACHE
from repro.lang import Const, Var
from repro.omqa import CQ, rewrite_ucq

from .oracles.ucq import reference_rewrite_ucq
from .test_omqa import GROWING, SIGMA

LEVELS = parse_tgds(
    "L0(x, y) -> Sub(x, y)\n"
    "L1(x, y) -> Sub(x, y)\n"
    "L2(x, y) -> Sub(x, y)\n"
    "Sub(x, y) -> exists z . Sub(y, z)\n"
)
LEVEL_SHAPES = {
    "point": "y <- Sub(c, y)",
    "two-hop": "z <- Sub(c, y), Sub(y, z)",
    "reach3": "Sub(c, y), Sub(y, z), Sub(z, w)",
    "hub-scan": "x <- L1(x, c)",
}
DL_LITE = TBox(
    [
        ConceptInclusion(AtomicConcept("Professor"), AtomicConcept("Person")),
        ConceptInclusion(
            AtomicConcept("Professor"),
            Exists(Role("teaches"), AtomicConcept("Course")),
        ),
        ConceptInclusion(
            Exists(Role("teaches").inverse()), AtomicConcept("Course")
        ),
    ]
).tgds()


def _corpus() -> dict[str, tuple[CQ, list]]:
    cases: dict[str, tuple[CQ, list]] = {}
    for name, text in LEVEL_SHAPES.items():
        template = CQ.parse(text)
        anchored = template.substitute({Var("c"): Const("e7")})
        cases[f"levels/{name}/const"] = (anchored, LEVELS)
        cases[f"levels/{name}/var"] = (template, LEVELS)
    for text in (
        "s <- Student(s)",
        "s <- HasTutor(s, t), Lecturer(t)",
        "t <- Lecturer(t)",
        "s <- Lecturer(s)",
        "HasTutor(s, t), Lecturer(t)",
        "Student(ada)",
        "s, t <- HasTutor(s, t), Enrolled(s, c)",
    ):
        cases[f"sigma/{text}"] = (CQ.parse(text), SIGMA)
    for text in (
        "x <- E(x, u), E(u, v)",
        "x, y <- E(x, y)",
        "E(x, y), E(y, z), E(z, w)",
        "x <- E(x, x)",
        "y <- Start(x), E(x, y)",
    ):
        cases[f"growing/{text}"] = (CQ.parse(text), GROWING)
    for text in (
        "p <- Person(p)",
        "c <- Course(c)",
        "p <- teaches(p, c), Course(c)",
        "teaches(p, c), Course(c)",
        "c <- teaches(p, c)",
    ):
        cases[f"dl-lite/{text}"] = (CQ.parse(text), DL_LITE)
    return cases


CORPUS = _corpus()

PINNED: dict[str, tuple[str, int, int, bool]] = {
    'dl-lite/c <- Course(c)': (
        'c <- Course(c)'
        '  ∪  c <- teaches(r0, c)',
        1, 0, True,
    ),
    'dl-lite/c <- teaches(p, c)': (
        'c <- teaches(p, c)',
        0, 0, True,
    ),
    'dl-lite/p <- Person(p)': (
        'p <- Person(p)'
        '  ∪  p <- Professor(p)',
        1, 0, True,
    ),
    'dl-lite/p <- teaches(p, c), Course(c)': (
        'p <- Professor(p)'
        '  ∪  p <- teaches(r0, c), teaches(p, c)',
        3, 1, True,
    ),
    'dl-lite/teaches(p, c), Course(c)': (
        'Professor(p)'
        '  ∪  teaches(r0, c), teaches(p, c)',
        3, 1, True,
    ),
    'growing/E(x, y), E(y, z), E(z, w)': (
        'E(r2, r0), E(x, r0)'
        '  ∪  Start(r1)',
        6, 1, True,
    ),
    'growing/x <- E(x, u), E(u, v)': (
        'x <- E(r0, r1), E(x, r1)'
        '  ∪  x <- Start(x)'
        '  ∪  x <- E(r2, x)',
        4, 0, True,
    ),
    'growing/x <- E(x, x)': (
        'x <- E(x, x)',
        0, 0, True,
    ),
    'growing/x, y <- E(x, y)': (
        'x, y <- E(x, y)',
        0, 0, True,
    ),
    'growing/y <- Start(x), E(x, y)': (
        'y <- Start(x), E(x, y)',
        0, 0, True,
    ),
    'levels/hub-scan/const': (
        'x <- L1(x, e7)',
        0, 0, True,
    ),
    'levels/hub-scan/var': (
        'x <- L1(x, c)',
        0, 0, True,
    ),
    'levels/point/const': (
        'y <- Sub(e7, y)'
        '  ∪  y <- L0(e7, y)'
        '  ∪  y <- L1(e7, y)'
        '  ∪  y <- L2(e7, y)',
        3, 0, True,
    ),
    'levels/point/var': (
        'y <- Sub(c, y)'
        '  ∪  y <- L0(c, y)'
        '  ∪  y <- L1(c, y)'
        '  ∪  y <- L2(c, y)',
        3, 0, True,
    ),
    'levels/reach3/const': (
        'Sub(r2, r0), Sub(e7, r0)'
        '  ∪  L0(e7, r0)'
        '  ∪  L1(e7, r0)'
        '  ∪  L2(e7, r0)'
        '  ∪  Sub(r1, e7)'
        '  ∪  L0(r0, e7)'
        '  ∪  L1(r0, e7)'
        '  ∪  L2(r0, e7)',
        249, 207, True,
    ),
    'levels/reach3/var': (
        'Sub(r2, r0), Sub(c, r0)'
        '  ∪  L0(c, r0)'
        '  ∪  L1(c, r0)'
        '  ∪  L2(c, r0)',
        228, 196, True,
    ),
    'levels/two-hop/const': (
        'z <- Sub(e7, y), Sub(y, z)'
        '  ∪  z <- L0(e7, r1), Sub(r1, z)'
        '  ∪  z <- L0(r0, z), Sub(e7, r0)'
        '  ∪  z <- L1(e7, r1), Sub(r1, z)'
        '  ∪  z <- L1(r0, z), Sub(e7, r0)'
        '  ∪  z <- L2(e7, r1), Sub(r1, z)'
        '  ∪  z <- L2(r0, z), Sub(e7, r0)'
        '  ∪  z <- L0(e7, r0), L2(r0, z)'
        '  ∪  z <- L1(e7, r0), L2(r0, z)'
        '  ∪  z <- L2(e7, r0), L2(r0, z)'
        '  ∪  z <- L0(r0, z), L2(e7, r0)'
        '  ∪  z <- L1(r0, z), L2(e7, r0)'
        '  ∪  z <- L0(e7, r0), L1(r0, z)'
        '  ∪  z <- L1(e7, r0), L1(r0, z)'
        '  ∪  z <- L0(r0, z), L1(e7, r0)'
        '  ∪  z <- L0(e7, r0), L0(r0, z)',
        24, 9, True,
    ),
    'levels/two-hop/var': (
        'z <- Sub(c, y), Sub(y, z)'
        '  ∪  z <- L0(c, r1), Sub(r1, z)'
        '  ∪  z <- L0(r0, z), Sub(c, r0)'
        '  ∪  z <- L1(c, r1), Sub(r1, z)'
        '  ∪  z <- L1(r0, z), Sub(c, r0)'
        '  ∪  z <- L2(c, r1), Sub(r1, z)'
        '  ∪  z <- L2(r0, z), Sub(c, r0)'
        '  ∪  z <- L0(c, r0), L2(r0, z)'
        '  ∪  z <- L1(c, r0), L2(r0, z)'
        '  ∪  z <- L2(c, r0), L2(r0, z)'
        '  ∪  z <- L0(r0, z), L2(c, r0)'
        '  ∪  z <- L1(r0, z), L2(c, r0)'
        '  ∪  z <- L0(c, r0), L1(r0, z)'
        '  ∪  z <- L1(c, r0), L1(r0, z)'
        '  ∪  z <- L0(r0, z), L1(c, r0)'
        '  ∪  z <- L0(c, r0), L0(r0, z)',
        27, 9, True,
    ),
    'sigma/HasTutor(s, t), Lecturer(t)': (
        'HasTutor(r0, r1), HasTutor(s, r1)'
        '  ∪  Student(r0)'
        '  ∪  Enrolled(r0, r2)',
        3, 0, True,
    ),
    'sigma/Student(ada)': (
        'Student(ada)'
        '  ∪  Enrolled(ada, r1)',
        1, 0, True,
    ),
    'sigma/s <- HasTutor(s, t), Lecturer(t)': (
        's <- HasTutor(r0, r1), HasTutor(s, r1)'
        '  ∪  s <- Student(s)'
        '  ∪  s <- Enrolled(s, r1)',
        3, 0, True,
    ),
    'sigma/s <- Lecturer(s)': (
        's <- Lecturer(s)'
        '  ∪  s <- HasTutor(r0, s)',
        1, 0, True,
    ),
    'sigma/s <- Student(s)': (
        's <- Student(s)'
        '  ∪  s <- Enrolled(s, r1)',
        1, 0, True,
    ),
    'sigma/s, t <- HasTutor(s, t), Enrolled(s, c)': (
        's, t <- HasTutor(s, t), Enrolled(s, c)',
        0, 0, True,
    ),
    'sigma/t <- Lecturer(t)': (
        't <- Lecturer(t)'
        '  ∪  t <- HasTutor(r0, t)',
        1, 0, True,
    ),
}


# Where the engine's bookkeeping leaves the reference's: in reach3 most
# popped queries were already subsumed, and only the reference expands
# them.
ENGINE_REPINNED: dict[str, tuple[int, int]] = {
    'levels/reach3/const': (57, 15),
    'levels/reach3/var': (54, 22),
}

ENGINE_PINNED: dict[str, tuple[str, int, int, bool]] = {
    name: (text, *ENGINE_REPINNED.get(name, (generated, subsumed)), complete)
    for name, (text, generated, subsumed, complete) in PINNED.items()
}


def _observed(
    query: CQ, tgds, rewrite=rewrite_ucq
) -> tuple[str, int, int, bool]:
    result = rewrite(query, tgds)
    return (str(result.ucq), result.generated, result.subsumed, result.complete)


def test_corpus_is_fully_pinned():
    assert set(PINNED) == set(CORPUS)
    assert set(ENGINE_REPINNED) <= set(PINNED)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_rewriting_output_pinned(name):
    query, tgds = CORPUS[name]
    assert _observed(query, tgds) == ENGINE_PINNED[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_reference_output_pinned(name):
    query, tgds = CORPUS[name]
    assert _observed(query, tgds, reference_rewrite_ucq) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_rewriting_leaves_plan_cache_alone(name):
    query, tgds = CORPUS[name]
    before = PLAN_CACHE.info()
    rewrite_ucq(query, tgds)
    # no plan is compiled, looked up or evicted, so the size is unchanged
    assert PLAN_CACHE.info() == before
