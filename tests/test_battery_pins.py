"""Pinned output of every property battery and of ``characterize``.

Each case runs one battery on a small ontology and pins its whole
:class:`PropertyReport`: the verdict and ``checked`` count in the clear,
and a SHA-256 over ``holds``, ``str(counterexample)``, ``checked``,
``scope`` and ``details``.  The grid holds at least one failing case
per battery, plus the ``max_pairs`` cut, a two-element padding and a
space that already holds the first padding name.  A change to a
battery's loop, candidate order or report text fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import AxiomaticOntology, FiniteOntology, Instance, Schema, parse_tgds
from repro.instances import all_instances_up_to
from repro.lang import Const, Fact
from repro.properties import (
    LocalityMode,
    characterize,
    criticality_report,
    disjoint_union_closure_report,
    domain_independence_report,
    duplicating_extension_closure_report,
    intersection_closure_report,
    locality_report,
    modularity_report,
    product_closure_report,
    subinstance_closure_report,
    union_closure_report,
)

UNARY = Schema.of(("R", 1), ("S", 1))
UNARY3 = Schema.of(("R", 1), ("P", 1), ("T", 1))
BINARY = Schema.of(("R", 2), ("S", 1))
SCHEMA52 = Schema.of(("R", 2), ("S", 2), ("T", 2))
R = UNARY.relation("R")


def _axiomatic(text: str, schema: Schema) -> AxiomaticOntology:
    return AxiomaticOntology(parse_tgds(text, schema), schema=schema)


def _full():
    return _axiomatic("R(x) -> S(x)", UNARY)


def _guarded():
    return _axiomatic("R(x), P(x) -> T(x)", UNARY3)


def _unguarded():
    return _axiomatic("R(x), P(y) -> T(x)", UNARY3)


def _existential():
    return _axiomatic("S(x) -> exists z . R(x, z)", BINARY)


def _example_5_2():
    return _axiomatic("R(x, y), S(y, z) -> T(x, z)", SCHEMA52)


def _one_or_two():
    return FiniteOntology(
        [Instance.parse("R(a)", UNARY), Instance.parse("R(a). R(b)", UNARY)]
    )


def _space(schema: Schema, size: int):
    return list(all_instances_up_to(schema, size))


def _padded_space():
    """Instances already holding the first padding name, ``@pad0``."""
    taken = Const("@pad0")
    return [
        Instance.from_facts(UNARY, (Fact(R, (taken,)),)),
        Instance.from_facts(UNARY, (), extra_domain=(taken,)),
    ]


CASES = {
    "criticality/full": lambda: criticality_report(_full(), max_k=3),
    "criticality/finite": lambda: criticality_report(_one_or_two(), max_k=2),
    "product/full": lambda: product_closure_report(_full(), max_domain_size=1),
    "product/finite": lambda: product_closure_report(
        _one_or_two(), max_domain_size=2
    ),
    "product/finite-cut": lambda: product_closure_report(
        _one_or_two(), max_domain_size=2, max_pairs=2
    ),
    "intersection/full": lambda: intersection_closure_report(
        _full(), max_domain_size=2
    ),
    "intersection/existential": lambda: intersection_closure_report(
        _existential(), max_domain_size=2
    ),
    "intersection/existential-cut": lambda: intersection_closure_report(
        _existential(), max_domain_size=2, max_pairs=3
    ),
    "union/guarded": lambda: union_closure_report(
        _guarded(), max_domain_size=1
    ),
    "union/full": lambda: union_closure_report(_full(), max_domain_size=2),
    "disjoint-union/guarded": lambda: disjoint_union_closure_report(
        _guarded(), max_domain_size=1
    ),
    "disjoint-union/unguarded": lambda: disjoint_union_closure_report(
        _unguarded(), max_domain_size=1
    ),
    "subinstance/full": lambda: subinstance_closure_report(
        _full(), max_domain_size=2
    ),
    "subinstance/existential": lambda: subinstance_closure_report(
        _existential(), max_domain_size=2
    ),
    "duplicating/oblivious-5.2": lambda: duplicating_extension_closure_report(
        _example_5_2(), max_domain_size=2, oblivious=True
    ),
    "duplicating/non-oblivious-5.2": lambda: (
        duplicating_extension_closure_report(
            _example_5_2(), max_domain_size=2
        )
    ),
    "duplicating/non-oblivious-finite": lambda: (
        duplicating_extension_closure_report(_one_or_two(), max_domain_size=2)
    ),
    "duplicating/oblivious-finite": lambda: (
        duplicating_extension_closure_report(
            _one_or_two(), max_domain_size=2, oblivious=True
        )
    ),
    "domain-independence/full": lambda: domain_independence_report(
        _full(), _space(UNARY, 2)
    ),
    "domain-independence/full-pad2": lambda: domain_independence_report(
        _full(), _space(UNARY, 1), extra_elements=2
    ),
    "domain-independence/taken-pad": lambda: domain_independence_report(
        _one_or_two(), _padded_space(), extra_elements=2
    ),
    "domain-independence/finite": lambda: domain_independence_report(
        _one_or_two(), _space(UNARY, 2)
    ),
    "modularity/full": lambda: modularity_report(
        _full(), 1, _space(UNARY, 2)
    ),
    "modularity/existential": lambda: modularity_report(
        _existential(), 0, _space(BINARY, 1)
    ),
    "locality/full": lambda: locality_report(
        _full(), 1, 0, _space(UNARY, 2)
    ),
    "locality/guarded-linear": lambda: locality_report(
        _guarded(), 1, 0, _space(UNARY3, 1), mode=LocalityMode.LINEAR
    ),
}

PINS: dict[str, tuple[bool, int, str]] = {
    "criticality/finite": (False, 1, "0f6795b3103fcbe4"),
    "criticality/full": (True, 3, "fc2a86e0d6da9af3"),
    "disjoint-union/guarded": (True, 64, "a9d197da2c9b5b0b"),
    "disjoint-union/unguarded": (False, 30, "cf2ec439efa8c7a7"),
    "domain-independence/finite": (False, 4, "027237d62e07ea13"),
    "domain-independence/full": (True, 21, "7588afbc99b95643"),
    "domain-independence/full-pad2": (True, 10, "768e0f1896ac620e"),
    "domain-independence/taken-pad": (False, 1, "89cb38ec7a440f9b"),
    "duplicating/non-oblivious-5.2": (True, 3405, "d47fc61c5687f356"),
    "duplicating/non-oblivious-finite": (False, 2, "933c16ad924004b9"),
    "duplicating/oblivious-5.2": (False, 904, "da4733cc127b3172"),
    "duplicating/oblivious-finite": (False, 2, "933c16ad924004b9"),
    "intersection/existential": (False, 168, "8870d4bfed83d475"),
    "intersection/existential-cut": (True, 3, "17878738a6660add"),
    "intersection/full": (True, 169, "ac9bde66afba36e1"),
    "locality/full": (True, 21, "4a716e9125f08f7c"),
    "locality/guarded-linear": (False, 8, "e6d3f05000fd80ce"),
    "modularity/existential": (False, 3, "34b9a3908096c19f"),
    "modularity/full": (True, 21, "7588afbc99b95643"),
    "product/finite": (False, 4, "48da984ed396242f"),
    "product/finite-cut": (True, 2, "f77802aed4ba0cc8"),
    "product/full": (True, 16, "0e91df4ec6ca6f4d"),
    "subinstance/existential": (False, 17, "9d373b41e8f2aa63"),
    "subinstance/full": (True, 31, "c1b010922d0ebcb6"),
    "union/full": (True, 169, "ac9bde66afba36e1"),
    "union/guarded": (False, 30, "98bedc72e0a0c65c"),
}


def _digest(report) -> str:
    text = "\x1f".join(
        (
            str(report.holds),
            str(report.counterexample),
            str(report.checked),
            report.scope,
            report.details,
        )
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_battery_report_is_pinned(case):
    report = CASES[case]()
    assert (report.holds, report.checked, _digest(report)) == PINS[case]


CHARACTERIZE = {
    "full": lambda: characterize(_full(), 1, 0, max_domain_size=1),
    "guarded": lambda: characterize(_guarded(), 1, 0, max_domain_size=1),
    "finite": lambda: characterize(_one_or_two(), 1, 0, max_domain_size=1),
    "existential": lambda: characterize(
        _existential(), 1, 1, max_domain_size=1
    ),
    "full-2": lambda: characterize(_full(), 1, 0, max_domain_size=2),
}

CHARACTERIZE_PINS: dict[str, str] = {
    "existential": "d584e2854826837a",
    "finite": "525c10e75c054032",
    "full": "b16508811c4b917e",
    "full-2": "bcf773aa5b937ede",
    "guarded": "dae524ed92ee17ac",
}


@pytest.mark.parametrize("case", sorted(CHARACTERIZE))
def test_characterize_output_is_pinned(case):
    text = str(CHARACTERIZE[case]())
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    assert digest == CHARACTERIZE_PINS[case]
