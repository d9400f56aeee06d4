"""Engine bench — the DESIGN.md §4 ablations made explicit:

1. homomorphism atom ordering: most-constrained-first vs textual order;
2. locality witness search: chase-first (+ minimal members) vs raw
   brute-force enumeration.
"""

import pytest

from conftest import record

from repro import AxiomaticOntology, Instance, Schema, parse_tgds
from repro.homomorphisms import all_extensions_of
from repro.instances import all_instances_up_to
from repro.lang import Const, Fact, parse_atoms
from repro.properties import locality_report
from tests.oracles import interpreted as oracle

SCHEMA = Schema.of(("E", 2), ("V", 1))


def star_instance(rays: int) -> Instance:
    e = SCHEMA.relation("E")
    v = SCHEMA.relation("V")
    facts = [Fact(v, (Const("hub"),))]
    for i in range(rays):
        facts.append(Fact(e, (Const("hub"), Const(f"leaf{i}"))))
        facts.append(Fact(e, (Const(f"leaf{i}"), Const("hub"))))
    return Instance.from_facts(SCHEMA, facts)


# the selective atom (V) comes LAST textually: dynamic ordering moves it
# first, textual order explores every E-pair before testing V.
QUERY = parse_atoms("E(x, y), E(y, z), E(z, w), V(x)", SCHEMA)


def _textual_order(atoms, target):
    """The interpreted test oracle matching atoms in textual order."""
    return oracle.all_extensions_of(atoms, target, dynamic_order=False)


@pytest.mark.parametrize("dynamic", [True, False])
def test_hom_ordering(benchmark, dynamic):
    host = star_instance(12)
    search = all_extensions_of if dynamic else _textual_order
    count = benchmark(lambda: sum(1 for __ in search(QUERY, host)))
    record(
        f"hom ordering dynamic={dynamic}",
        "same count",
        count,
    )
    assert count > 0


@pytest.mark.parametrize("plan", ["compiled", "interpreted"])
def test_hom_plan_ablation(benchmark, plan):
    # Join-plan compilation vs the dynamic-order interpreter (the test
    # oracle) on the star query (both with most-constrained-first
    # ordering; the dynamic=False case above ablates the ordering
    # itself).
    host = star_instance(12)
    search = (
        all_extensions_of if plan == "compiled"
        else oracle.all_extensions_of
    )
    count = benchmark(lambda: sum(1 for __ in search(QUERY, host)))
    record(
        f"hom plan={plan}",
        "same count",
        count,
    )
    assert count > 0


@pytest.mark.parametrize("strategy", ["chase-first", "brute-only"])
def test_witness_search_strategy(benchmark, strategy):
    unary = Schema.of(("R", 1), ("P", 1), ("T", 1))
    sigma = parse_tgds("R(x), P(x) -> T(x)", unary)
    space = list(all_instances_up_to(unary, 1))

    def run():
        ontology = AxiomaticOntology(sigma, schema=unary)
        if strategy == "brute-only":
            # disable the chase witness path by monkey-limiting it
            ontology._chase_witness = lambda anchor: None
        return locality_report(ontology, 1, 0, space)

    report = benchmark(run)
    record(
        f"witness search {strategy}",
        "same verdict",
        report.holds,
    )
    assert report.holds
