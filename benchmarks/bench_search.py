"""Search-kernel bench — the in-process candidate scan (DESIGN.md §7).

One throughput bench per family: the E9 / E10 rewrite families, the
Theorem 4.1 synthesis workload and the dense Example 5.2 full-tgd
family, each recording candidates decided per second and asserting the
family's known answer.
"""

import time

from conftest import record

from repro import AxiomaticOntology, Schema, TGDClass, parse_tgds
from repro.dependencies.canonical import canonical_key
from repro.rewriting import (
    RewriteStatus,
    frontier_guarded_to_guarded,
    guarded_to_linear,
    rewrite,
)
from repro.synthesis import synthesize_tgds

UNARY3 = Schema.of(("R", 1), ("P", 1), ("T", 1))
BINARY3 = Schema.of(("R", 2), ("S", 2), ("T", 2))
MIXED = Schema.of(("E", 2), ("V", 1))


def _throughput(label: str, considered: int, elapsed: float) -> None:
    rate = considered / elapsed if elapsed > 0 else float("inf")
    record(label, "one process", f"{rate:.0f} cand/s")


def test_e9_family(benchmark):
    sigma = parse_tgds("R(x) -> P(x)\nR(x), P(x) -> T(x)", UNARY3)
    result = benchmark(guarded_to_linear, sigma, schema=UNARY3)
    _throughput(
        "search E9 G-to-L", result.candidates_considered,
        result.elapsed_seconds,
    )
    assert result.status == RewriteStatus.SUCCESS


def test_e10_family(benchmark):
    sigma = parse_tgds("R(x) -> P(x)\nR(x), P(y) -> T(x)", UNARY3)
    result = benchmark(frontier_guarded_to_guarded, sigma, schema=UNARY3)
    _throughput(
        "search E10 FG-to-G", result.candidates_considered,
        result.elapsed_seconds,
    )
    assert result.status == RewriteStatus.SUCCESS


def test_synthesis_workload(benchmark):
    ontology = AxiomaticOntology(
        parse_tgds("V(x) -> exists z . E(x, z)", MIXED), schema=MIXED
    )
    result = benchmark(synthesize_tgds, ontology, 1, 1, max_body_atoms=1)
    # one timed call for the throughput row (SynthesisResult carries no
    # elapsed field)
    start = time.perf_counter()
    synthesize_tgds(ontology, 1, 1, max_body_atoms=1)
    _throughput(
        "search synthesis TGD_1,1", result.candidates_considered,
        time.perf_counter() - start,
    )
    assert result.verified


def test_dense_example_52_family(benchmark):
    """The Example 5.2 full-tgd search over the three-relation binary
    schema: ~1.1k candidates, decided from one chase per body."""
    sigma = parse_tgds("R(x, y), S(y, z) -> T(x, z)", BINARY3)
    result = benchmark(
        rewrite, sigma, TGDClass.FULL, schema=BINARY3, max_body_atoms=2
    )
    _throughput(
        "search dense E5.2", result.candidates_considered,
        result.elapsed_seconds,
    )
    assert result.status == RewriteStatus.SUCCESS
    assert {canonical_key(tgd) for tgd in result.rewriting} == {
        canonical_key(tgd) for tgd in sigma
    }
