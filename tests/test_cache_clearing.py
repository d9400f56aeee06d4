"""`clear_engine_caches` must cold-start *every* process-level memo the
engines consult — the benchmark harness's determinism rests on it.

The audit populates each memo through its real engine path (an
entailment query, a compiled-plan chase under the adaptive order, a
certificate lookup, a dependency-graph build, a semantic MSA/MFA
check), verifies it is non-empty, clears, and verifies it is empty.
A new memo added without a ``clear_engine_caches`` hookup fails the
population audit's sibling: the second round after clearing must
recompute (no cross-repeat leakage).
"""

from __future__ import annotations

from repro.analysis import certificate_for, depgraph_for, mfa_report
from repro.analysis.certificates import _cache as certificate_cache
from repro.analysis.depgraph import _cache as depgraph_cache
from repro.analysis.semantic import _cache as semantic_cache
from repro.chase import chase
from repro.entailment import entails
from repro.entailment.cache import ENTAILMENT_CACHE
from repro.homomorphisms.plans import (
    _ORDER_MEMO,
    _SHAPE_ID_MEMO,
    _SHAPE_MEMO,
    PLAN_CACHE,
)
from repro.instances import Instance
from repro.lang import parse_facts, parse_tgds
from repro.lang.schema import Schema
from repro.perf.families import clear_engine_caches
from repro.workloads import WorkloadSpec, generate_rows
from repro.workloads.factory import _ZIPF_CDF as zipf_cache

SCHEMA = Schema.of(("E", 2), ("P", 1), ("Q", 1))


def _populate_every_memo() -> None:
    sigma = parse_tgds(
        "E(x, y) -> P(x)\nP(x) -> Q(x)", SCHEMA
    )
    conclusion = parse_tgds("E(x, y) -> Q(x)", SCHEMA)[0]
    # entailment memo (+ certificate memo through budget gating,
    # + depgraph via the lint path is separate: populate it directly)
    entails(sigma, conclusion)
    certificate_for(sigma)
    depgraph_for(sigma)
    # semantic memo: a set the syntactic tiers reject
    semantic_set = parse_tgds(
        "A(x) -> exists y . R(x, y)\n"
        "R(x, y) -> exists v . S(y, v)\n"
        "R(x, y), S(y, z), C(z) -> exists w . R(y, w)",
        Schema.of(("A", 1), ("R", 2), ("S", 2), ("C", 1)),
    )
    mfa_report(semantic_set)
    # plan cache + adaptive order memo + conjunction shape memos: a
    # compiled multi-atom chase
    db = Instance.from_facts(
        SCHEMA, parse_facts("E(a, b). E(b, c). P(a).")
    )
    join_sigma = parse_tgds("E(x, y), P(x) -> Q(y)", SCHEMA)
    chase(db, join_sigma, plan="compiled", order="adaptive")
    # workload factory Zipf inverse-CDF memo: one generated stream
    # populates a table per (pool, skew) shape it draws from
    for __ in generate_rows(WorkloadSpec(name="memo", facts=50)):
        pass


def _sizes() -> dict[str, int]:
    return {
        "entailment": ENTAILMENT_CACHE.info()["size"],
        "plans": PLAN_CACHE.info()["size"],
        "order_memo": len(_ORDER_MEMO),
        "shape_memo": len(_SHAPE_MEMO),
        "shape_id_memo": len(_SHAPE_ID_MEMO),
        "certificates": len(certificate_cache),
        "depgraphs": len(depgraph_cache),
        "semantic": len(semantic_cache),
        "zipf_cdf": len(zipf_cache),
    }


def test_clear_engine_caches_empties_every_memo():
    clear_engine_caches()
    _populate_every_memo()
    populated = _sizes()
    for name, size in populated.items():
        assert size > 0, f"audit failed to populate the {name} memo"
    clear_engine_caches()
    for name, size in _sizes().items():
        assert size == 0, f"clear_engine_caches left the {name} memo hot"


def test_cleared_memos_recompute_identically():
    clear_engine_caches()
    _populate_every_memo()
    first = _sizes()
    clear_engine_caches()
    _populate_every_memo()
    assert _sizes() == first
    clear_engine_caches()
