"""`clear_memos` must cold-start *every* process-level memo the
engines consult — the benchmark harness's determinism rests on it.

The audit populates each registered memo through its real engine path
(a compiled-plan chase under the adaptive order, a certificate lookup
through an entailment query's budget gate, a dependency-graph build, a
semantic MSA/MFA check, a generated workload stream), verifies it is
non-empty, clears, and verifies it is empty; a second fill after
clearing must recompute identically (no cross-repeat leakage).  The
registry holds exactly the eight named memos, and a walk over every
``repro`` module fails on any module-level memo that never joined it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.analysis import certificate_for, depgraph_for, mfa_report
from repro.chase import chase
from repro.entailment import entails
from repro.instances import Instance
from repro.lang import parse_facts, parse_tgds
from repro.lang.schema import Schema
from repro.memo import _REGISTRY, Memo, clear_memos, memo_sizes, register
from repro.workloads import WorkloadSpec, generate_rows

SCHEMA = Schema.of(("E", 2), ("P", 1), ("Q", 1))

MEMOS = {
    "plans", "order", "shape", "shape_id",
    "certificates", "depgraph", "semantic", "zipf",
}


def _populate_every_memo() -> None:
    sigma = parse_tgds(
        "E(x, y) -> P(x)\nP(x) -> Q(x)", SCHEMA
    )
    conclusion = parse_tgds("E(x, y) -> Q(x)", SCHEMA)[0]
    # certificate memo through the entailment budget gate (the
    # depgraph memo is filled on the lint path: populate it directly)
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
    chase(db, join_sigma, order="adaptive")
    # workload factory Zipf inverse-CDF memo: one generated stream
    # populates a table per (pool, skew) shape it draws from
    for __ in generate_rows(WorkloadSpec(name="memo", facts=50)):
        pass


def test_registry_holds_exactly_the_named_memos():
    assert set(memo_sizes()) == MEMOS


def test_register_rejects_a_taken_name():
    plans = _REGISTRY["plans"]
    with pytest.raises(ValueError, match="already registered"):
        register("plans", Memo(maxsize=1))
    assert _REGISTRY["plans"] is plans


def test_clear_memos_empties_every_memo():
    clear_memos()
    _populate_every_memo()
    populated = memo_sizes()
    assert set(populated) == MEMOS
    for name, size in populated.items():
        assert size > 0, f"audit failed to populate the {name} memo"
    clear_memos()
    for name, size in memo_sizes().items():
        assert size == 0, f"clear_memos left the {name} memo hot"


def test_cleared_memos_recompute_identically():
    clear_memos()
    _populate_every_memo()
    first = memo_sizes()
    clear_memos()
    _populate_every_memo()
    assert memo_sizes() == first
    clear_memos()


def _memo_named(name: str) -> bool:
    return name.endswith(("_MEMO", "_CACHE")) or name == "_cache"


def test_every_module_level_memo_is_registered():
    enrolled = {id(memo) for memo in _REGISTRY.values()}
    seen: set[int] = set()
    stray: list[str] = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            if not _memo_named(attr) or not isinstance(value, (dict, Memo)):
                continue
            seen.add(id(value))
            if id(value) not in enrolled:
                stray.append(f"{info.name}.{attr}")
    assert not stray, f"memos missing from the registry: {stray}"
    # ... and the walk reaches every registered memo by its name.
    assert enrolled <= seen
