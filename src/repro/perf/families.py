"""The benchmark family registry.

A family is a named, deterministic workload exercising one engine path
end to end.  Requirements for membership:

* **deterministic operation counts** — with caches cleared (the harness
  does this before every repeat), the counter/histogram snapshot of a
  run is a pure function of the codebase, so two commits can be
  compared exactly;
* **CI-sized** — every family finishes in well under a second on a
  laptop; trend detection wants many cheap samples, not one slow one;
* **pinned inputs** — the scenarios are written out literally here and
  never derived from anything environmental.

The pinned rewrite scenarios are the paper's own: Example 9 / Example 10
(guarded → linear over a unary chain schema) and the Example 5.2
composition rule (full-tgd rewriting), the same inputs
``tests/test_rewrite_regression.py`` locks semantically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..chase.engine import chase
from ..dependencies.classes import TGDClass
from ..entailment.implication import entails
from ..instances.instance import Instance
from ..lang.atoms import Fact
from ..lang.parser import parse_facts, parse_tgds
from ..lang.schema import Relation, Schema
from ..lang.terms import Const
from ..rewriting.rewrite import (
    frontier_guarded_to_guarded,
    guarded_to_linear,
    rewrite,
)
from ..workloads.factory import (
    WorkloadSpec,
    dependencies_of,
    generate_rows,
    schema_of,
)

__all__ = ["BenchFamily", "FAMILIES", "MFA_BENCH_MFA_RULES",
           "MFA_BENCH_MSA_RULES", "SKEW_FILLER", "SKEW_HUB", "SKEW_NODES",
           "SKEW_RULES", "STREAM_SPEC",
           "resolve_families", "run_skew", "run_stream", "skew_instance"]


@dataclass(frozen=True)
class BenchFamily:
    """One registered workload: ``runner`` runs it once, end to end."""

    name: str
    description: str
    runner: Callable[[], None]
    smoke: bool = True  # part of the CI smoke subset


# ----------------------------------------------------------------------
# Pinned scenarios
# ----------------------------------------------------------------------

_UNARY3 = Schema.of(("R", 1), ("P", 1), ("T", 1))
_BINARY3 = Schema.of(("R", 2), ("S", 2), ("T", 2))

_E9_RULES = "R(x) -> P(x)\nR(x), P(x) -> T(x)"
_E10_RULES = "R(x) -> P(x)\nR(x), P(y) -> T(x)"
_COMPOSITION_RULE = "R(x, y), S(y, z) -> T(x, z)"

_CHASE_FULL_RULES = (
    "R(x, y) -> S(y, x)\n"
    "S(x, y), R(y, z) -> T(x, z)\n"
    "T(x, y), S(y, z) -> R(x, z)"
)
_CHASE_FULL_DATA = (
    "R(a, b). R(b, c). R(c, d). R(d, e). R(e, f). R(f, a)."
)

_CHASE_EXISTENTIAL_RULES = (
    "R(x, y) -> S(y, z)\n"          # z existential: invents nulls
    "S(x, y) -> T(x, x)\n"
    "T(x, y), R(x, w) -> S(w, x)"
)
_CHASE_EXISTENTIAL_DATA = "R(a, b). R(b, c). R(c, a)."


def _instance(schema: Schema, text: str) -> Instance:
    facts = parse_facts(text)
    return Instance.from_facts(schema, facts)


# The Zipf-skewed join workload behind the chase-skewed family.  A
# cursor marches around a ring; six rules share the body
# ``Cur(x), B(x, y), C(x, y)``.  B's per-node buckets are Zipf-sized
# (the hub node holds SKEW_HUB distractor rows, node i holds
# ~SKEW_HUB/(i+1)) while C pairs every node with exactly one diagonal
# row — but C's extent is padded with SKEW_FILLER never-joining rows so
# it stays *larger* than B's.  The join order therefore tie-breaks the
# two 1-bound atoms toward B (smaller extent) and wades through the
# Zipf buckets: a semi-naive chase whose join work is dominated by
# skewed fan-out.

SKEW_NODES = 16
SKEW_HUB = 240
SKEW_FILLER = 1000
_SKEW_HEADS = 6
_SKEW_B = Relation("B", 2)
_SKEW_C = Relation("C", 2)
_SKEW_NEXT = Relation("Next", 2)
_SKEW_CUR = Relation("Cur", 1)
_SKEW_SCHEMA = Schema(
    [_SKEW_B, _SKEW_C, _SKEW_NEXT, _SKEW_CUR]
    + [Relation(f"D{k}", 1) for k in range(1, _SKEW_HEADS + 1)]
)
SKEW_RULES = "\n".join(
    [
        f"Cur(x), B(x, y), C(x, y) -> D{k}(y)"
        for k in range(1, _SKEW_HEADS + 1)
    ]
    + ["Cur(x), Next(x, y) -> Cur(y)"]
)


def skew_instance(
    *,
    nodes: int = SKEW_NODES,
    hub: int = SKEW_HUB,
    filler: int = SKEW_FILLER,
) -> Instance:
    """The pinned Zipf-skew database (deterministic for fixed sizes)."""
    facts = [Fact(_SKEW_CUR, (Const("v000"),))]
    for i in range(nodes):
        here = Const(f"v{i:03d}")
        diag = Const(f"c{i:03d}")
        facts.append(Fact(_SKEW_NEXT, (here, Const(f"v{(i + 1) % nodes:03d}"))))
        facts.append(Fact(_SKEW_B, (here, diag)))
        facts.append(Fact(_SKEW_C, (here, diag)))
        for j in range(max(1, hub // (i + 1)) - 1):
            facts.append(Fact(_SKEW_B, (here, Const(f"b{i:03d}_{j:03d}"))))
    for j in range(filler):
        facts.append(
            Fact(_SKEW_C, (Const(f"u{j:04d}"), Const(f"w{j:04d}")))
        )
    return Instance.from_facts(_SKEW_SCHEMA, facts)


def run_skew(*, nodes: int = SKEW_NODES, hub: int = SKEW_HUB,
             filler: int = SKEW_FILLER) -> None:
    """One full skew chase: each round's delta joins walk into the
    Zipf buckets of B."""
    deps = parse_tgds(SKEW_RULES, _SKEW_SCHEMA)
    db = skew_instance(nodes=nodes, hub=hub, filler=filler)
    result = chase(db, deps, max_rounds=2 * nodes)
    assert result.successful, "skew family must reach a fixpoint"
    # nodes - 1 marching rounds, one trailing round deriving the last
    # diagonal (the D rules precede the cursor rule in the sweep), one
    # fixpoint-detection round.
    assert result.rounds == nodes + 1, "skew cursor must visit every node"
    for k in range(1, _SKEW_HEADS + 1):
        derived = result.instance.tuples(f"D{k}")
        assert len(derived) == nodes, "every diagonal must be derived"


def _run_chase_full() -> None:
    deps = parse_tgds(_CHASE_FULL_RULES, _BINARY3)
    db = _instance(_BINARY3, _CHASE_FULL_DATA)
    result = chase(db, deps)
    assert result.successful, "chase-full family must reach a fixpoint"


def _run_chase_existential() -> None:
    deps = parse_tgds(_CHASE_EXISTENTIAL_RULES, _BINARY3)
    db = _instance(_BINARY3, _CHASE_EXISTENTIAL_DATA)
    result = chase(db, deps, max_rounds=32)
    assert result.rounds > 0


def _run_rewrite_linear() -> None:
    sigma = list(parse_tgds(_E9_RULES, _UNARY3))
    result = guarded_to_linear(sigma, schema=_UNARY3)
    assert result.status in ("success", "failure")


def _run_rewrite_guarded() -> None:
    # Example 10 (positive) plus the Section 9.1 separation witness
    # (a definitive failure): one success path, one ⊥ path.
    for rules in (_E10_RULES, "R(x), P(y) -> T(x)"):
        sigma = list(parse_tgds(rules, _UNARY3))
        result = frontier_guarded_to_guarded(sigma, schema=_UNARY3)
        assert result.status in ("success", "failure")


def _run_rewrite_full() -> None:
    sigma = list(parse_tgds(_COMPOSITION_RULE, _BINARY3))
    result = rewrite(
        sigma, TGDClass.FULL, schema=_BINARY3, max_body_atoms=2
    )
    assert result.status in ("success", "failure")


# The semantic-certificate workload behind the analysis-mfa family and
# the benchmarks/bench_analysis.py MFA ablation.  Two pinned sets that
# defeat every syntactic tier (WA/JA/SWA all see a place cycle) yet are
# chase-finite: the first is summarisable (MSA — its guard C never
# holds for summary constants), the second is certified only by the
# faithful chase (MFA — the summary model conflates f- and g-terms
# into a spurious cycle the faithful terms never realize).

_MFA_MSA_SCHEMA = Schema.of(("A", 1), ("R", 2), ("S", 2), ("C", 1))
MFA_BENCH_MSA_RULES = (
    "A(x) -> R(x, y)\n"
    "R(x, y) -> S(y, v)\n"
    "R(x, y), S(y, z), C(z) -> R(y, w)"
)
_MFA_ONLY_SCHEMA = Schema.of(
    ("A", 1), ("R", 2), ("I", 1), ("G", 1), ("T", 2)
)
MFA_BENCH_MFA_RULES = (
    "A(x) -> R(x, y)\n"
    "R(x, y), I(x) -> G(y)\n"
    "G(x) -> T(x, y)\n"
    "T(x, y), I(x) -> A(y)"
)


def _run_analysis_mfa() -> None:
    from ..analysis.certificates import Certificate, certificate_for

    msa_set = parse_tgds(MFA_BENCH_MSA_RULES, _MFA_MSA_SCHEMA)
    mfa_set = parse_tgds(MFA_BENCH_MFA_RULES, _MFA_ONLY_SCHEMA)
    msa = certificate_for(msa_set)
    assert (
        msa.certificate is Certificate.MODEL_SUMMARISING_ACYCLICITY
    ), "analysis-mfa: first set must be MSA-certified"
    mfa = certificate_for(mfa_set)
    assert (
        mfa.certificate is Certificate.MODEL_FAITHFUL_ACYCLICITY
    ), "analysis-mfa: second set must be MFA-certified"


# The streaming-ingestion workload behind the chase-stream family and
# the benchmarks/bench_workloads.py measurements.  A pinned factory spec
# is generated in memory, ingested through Instance.from_stream in
# small batches (exercising the ingest.* telemetry), then chased with
# the rollup rules under a chunked delta sweep, which bounds the
# materialized trigger batch.  The family runs to its fixpoint with no
# fact budget; the CI smoke job covers a fact-budget stop on a
# genworkload stream.

STREAM_SPEC = WorkloadSpec(
    name="bench", seed=2021, facts=4000, levels=3, skew=1.0
)
_STREAM_BATCH = 512
_STREAM_CHUNK = 1024


def run_stream(*, spec: WorkloadSpec = STREAM_SPEC) -> None:
    """One streamed ingest + chunked chase."""
    deps = dependencies_of(spec)
    db = Instance.from_stream(
        generate_rows(spec), schema=schema_of(spec), batch_size=_STREAM_BATCH
    )
    result = chase(db, deps, delta_chunk=_STREAM_CHUNK, max_rounds=8)
    assert result.successful, "chase-stream family must reach a fixpoint"
    for k in range(spec.levels - 1):
        assert result.instance.tuples(f"A{k}"), "rollups must derive"


def _run_entails_cold() -> None:
    sigma = list(parse_tgds(_E9_RULES, _UNARY3))
    conclusions = parse_tgds(
        "R(x) -> T(x)\nP(x) -> T(x)\nT(x) -> R(x)\n"
        "P(x) -> R(x)\nT(x) -> P(x)\nR(x), P(x) -> T(x)",
        _UNARY3,
    )
    for conclusion in conclusions:
        entails(sigma, conclusion)


FAMILIES: dict[str, BenchFamily] = {
    family.name: family
    for family in (
        BenchFamily(
            "chase-full",
            "full-tgd fixpoint over a 6-cycle (semi-naive deltas)",
            _run_chase_full,
        ),
        BenchFamily(
            "chase-existential",
            "null-inventing chase under a round budget",
            _run_chase_existential,
        ),
        BenchFamily(
            "rewrite-linear",
            "Algorithm 1 on Examples 9 and 10 (guarded → linear)",
            _run_rewrite_linear,
        ),
        BenchFamily(
            "rewrite-guarded",
            "Algorithm 2 on Example 9 (frontier-guarded → guarded)",
            _run_rewrite_guarded,
        ),
        BenchFamily(
            "rewrite-full",
            "full-tgd rewriting of the Example 5.2 composition rule",
            _run_rewrite_full,
            smoke=False,  # the largest family: kept out of CI smoke
        ),
        BenchFamily(
            "entails-cold",
            "cold chase-based entailment battery (one chase per call)",
            _run_entails_cold,
        ),
        BenchFamily(
            "chase-skewed",
            "Zipf-skewed join chase, semi-naive (the join walks the "
            "hub buckets)",
            run_skew,
        ),
        BenchFamily(
            "chase-stream",
            "streamed factory ingest (batched) plus a chunked-delta "
            "rollup chase",
            run_stream,
        ),
        BenchFamily(
            "analysis-mfa",
            "semantic certificate lattice climb: monitored critical-"
            "instance chases certifying an MSA and an MFA-only set",
            _run_analysis_mfa,
        ),
    )
}


def resolve_families(
    selector: str | None, *, smoke_only: bool = False
) -> list[BenchFamily]:
    """``selector`` is a comma-separated family list, ``"all"``, or
    ``None`` (→ every family, or the smoke subset with
    ``smoke_only``)."""
    if selector and selector != "all":
        chosen = []
        for name in selector.split(","):
            name = name.strip()
            if name not in FAMILIES:
                known = ", ".join(sorted(FAMILIES))
                raise ValueError(
                    f"unknown bench family {name!r} (known: {known})"
                )
            chosen.append(FAMILIES[name])
        return chosen
    families = list(FAMILIES.values())
    if smoke_only:
        families = [family for family in families if family.smoke]
    return families
