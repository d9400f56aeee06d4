"""Analysis bench — lint throughput over random tgd families, the
certificate memo (one lattice analysis vs a position-graph rebuild per
`entails` call), and the before/after of certificate-gated budget
skipping: on a weakly acyclic family the gated and legacy paths must be
bit-identical while the gated path answers from the memo.  The legacy
path — a fresh weak-acyclicity check per call — is the test oracle in
``tests/oracles/legacy_gating.py``.

The determinism/identity claims are asserted, not just timed, so this
bench doubles as the EXPERIMENTS.md evidence for the gating contract.
"""

import random

import pytest

from conftest import record

from repro import Schema, entails, parse_tgds, run_lint
from repro.analysis import certificate_for, certificates
from repro.memo import clear_memos
from repro.telemetry import TELEMETRY, MemorySink, counter_delta
from repro.workloads import random_schema, random_tgd_set
from tests.oracles.legacy_gating import gating


@pytest.fixture(autouse=True)
def _cold_memos():
    clear_memos()
    yield
    clear_memos()


def lint_family(rng: random.Random, rules: int):
    schema = random_schema(rng, relations=4, max_arity=3)
    return random_tgd_set(
        rng,
        schema,
        rules,
        body_atoms=2,
        head_atoms=2,
        body_variables=3,
        existential_variables=1,
    )


@pytest.mark.parametrize("rules", [4, 8, 16])
def test_lint_throughput(benchmark, rules):
    sigma = lint_family(random.Random(7), rules)
    report = benchmark(run_lint, sigma, entailment=False)
    record(
        f"lint findings[{rules} rules]",
        "deterministic",
        len(report.diagnostics),
    )
    assert report.diagnostics == run_lint(sigma, entailment=False).diagnostics


def test_lint_with_entailment(benchmark):
    sigma = lint_family(random.Random(11), 6)
    report = benchmark(run_lint, sigma)
    assert report.diagnostics  # fragment findings at minimum


def test_certificate_analysis_cost(benchmark):
    sigma = lint_family(random.Random(13), 12)

    def analyze():
        clear_memos()
        return certificate_for(sigma).certificate

    certificate = benchmark(analyze)
    record("certificate[12 random rules]", "lattice member", certificate)


# --- certificate-gated budget skipping --------------------------------

WA_SCHEMA = Schema.of(("E", 2), ("P", 1), ("Q", 1))

# A weakly acyclic family: a chain of full rules plus one invention that
# never feeds back.  `entails` consults `default_budget` once per call.
WA_FAMILY = parse_tgds(
    "E(x, y) -> P(x)\n"
    "P(x) -> Q(x)\n"
    "Q(x) -> exists z . E(x, z)\n"
    "E(x, y), E(y, z) -> P(y)",
    Schema.of(("E", 2), ("P", 1), ("Q", 1)),
)
WA_CONCLUSION = parse_tgds("E(x, y) -> Q(x)", WA_SCHEMA)[0]


def _entail_batch():
    # Every call pays the budget decision + chase.
    return tuple(
        entails(WA_FAMILY, conclusion)
        for conclusion in (
            WA_CONCLUSION,
            parse_tgds("E(x, y) -> P(x)", WA_SCHEMA)[0],
            parse_tgds("P(x) -> exists z . E(x, z)", WA_SCHEMA)[0],
        )
    )


@pytest.mark.parametrize("gated", [True, False])
def test_entailment_budget_skipping(benchmark, gated):
    """Before/after: gating answers the budget question from the memo
    (one lattice analysis ever), the legacy path rebuilds the position
    graph on every call — and the verdicts are bit-identical."""
    clear_memos()
    with gating(gated):
        verdicts = benchmark(_entail_batch)
    with gating(not gated):
        reference = _entail_batch()
    assert verdicts == reference, "gating changed an engine verdict"
    record(
        f"entails verdicts[gated={gated}]",
        "bit-identical",
        tuple(str(v) for v in verdicts),
    )


def test_gated_path_memoizes_the_analysis():
    """Counter evidence for the skip: N entailment calls cost one
    certificate analysis when gated, N position-graph builds when not."""
    sink = MemorySink()
    calls = 5

    clear_memos()
    TELEMETRY.reset()
    TELEMETRY.enable(sink)
    with gating(True):
        for __ in range(calls):
            _entail_batch()
    gated = TELEMETRY.snapshot()
    TELEMETRY.disable()

    clear_memos()
    TELEMETRY.reset()
    TELEMETRY.enable(sink)
    with gating(False):
        for __ in range(calls):
            _entail_batch()
    legacy = TELEMETRY.snapshot()
    TELEMETRY.disable()
    TELEMETRY.reset()

    computed = gated.get("analysis.certificates_computed", 0)
    gated_builds = gated.get("analysis.position_graph_builds", 0)
    legacy_builds = legacy.get("analysis.position_graph_builds", 0)
    dropped = gated.get("chase.certificate", 0)

    record("certificate analyses (gated)", "1", computed)
    record(
        "position graphs built",
        "gated << legacy",
        (gated_builds, legacy_builds),
    )
    assert computed == 1
    assert dropped == calls * 3  # every call dropped its budget
    assert gated_builds < legacy_builds
    assert legacy_builds >= calls * 3  # one rebuild per legacy call


# --- semantic certificates (MSA / MFA) vs budgeted fallback -----------

from repro.analysis import mfa_report, msa_report
from repro.perf.families import MFA_BENCH_MFA_RULES, MFA_BENCH_MSA_RULES

MSA_SET = parse_tgds(
    MFA_BENCH_MSA_RULES, Schema.of(("A", 1), ("R", 2), ("S", 2), ("C", 1))
)
MFA_SET = parse_tgds(
    MFA_BENCH_MFA_RULES,
    Schema.of(("A", 1), ("R", 2), ("I", 1), ("G", 1), ("T", 2)),
)


def test_msa_check_cost(benchmark):
    """The summarised critical-instance chase, cold every repeat."""

    def check():
        clear_memos()
        return msa_report(MSA_SET).acyclic

    assert benchmark(check) is True


def test_mfa_check_cost(benchmark):
    """The faithful (monitored) chase on the MFA-only set, cold."""

    def check():
        clear_memos()
        return mfa_report(MFA_SET).acyclic

    assert benchmark(check) is True


def test_semantic_tier_drops_the_budget():
    """The ablation's point: with the semantic tiers in the lattice the
    engines chase these sets to a definitive fixpoint (budget ``None``);
    the legacy weak-acyclicity-only path keeps the round budget and
    leaves verdicts at UNKNOWN."""
    clear_memos()
    for sigma, label in ((MSA_SET, "msa"), (MFA_SET, "mfa")):
        with gating(True):
            gated = certificates.default_budget(sigma, 12)
        with gating(False):
            legacy = certificates.default_budget(sigma, 12)
        record(
            f"default budget[{label} set]",
            "gated None vs legacy 12",
            (gated, legacy),
        )
        assert gated is None and legacy == 12
