"""The chase-based semantic certificates (MSA / MFA) and their place in
the lattice.

The curated sets here are the heart of the tentpole: each defeats every
syntactic tier (weak / joint / super-weak acyclicity all see a place
cycle) yet the monitored critical-instance chase certifies termination.
The separating mechanism is always a *join the place analysis cannot
evaluate*: a body atom over an extensional guard predicate that never
holds for any invented term, so the "recursive" rule is semantically
inert.  The fourth set separates the two semantic tiers themselves —
the summarised model conflates two Skolem functions into a spurious
feeding cycle that the faithful terms never realize.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    Certificate,
    certificate_for,
    is_mfa,
    is_msa,
    is_super_weakly_acyclic,
    mfa_report,
    msa_report,
)
from repro.analysis.semantic import MFA_MAX_FACTS, skolem_functions
from repro.chase import StopReason, chase
from repro.instances import critical_instance
from repro.lang import parse_tgds
from repro.lang.schema import Schema
from repro.memo import clear_memos
from repro.telemetry import TELEMETRY, MemorySink
from repro.workloads.scenarios import all_scenarios

GUARDED_LOOP_SCHEMA = Schema.of(("A", 1), ("R", 2), ("S", 2), ("C", 1))

# MSA but not SWA: rule 2 re-feeds R, but its guard C(z) only ever
# ranges over extensional constants — never over an invented term — so
# the loop cannot turn.  The place analysis cannot see that.
MSA_NOT_SWA_BASIC = parse_tgds(
    "A(x) -> exists y . R(x, y)\n"
    "R(x, y) -> exists v . S(y, v)\n"
    "R(x, y), S(y, z), C(z) -> exists w . R(y, w)",
    GUARDED_LOOP_SCHEMA,
)

# Same obstruction through a two-rule loop R -> T -> R.
MSA_NOT_SWA_MUTUAL = parse_tgds(
    "A(x) -> exists y . R(x, y)\n"
    "R(x, y) -> exists v . S(y, v)\n"
    "R(x, y), S(y, z), C(z) -> exists w . T(y, w)\n"
    "T(x, y), S(x, z), C(z) -> exists u . R(x, u)",
    Schema.of(("A", 1), ("R", 2), ("S", 2), ("C", 1), ("T", 2)),
)

# Same obstruction with a guarded first rule and a full-tgd distractor.
MSA_NOT_SWA_GUARDED = parse_tgds(
    "A(x), Z(x) -> exists y . R(x, y)\n"
    "R(x, y) -> exists v . S(y, v)\n"
    "R(x, y), S(y, z), C(z) -> exists w . R(y, w)\n"
    "S(x, y), S(y, z) -> Q(x, z)",
    Schema.of(("A", 1), ("Z", 1), ("R", 2), ("S", 2), ("C", 1), ("Q", 2)),
)

# MFA but not MSA: in the *summary* model the bare constants c_f and
# c_g feed each other (A -> R via f, G -> T via g, T -> A closes the
# loop), so the MSA edge graph has a cycle — but the faithful terms
# f(c0), g(f(c0)), f(g(f(c0))) never nest a function inside itself
# before the guard I(x) runs out of extensional constants.
MFA_NOT_MSA = parse_tgds(
    "A(x) -> exists y . R(x, y)\n"
    "R(x, y), I(x) -> G(y)\n"
    "G(x) -> exists y . T(x, y)\n"
    "T(x, y), I(x) -> A(y)",
    Schema.of(("A", 1), ("R", 2), ("I", 1), ("G", 1), ("T", 2)),
)

NONTERMINATING = parse_tgds(
    "E(x, y) -> exists z . E(y, z)", Schema.of(("E", 2))
)

MSA_NOT_SWA_SETS = [
    pytest.param(MSA_NOT_SWA_BASIC, id="basic"),
    pytest.param(MSA_NOT_SWA_MUTUAL, id="mutual"),
    pytest.param(MSA_NOT_SWA_GUARDED, id="guarded"),
]

SEMANTIC_SETS = MSA_NOT_SWA_SETS + [pytest.param(MFA_NOT_MSA, id="mfa-only")]


class TestCuratedSeparations:
    @pytest.mark.parametrize("sigma", MSA_NOT_SWA_SETS)
    def test_msa_but_not_super_weakly_acyclic(self, sigma):
        assert not is_super_weakly_acyclic(sigma)
        assert is_msa(sigma)
        report = msa_report(sigma)
        assert report.acyclic is True and report.cycle is None

    @pytest.mark.parametrize("sigma", MSA_NOT_SWA_SETS)
    def test_certificate_lattice_lands_on_msa(self, sigma):
        report = certificate_for(sigma)
        assert report.certificate is (
            Certificate.MODEL_SUMMARISING_ACYCLICITY
        )
        assert report.guarantees_termination

    def test_mfa_strictly_extends_msa(self):
        msa = msa_report(MFA_NOT_MSA)
        assert msa.acyclic is False
        assert msa.cycle  # the spurious summary feeding cycle
        mfa = mfa_report(MFA_NOT_MSA)
        assert mfa.acyclic is True
        report = certificate_for(MFA_NOT_MSA)
        assert report.certificate is (
            Certificate.MODEL_FAITHFUL_ACYCLICITY
        )
        assert report.guarantees_termination

    @pytest.mark.parametrize("sigma", SEMANTIC_SETS)
    def test_mfa_certified_but_not_swa(self, sigma):
        # The acceptance separation: every curated set is in the MFA
        # class (is_mfa answers via the MSA ⊆ MFA shortcut) yet
        # defeats the strongest syntactic tier.
        assert not is_super_weakly_acyclic(sigma)
        assert is_mfa(sigma)

    @pytest.mark.parametrize("sigma", SEMANTIC_SETS)
    def test_certified_sets_really_terminate_unbounded(self, sigma):
        # The certificate's promise, checked directly: an *unbounded*
        # chase of the critical instance reaches a fixpoint.
        schema = Schema.combined(tgd.schema for tgd in sigma)
        result = chase(critical_instance(schema, 1), sigma)
        assert result.stop_reason is StopReason.FIXPOINT


class TestMonitorAndSoundness:
    def test_nonterminating_set_fails_both_semantic_tiers(self):
        msa = msa_report(NONTERMINATING)
        mfa = mfa_report(NONTERMINATING)
        assert msa.acyclic is False
        assert mfa.acyclic is False
        # The monitor's witness: a Skolem function nested in itself.
        assert mfa.cycle == ("@sk0.z", "@sk0.z")

    def test_nonterminating_set_stays_uncertified(self):
        report = certificate_for(NONTERMINATING)
        assert report.certificate is Certificate.NONE
        # The NONE witness stays the super-weak trigger cycle (the
        # contract every existing consumer pins).
        assert report.cycle == ("rule0", "rule0")

    def test_budget_exhaustion_is_inconclusive_not_certified(self):
        report = mfa_report(MFA_NOT_MSA, max_facts=1)
        assert report.acyclic is None

    def test_skolem_naming_is_deterministic(self):
        # Indices follow the engine's canonical sorted-by-str rule
        # order: the A-rule is rule 0, the G-rule rule 1.
        functions = skolem_functions(MFA_NOT_MSA)
        names = sorted(fn.name for fn in functions.values())
        assert names == ["@sk0.y", "@sk1.y"]

    def test_egds_disable_the_semantic_tiers(self):
        from repro.lang import parse_dependency

        egd = parse_dependency("E(x, y), E(x, z) -> y = z")
        report = certificate_for([*NONTERMINATING, egd])
        # With an egd present the lattice stops at the syntactic
        # tiers: NONE here, and no semantic chase ran at all.
        assert report.certificate is Certificate.NONE
        assert not report.tgd_only


class TestIsolationAndMemoization:
    def setup_method(self):
        TELEMETRY.disable()
        TELEMETRY.reset()
        clear_memos()

    def teardown_method(self):
        TELEMETRY.disable()
        TELEMETRY.reset()
        clear_memos()

    def test_internal_chases_emit_no_engine_telemetry(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        msa_report(MSA_NOT_SWA_BASIC)
        mfa_report(MFA_NOT_MSA)
        TELEMETRY.disable()
        counters = sink.counters
        assert not any(name.startswith("chase.") for name in counters)
        assert counters.get("analysis.msa_checks") == 1
        assert counters.get("analysis.mfa_checks") == 1
        assert not any(s.name == "chase" for s in sink.spans)

    def test_internal_chases_leave_the_plan_cache_unchanged(self):
        from repro.analysis.deep import semantic_reachability_diagnostics
        from repro.homomorphisms.plans import PLAN_CACHE

        # Warm the cache with a plan the analyses' chases would reuse.
        db = critical_instance(Schema.of(("E", 2)), 1)
        chase(db, NONTERMINATING, max_rounds=2)
        before = PLAN_CACHE.info()
        assert before["size"] > 0
        msa_report(MSA_NOT_SWA_BASIC)
        mfa_report(MFA_NOT_MSA)
        mfa_report(NONTERMINATING)
        assert semantic_reachability_diagnostics(MSA_NOT_SWA_GUARDED)
        assert PLAN_CACHE.info() == before

    def test_mfa_rounds_histogram_is_observed(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        mfa_report(MFA_NOT_MSA)
        TELEMETRY.disable()
        assert "analysis.mfa_chase_rounds" in sink.histograms

    def test_same_text_parsed_twice_is_one_entry(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        first = mfa_report(MFA_NOT_MSA)
        second = mfa_report(parse_tgds(
            "\n".join(str(tgd) for tgd in MFA_NOT_MSA),
            Schema.of(("A", 1), ("R", 2), ("I", 1), ("G", 1), ("T", 2)),
        ))
        TELEMETRY.disable()
        assert second is first
        assert sink.counters.get("analysis.mfa_checks") == 1
        assert sink.counters.get("analysis.semantic_cache_hits") == 1

    def test_a_renamed_variant_is_analysed_on_its_own(self):
        sink = MemorySink()
        TELEMETRY.enable(sink)
        first = mfa_report(MFA_NOT_MSA)
        renamed = parse_tgds(
            "A(a) -> exists b . R(a, b)\n"
            "R(a, b), I(a) -> G(b)\n"
            "G(a) -> exists b . T(a, b)\n"
            "T(a, b), I(a) -> A(b)",
            Schema.of(("A", 1), ("R", 2), ("I", 1), ("G", 1), ("T", 2)),
        )
        second = mfa_report(renamed)
        TELEMETRY.disable()
        assert second is not first
        assert second.acyclic is first.acyclic
        assert sink.counters.get("analysis.mfa_checks") == 2
        assert "analysis.semantic_cache_hits" not in sink.counters

    @pytest.mark.parametrize("report", [msa_report, mfa_report])
    def test_warm_witness_equals_cold(self, report):
        # The witness names Skolem functions after the rule's own
        # variables, so a renamed rule must not be answered from the
        # memo entry of another phrasing.
        schema = Schema.of(("E", 2))
        phrased = parse_tgds("E(u, v) -> exists w . E(v, w)", schema)
        cold = report(phrased).cycle
        assert cold == ("@sk0.w", "@sk0.w")
        clear_memos()
        report(parse_tgds("E(x, y) -> exists z . E(y, z)", schema))
        assert report(phrased).cycle == cold

    def test_clear_semantic_cache_forces_recomputation(self):
        first = mfa_report(MFA_NOT_MSA)
        clear_memos()
        second = mfa_report(MFA_NOT_MSA)
        assert second is not first
        assert second.acyclic is first.acyclic

    def test_budget_is_part_of_the_memo_key(self):
        full = mfa_report(MFA_NOT_MSA)
        starved = mfa_report(MFA_NOT_MSA, max_facts=1)
        assert full.acyclic is True
        assert starved.acyclic is None


class TestDifferentialAgainstTheChaseCorpus:
    @pytest.mark.parametrize(
        "scenario", all_scenarios(), ids=lambda s: s.name
    )
    def test_semantically_certified_scenarios_terminate_unbounded(
        self, scenario
    ):
        report = certificate_for(scenario.tgds)
        if report.certificate not in (
            Certificate.MODEL_SUMMARISING_ACYCLICITY,
            Certificate.MODEL_FAITHFUL_ACYCLICITY,
        ):
            pytest.skip("scenario not certified by a semantic tier")
        result = chase(scenario.sample, scenario.tgds)
        assert result.stop_reason is StopReason.FIXPOINT

    @pytest.mark.parametrize(
        "scenario", all_scenarios(), ids=lambda s: s.name
    )
    def test_semantic_verdicts_respect_known_divergence(self, scenario):
        # The corpus's one non-terminating scenario must never be
        # certified; every certified scenario's unbounded critical
        # chase must reach a fixpoint (checked above for samples).
        report = certificate_for(scenario.tgds)
        if scenario.name == "social_non_terminating":
            assert not report.guarantees_termination
        if report.guarantees_termination:
            schema = Schema.combined(t.schema for t in scenario.tgds)
            result = chase(critical_instance(schema, 1), scenario.tgds)
            assert result.stop_reason is StopReason.FIXPOINT
