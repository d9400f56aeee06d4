"""Tests for `repro.analysis`: the certificate lattice, budget gating,
hygiene, stratification, the lint driver, and the engine wiring
(``repro chase --certificate auto``, entailment gating parity, rewrite
pre-flight and short-circuit)."""

from __future__ import annotations

import json

import pytest

from repro import (
    Certificate,
    Instance,
    PreflightError,
    Schema,
    TGDClass,
    TriBool,
    chase,
    entails,
    parse_dependency,
    parse_tgds,
    rewrite,
    run_lint,
)
from repro.analysis import (
    certificate_for,
    certificates,
    default_budget,
    is_jointly_acyclic,
    is_super_weakly_acyclic,
    render_json,
    render_text,
)
from repro.analysis.diagnostics import Severity, sort_diagnostics
from repro.analysis.hygiene import (
    reachability_diagnostics,
    subsumption_diagnostics,
    unused_variable_diagnostics,
)
from repro.analysis.lint import certificate_diagnostics
from repro.analysis.sarif import sarif_payload
from repro.analysis.stratification import stratification_diagnostics
from repro.chase import is_weakly_acyclic
from repro.cli import main
from repro.memo import clear_memos
from repro.rewriting import frontier_guarded_to_guarded, guarded_to_linear
from repro.telemetry import TELEMETRY, MemorySink
from tests.oracles import legacy_gating as legacy
from tests.oracles.legacy_gating import gating, legacy_gating

EP = Schema.of(("E", 2), ("P", 1))
AR = Schema.of(("A", 1), ("R", 2), ("B", 1))
BS = Schema.of(("B", 1), ("S", 3))
ABC = Schema.of(("A", 1), ("B", 1), ("C", 1))


def wa_set():
    """Weakly acyclic (hence everything below it in the lattice)."""
    return parse_tgds("P(x) -> exists z . E(x, z)", EP)


def ja_not_wa_set():
    """Jointly acyclic but not weakly acyclic: the position cycle on
    R[1] never feeds the *existential variable* z back into itself —
    z lands in R[1], w is minted from y drawn from R[1], but w's
    frontier never includes a position z reaches existentially twice."""
    return parse_tgds(
        "A(x) -> exists z . R(x, z)\n"
        "R(x, y), A(y) -> exists w . R(y, w)",
        AR,
    )


def swa_not_ja_set():
    """Super-weakly acyclic but not jointly acyclic: position-level
    analysis sees y1 -> y1, but the Skolem-level trigger check knows
    S(u, w, w) cannot unify with a head atom carrying two *distinct*
    existentials in its last two slots."""
    return parse_tgds(
        "B(x) -> exists y1, y2 . S(x, y1, y2), S(x, y2, y1)\n"
        "S(u, w, w) -> B(w)",
        BS,
    )


def uncertified_set():
    """The classic non-terminating rule: nothing in the lattice applies."""
    return parse_tgds("E(x, y) -> exists z . E(y, z)", EP)


@pytest.fixture(autouse=True)
def clean_state():
    """Telemetry off/zeroed and the certificate memo cold, per test."""
    TELEMETRY.disable()
    TELEMETRY.reset()
    clear_memos()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()
    clear_memos()


class TestCertificateLattice:
    def test_weakly_acyclic_gets_strongest_certificate(self):
        report = certificate_for(wa_set())
        assert report.certificate is Certificate.WEAK_ACYCLICITY
        assert report.cycle is None
        assert report.guarantees_termination

    def test_jointly_acyclic_separation(self):
        sigma = ja_not_wa_set()
        assert not is_weakly_acyclic(sigma)
        assert is_jointly_acyclic(sigma)
        assert certificate_for(sigma).certificate is Certificate.JOINT_ACYCLICITY

    def test_super_weakly_acyclic_separation(self):
        sigma = swa_not_ja_set()
        assert not is_weakly_acyclic(sigma)
        assert not is_jointly_acyclic(sigma)
        assert is_super_weakly_acyclic(sigma)
        assert (
            certificate_for(sigma).certificate
            is Certificate.SUPER_WEAK_ACYCLICITY
        )

    def test_uncertified_set_carries_cycle_witness(self):
        report = certificate_for(uncertified_set())
        assert report.certificate is Certificate.NONE
        assert report.cycle == ("rule0", "rule0")
        assert not report.guarantees_termination

    def test_containment_on_the_separating_family(self):
        # WA => JA => SWA must hold wherever the stronger one does.
        for sigma in (wa_set(), ja_not_wa_set(), swa_not_ja_set()):
            if is_weakly_acyclic(sigma):
                assert is_jointly_acyclic(sigma)
            if is_jointly_acyclic(sigma):
                assert is_super_weakly_acyclic(sigma)

    def test_strength_order_and_implication(self):
        chain = (
            Certificate.WEAK_ACYCLICITY,
            Certificate.JOINT_ACYCLICITY,
            Certificate.SUPER_WEAK_ACYCLICITY,
            Certificate.NONE,
        )
        for stronger, weaker in zip(chain, chain[1:]):
            assert stronger.implies(weaker)
            assert not weaker.implies(stronger)

    def test_empty_set_is_weakly_acyclic(self):
        assert (
            certificate_for(()).certificate is Certificate.WEAK_ACYCLICITY
        )


class TestSoundnessScope:
    """Joint/super-weak certificates are proven for tgd-only sets;
    weak acyclicity covers tgds + egds (Fagin et al.)."""

    def test_weak_acyclicity_covers_egds(self):
        deps = list(wa_set()) + [
            parse_dependency("E(x, y), E(x, z) -> y = z", EP)
        ]
        report = certificate_for(deps)
        assert report.certificate is Certificate.WEAK_ACYCLICITY
        assert report.guarantees_termination

    def test_refinement_out_of_scope_with_egds(self):
        deps = list(ja_not_wa_set()) + [
            parse_dependency("R(x, y), R(x, z) -> y = z", AR)
        ]
        report = certificate_for(deps)
        assert report.certificate is Certificate.JOINT_ACYCLICITY
        assert not report.tgd_only
        assert not report.guarantees_termination

    def test_denials_do_not_void_refinements(self):
        deps = list(ja_not_wa_set()) + [
            parse_dependency("R(x, x) -> false", AR)
        ]
        report = certificate_for(deps)
        assert report.certificate is Certificate.JOINT_ACYCLICITY
        assert report.guarantees_termination

    def test_certificate_diagnostics_t001_t002_t003(self):
        (t001,) = certificate_diagnostics(certificate_for(wa_set()))
        assert t001.code == "T001" and t001.severity is Severity.INFO
        assert t001.witness == "weak-acyclicity"

        (t002,) = certificate_diagnostics(certificate_for(uncertified_set()))
        assert t002.code == "T002" and t002.severity is Severity.WARNING
        assert t002.witness == "rule0 -> rule0"

        deps = list(ja_not_wa_set()) + [
            parse_dependency("R(x, y), R(x, z) -> y = z", AR)
        ]
        (t003,) = certificate_diagnostics(certificate_for(deps))
        assert t003.code == "T003" and t003.severity is Severity.WARNING
        assert t003.witness == "joint-acyclicity"


class TestMemoization:
    def test_computed_once_then_cache_hits(self):
        TELEMETRY.enable(MemorySink())
        sigma = wa_set()
        certificate_for(sigma)
        certificate_for(sigma)
        certificate_for(sigma)
        counters = TELEMETRY.snapshot()
        assert counters["analysis.certificates_computed"] == 1
        assert counters["analysis.certificate_cache_hits"] == 2

    def test_same_text_parsed_twice_is_one_entry(self):
        TELEMETRY.enable(MemorySink())
        certificate_for(wa_set())
        certificate_for(wa_set())
        counters = TELEMETRY.snapshot()
        assert counters["analysis.certificates_computed"] == 1
        assert counters["analysis.certificate_cache_hits"] == 1

    def test_a_renamed_variant_is_analysed_on_its_own(self):
        TELEMETRY.enable(MemorySink())
        certificate_for(parse_tgds("P(x) -> exists z . E(x, z)", EP))
        certificate_for(parse_tgds("P(u) -> exists v . E(u, v)", EP))
        counters = TELEMETRY.snapshot()
        assert counters["analysis.certificates_computed"] == 2
        assert "analysis.certificate_cache_hits" not in counters

    def test_cache_false_recomputes(self):
        # clear_memos() is the one way to a cold analysis.
        TELEMETRY.enable(MemorySink())
        sigma = wa_set()
        certificate_for(sigma)
        clear_memos()
        certificate_for(sigma)
        assert TELEMETRY.snapshot()["analysis.certificates_computed"] == 2

    def test_warm_witness_equals_cold(self):
        # The witness names rules by index: a reordered set answered
        # from the original's memo entry would name the wrong rule.
        forward = parse_tgds(
            "P(x) -> Q(x)\nE(x, y) -> exists z . E(y, z)",
            Schema.of(("P", 1), ("Q", 1), ("E", 2)),
        )
        backward = list(reversed(forward))
        cold = certificate_for(backward).cycle
        assert cold == ("rule0", "rule0")
        clear_memos()
        certificate_for(forward)
        assert certificate_for(backward).cycle == cold

    def test_lint_witness_names_the_linted_rules(self):
        schema = Schema.of(("P", 1), ("Q", 1), ("E", 2))
        forward = parse_tgds(
            "P(x) -> Q(x)\nE(x, y) -> exists z . E(y, z)", schema
        )
        backward = list(reversed(forward))

        def t002(sigma):
            report = run_lint(sigma, entailment=False)
            return [d.witness for d in report.diagnostics if d.code == "T002"]

        assert t002(forward) == ["rule1 -> rule1"]
        assert t002(backward) == ["rule0 -> rule0"]


class TestDefaultBudget:
    def test_certified_sets_drop_the_budget(self):
        assert default_budget(wa_set(), 7) is None
        assert default_budget(ja_not_wa_set(), 7) is None
        assert default_budget(swa_not_ja_set(), 7) is None

    def test_uncertified_sets_keep_the_fallback(self):
        assert default_budget(uncertified_set(), 7) == 7

    def test_refinements_do_not_gate_with_egds(self):
        deps = list(ja_not_wa_set()) + [
            parse_dependency("R(x, y), R(x, z) -> y = z", AR)
        ]
        assert default_budget(deps, 7) == 7

    def test_gating_off_reproduces_legacy_weak_acyclicity(self):
        with legacy_gating():
            assert certificates.default_budget(wa_set(), 7) is None
            # legacy path ignores the refinements entirely:
            assert certificates.default_budget(ja_not_wa_set(), 7) == 7

    def test_gating_counter(self):
        TELEMETRY.enable(MemorySink())
        default_budget(wa_set(), 7)
        default_budget(uncertified_set(), 7)
        assert TELEMETRY.snapshot()["chase.certificate"] == 1

    def test_context_manager_restores_state(self):
        assert certificates.default_budget is default_budget
        with legacy_gating():
            for module in legacy._SEAMS:
                assert module.default_budget is legacy.legacy_budget
        for module in legacy._SEAMS:
            assert module.default_budget is default_budget


def _chase_cli(tmp_path, rules, data, *flags):
    """Run ``repro chase`` on rule and fact texts and return its exit
    code; an argparse usage error's ``SystemExit`` gives its code."""
    rules_path = tmp_path / "rules.txt"
    rules_path.write_text(rules)
    data_path = tmp_path / "data.txt"
    data_path.write_text(data)
    try:
        code = main(["chase", str(rules_path), str(data_path), *flags])
    except SystemExit as exc:
        code = exc.code
    return code


WA_RULES = "P(x) -> exists z . E(x, z)\n"
# examples/rules/semantic_certificates.rules: WA/JA/SWA all see a place
# cycle through R, but the monitored critical-instance chase certifies
# the set model-summarising acyclic.
MSA_RULES = (
    "A(x) -> exists y . R(x, y)\n"
    "R(x, y) -> exists v . S(y, v)\n"
    "R(x, y), S(y, z), C(z) -> exists w . R(y, w)\n"
)
UNCERTIFIED_RULES = "E(x, y) -> exists z . E(y, z)\n"


class TestEngineWiring:
    """``repro chase --certificate auto`` gates its round budget through
    :func:`default_budget`; ``chase`` itself takes plain budgets."""

    def test_chase_auto_drops_budget_for_certified_sets(
        self, tmp_path, capsys
    ):
        # A weakly acyclic set, and an MSA set no syntactic tier
        # certifies; each reaches its fixpoint in two rounds.
        for rules, data, budget in [
            (WA_RULES, "P(a)", "0"),
            (MSA_RULES, "A(a). R(a, b)", "1"),
        ]:
            assert _chase_cli(
                tmp_path, rules, data, "--max-rounds", budget
            ) == 2
            out = capsys.readouterr().out
            assert "budget exhausted (round_budget)" in out
            assert _chase_cli(
                tmp_path, rules, data,
                "--max-rounds", budget, "--certificate", "auto",
            ) == 0
            out = capsys.readouterr().out
            assert "chase terminated" in out
            assert ", 2 rounds" in out

    def test_chase_auto_keeps_budget_for_uncertified_sets(
        self, tmp_path, capsys
    ):
        assert _chase_cli(
            tmp_path, UNCERTIFIED_RULES, "E(a, b)",
            "--max-rounds", "2", "--certificate", "auto",
        ) == 2
        assert "budget exhausted (round_budget)" in capsys.readouterr().out

    def test_chase_auto_counts_certificate_uses(self, tmp_path):
        report = tmp_path / "report.json"
        assert _chase_cli(
            tmp_path, WA_RULES, "P(a)", "--max-rounds", "3",
            "--certificate", "auto", "--report", str(report),
        ) == 0
        counters = json.loads(report.read_text())["counters"]
        assert counters["chase.certificate"] == 1

    def test_chase_rejects_unknown_certificate_mode(self, tmp_path, capsys):
        assert _chase_cli(
            tmp_path, WA_RULES, "P(a)", "--certificate", "maybe"
        ) == 2
        assert "invalid choice: 'maybe'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", ["certificate", "max_memory_mb", "delta_chunk"]
    )
    def test_chase_takes_no_gating_or_memory_option(self, option):
        with pytest.raises(TypeError):
            chase(Instance.parse("P(a)", EP), wa_set(), **{option: 1})

    def test_entailment_bit_identical_across_gating(self):
        premises = parse_tgds("A(x) -> B(x)\nB(x) -> C(x)", ABC)
        conclusion = parse_tgds("A(x) -> C(x)", ABC)[0]
        with gating(True):
            on = entails(premises, conclusion)
        with gating(False):
            off = entails(premises, conclusion)
        assert on is off is TriBool.TRUE

    def test_entailment_upgrades_on_jointly_acyclic_premises(self):
        # On a JA-not-WA set the gated path chases to a fixpoint and
        # answers definitively where the legacy path must hedge.
        premises = ja_not_wa_set()
        conclusion = parse_tgds("A(x) -> exists z . R(x, z)", AR)[0]
        with gating(True):
            assert entails(premises, conclusion) is TriBool.TRUE
        with gating(False):
            assert entails(premises, conclusion) is TriBool.TRUE


class TestHygiene:
    def test_unused_variable_flagged_in_multi_atom_body(self):
        (dep,) = parse_tgds("R(x, y), A(y), A(w) -> B(x)", AR)
        diags = unused_variable_diagnostics(0, dep)
        assert [d.code for d in diags] == ["H001"]
        assert diags[0].witness == "w in A(w)"

    def test_single_atom_projection_is_idiomatic(self):
        (dep,) = parse_tgds("R(x, y) -> B(x)", AR)
        assert unused_variable_diagnostics(0, dep) == ()

    def test_egd_sides_count_as_exported(self):
        dep = parse_dependency("R(x, y), R(x, z) -> y = z", AR)
        assert unused_variable_diagnostics(0, dep) == ()

    def test_denial_wildcards_are_exempt(self):
        dep = parse_dependency("R(x, y), A(w) -> false", AR)
        assert unused_variable_diagnostics(0, dep) == ()

    def test_mutually_derived_predicates_are_unreachable(self):
        schema = Schema.of(("Ghost", 1), ("Phantom", 1), ("C", 1))
        deps = parse_tgds(
            "Ghost(x) -> Phantom(x)\nPhantom(x), C(w) -> Ghost(x)", schema
        )
        diags = reachability_diagnostics(deps)
        assert {d.witness for d in diags if d.code == "H002"} == {
            "Ghost",
            "Phantom",
        }
        dead = sorted(d.rule for d in diags if d.code == "H003")
        assert dead == [0, 1]

    def test_no_extensional_predicate_skips_the_pass(self):
        assert reachability_diagnostics(uncertified_set()) == ()

    def test_subsumed_rule_names_its_subsumer(self):
        deps = parse_tgds(
            "R(x, y) -> B(y)\nR(x, y), A(x) -> B(y)", AR
        )
        diags = subsumption_diagnostics(deps)
        assert [(d.code, d.rule, d.witness) for d in diags] == [
            ("H004", 1, "rule 0")
        ]

    def test_identical_rules_subsume_each_other(self):
        deps = parse_tgds("A(x) -> B(x)\nA(u) -> B(u)", ABC)
        diags = subsumption_diagnostics(deps)
        assert [(d.code, d.rule) for d in diags] == [
            ("H004", 0),
            ("H004", 1),
        ]

    def test_redundant_rule_needs_the_whole_set(self):
        deps = parse_tgds("A(x) -> B(x)\nB(x) -> C(x)\nA(x) -> C(x)", ABC)
        diags = subsumption_diagnostics(deps)
        assert [(d.code, d.rule) for d in diags] == [("H005", 2)]


class TestStratification:
    def test_egd_reading_derived_predicate(self):
        deps = list(parse_tgds("A(x) -> exists z . R(x, z)", AR)) + [
            parse_dependency("R(x, y), R(x, z) -> y = z", AR)
        ]
        (diag,) = stratification_diagnostics(deps)
        assert diag.code == "S001" and diag.severity is Severity.WARNING
        assert diag.rule == 1
        assert diag.witness == "R derived by rule 0"

    def test_stratified_egd_is_silent(self):
        deps = list(parse_tgds("A(x) -> B(x)", AR)) + [
            parse_dependency("R(x, y), R(x, z) -> y = z", AR)
        ]
        assert stratification_diagnostics(deps) == ()

    def test_denial_reading_derived_predicate_is_info(self):
        deps = list(parse_tgds("A(x) -> B(x)", AR)) + [
            parse_dependency("B(x) -> false", AR)
        ]
        (diag,) = stratification_diagnostics(deps)
        assert diag.code == "S002" and diag.severity is Severity.INFO


class TestLintDriver:
    def lintable_set(self):
        schema = Schema.of(("A", 1), ("R", 2), ("B", 1), ("C", 1))
        return list(
            parse_tgds(
                "A(x) -> exists z . R(x, z)\n"
                "R(x, y), A(y) -> exists w . R(y, w)\n"
                "R(x, y) -> B(y)\n"
                "R(x, y), A(x) -> B(y)",
                schema,
            )
        ) + [parse_dependency("R(x, y), R(x, z) -> y = z", schema)]

    def test_repeated_runs_are_identical(self):
        first = run_lint(self.lintable_set())
        second = run_lint(self.lintable_set())
        assert first == second

    def test_rendered_reports_are_byte_identical(self):
        first = run_lint(self.lintable_set())
        second = run_lint(self.lintable_set())
        assert render_json(first) == render_json(second)
        assert render_text(first) == render_text(second)

    def test_diagnostics_come_out_in_canonical_order(self):
        report = run_lint(self.lintable_set())
        assert report.diagnostics == sort_diagnostics(report.diagnostics)
        # per-rule findings first (ascending rule), set-level last.
        rules = [d.rule for d in report.diagnostics]
        per_rule = [r for r in rules if r is not None]
        assert per_rule == sorted(per_rule)
        first_set_level = rules.index(None) if None in rules else len(rules)
        assert all(r is None for r in rules[first_set_level:])

    def test_expected_findings_of_the_mixed_set(self):
        report = run_lint(self.lintable_set())
        codes = {d.code for d in report.diagnostics}
        assert {"F001", "F002", "F003", "F004", "H004", "S001", "T003"} <= codes
        assert report.certificate is Certificate.JOINT_ACYCLICITY
        assert report.worst is Severity.WARNING
        assert report.exit_code == 0

    def test_entailment_false_skips_subsumption(self):
        report = run_lint(self.lintable_set(), entailment=False)
        codes = {d.code for d in report.diagnostics}
        assert "H004" not in codes and "H005" not in codes

    def test_clean_set_has_only_info(self):
        report = run_lint(wa_set())
        assert report.worst is Severity.INFO
        assert report.certificate is Certificate.WEAK_ACYCLICITY


class TestRewritePreflight:
    def unguarded(self):
        schema = Schema.of(("R", 2), ("B", 1))
        return parse_tgds("R(x, y), R(y, z) -> B(x)", schema)

    def test_algorithm1_rejects_unguarded_input_with_r001(self):
        with pytest.raises(PreflightError) as err:
            guarded_to_linear(self.unguarded(), max_rounds=1)
        (diag,) = [
            d for d in err.value.diagnostics if d.code == "R001"
        ]
        assert diag.severity is Severity.ERROR
        assert diag.rule == 0
        assert diag.witness is not None
        assert "Algorithm 1" in diag.message

    def test_preflight_attaches_the_loop_restriction_hint(self):
        # The unguarded fixture is nonrecursive, so alongside the R001
        # rejection the preflight notes the set is still FO-rewritable.
        with pytest.raises(PreflightError) as err:
            guarded_to_linear(self.unguarded(), max_rounds=1)
        (hint,) = [
            d for d in err.value.diagnostics if d.code == "L001"
        ]
        assert hint.severity is Severity.INFO
        assert "FO-rewritable" in hint.message

    def test_algorithm2_rejects_non_frontier_guarded_input(self):
        schema = Schema.of(("R", 2), ("S", 2))
        sigma = parse_tgds("R(x, y), R(y, z) -> S(x, z)", schema)
        with pytest.raises(PreflightError) as err:
            frontier_guarded_to_guarded(sigma, max_rounds=1)
        (diag,) = [
            d for d in err.value.diagnostics if d.code == "R001"
        ]
        assert "Algorithm 2" in diag.message

    def test_rewrite_short_circuits_source_already_in_target(self):
        schema = Schema.of(("R", 2), ("B", 1))
        sigma = parse_tgds("R(x, y) -> B(x)", schema)
        result = rewrite(sigma, TGDClass.LINEAR, max_rounds=2)
        assert result.succeeded
        assert result.short_circuit
        assert result.candidates_considered == 0
        assert result.rewriting == tuple(sigma)
        assert "[source already in target class]" in str(result)

    def test_short_circuit_counts_telemetry(self):
        TELEMETRY.enable(MemorySink())
        schema = Schema.of(("R", 2), ("B", 1))
        sigma = parse_tgds("R(x, y) -> B(x)", schema)
        rewrite(sigma, TGDClass.LINEAR, max_rounds=2)
        assert TELEMETRY.snapshot()["rewrite.short_circuit"] == 1

    def test_enumeration_caps_suppress_the_short_circuit(self):
        schema = Schema.of(("B", 1), ("C", 1))
        sigma = parse_tgds("B(x) -> C(x)", schema)
        result = rewrite(
            sigma, TGDClass.LINEAR, max_rounds=2, max_head_atoms=1
        )
        assert not result.short_circuit
        assert result.candidates_considered > 0

    def test_unsupported_target_still_raises(self):
        schema = Schema.of(("B", 1), ("C", 1))
        sigma = parse_tgds("B(x) -> C(x)", schema)
        with pytest.raises(ValueError, match="unsupported rewrite target"):
            rewrite(sigma, TGDClass.TGD)


class TestSarifPayload:
    def test_payload_shape_and_levels(self):
        report = run_lint(uncertified_set())
        payload = sarif_payload(report)
        assert payload["version"] == "2.1.0"
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert run["properties"]["terminationCertificate"] == "none"
        for result, diag in zip(run["results"], report.diagnostics):
            assert result["ruleId"] == diag.code
            assert result["level"] == diag.severity.sarif_level
            assert rule_ids[result["ruleIndex"]] == diag.code

    def test_rule_lines_become_regions(self):
        report = run_lint(wa_set())
        payload = sarif_payload(
            report, artifact_uri="demo.rules", rule_lines=[3]
        )
        regions = [
            res["locations"][0]["physicalLocation"]["region"]["startLine"]
            for res in payload["runs"][0]["results"]
            if "region" in res.get("locations", [{}])[0].get(
                "physicalLocation", {}
            )
        ]
        assert regions and set(regions) == {3}


class TestDeepLint:
    """The engine-backed deep pass (D001-D003, L001)."""

    def chain_schema(self, length):
        return Schema.of(("P", 1), ("Q", 1), ("Succ", 2))

    def long_chain_dep(self, length, head="P"):
        """P(x0), Succ(x0,x1), ..., Succ(x{n-1},xn) -> head(xn): provable
        only by a chase of `length` rounds, beyond the default budget of
        12 when `length` is larger."""
        body = ["P(x0)"] + [
            f"Succ(x{i}, x{i + 1})" for i in range(length)
        ]
        text = ", ".join(body) + f" -> {head}(x{length})"
        return parse_dependency(text)

    def test_d002_subsumption_only_at_the_escalated_budget(self):
        # The stepper re-feeds Succ with an invented successor, so no
        # certificate applies and the default 12-round budget stays on;
        # the 20-step chain needs ~20 rounds, the escalated 48 suffice.
        stepper = parse_dependency(
            "P(x), Succ(x, y) -> exists z . P(y), Succ(y, z)"
        )
        deep_dep = self.long_chain_dep(20)
        sigma = [stepper, deep_dep]
        assert entails([stepper], deep_dep) is TriBool.UNKNOWN
        report = run_lint(sigma, deep=True)
        codes = {d.code for d in report.diagnostics}
        assert "H004" not in codes  # shallow pass cannot see it
        (d002,) = [d for d in report.diagnostics if d.code == "D002"]
        assert d002.rule == 1
        assert d002.witness == "rule 0"

    def test_d003_redundancy_only_at_the_escalated_budget(self):
        # ping invents a Succ successor, keeping the {ping, pong} set
        # uncertified (budget stays on); alternating the two rules
        # walks the odd-length chain two steps per round, reaching
        # Q(x31) in ~16 rounds — beyond the default 12, within the
        # escalated 48.  Neither rule alone
        # entails the chain (each stalls at a definitive fixpoint), so
        # only D003 (not H004/D002) can report it.
        from repro.analysis.deep import DEEP_BUDGET_FACTOR
        from repro.entailment.bcq import DEFAULT_CHASE_ROUNDS

        ping = parse_dependency(
            "P(x), Succ(x, y) -> exists z . Q(y), Succ(y, z)"
        )
        pong = parse_dependency("Q(x), Succ(x, y) -> P(y)")
        deep_dep = self.long_chain_dep(31, head="Q")
        budget = DEEP_BUDGET_FACTOR * DEFAULT_CHASE_ROUNDS
        sigma = [ping, pong, deep_dep]
        assert entails([ping, pong], deep_dep) is TriBool.UNKNOWN
        assert entails([ping, pong], deep_dep, max_rounds=budget) is (
            TriBool.TRUE
        )
        report = run_lint(sigma, deep=True)
        (d003,) = [d for d in report.diagnostics if d.code == "D003"]
        assert d003.rule == 2
        assert "escalated budget" in d003.message

    def test_d001_requires_a_terminating_monitored_chase(self):
        # The monitored chase of the nonterminating set stops on the
        # monitor, so no D001 is ever guessed.
        from repro.analysis.deep import semantic_reachability_diagnostics

        schema = Schema.of(("E", 2), ("Dead", 1))
        sigma = parse_tgds(
            "E(x, y) -> exists z . E(y, z)\nE(x, x) -> Dead(x)", schema
        )
        assert semantic_reachability_diagnostics(sigma) == ()

    def test_d001_skips_sets_with_egds(self):
        from repro.analysis.deep import semantic_reachability_diagnostics

        schema = Schema.of(("A", 1), ("R", 2), ("Bad", 1))
        sigma = list(
            parse_tgds("A(x) -> exists y . R(x, y)\nR(x, x) -> Bad(x)", schema)
        )
        assert semantic_reachability_diagnostics(sigma)  # tgd-only: fires
        sigma.append(parse_dependency("R(x, y), R(x, z) -> y = z"))
        assert semantic_reachability_diagnostics(sigma) == ()

    def test_l001_only_for_nonrecursive_sets(self):
        from repro.analysis.deep import loop_restriction_diagnostics

        schema = Schema.of(("A", 1), ("B", 1))
        nonrec = parse_tgds("A(x) -> B(x)", schema)
        rec = parse_tgds("A(x) -> B(x)\nB(x) -> A(x)", schema)
        (hint,) = loop_restriction_diagnostics(nonrec)
        assert hint.code == "L001" and hint.severity is Severity.INFO
        assert loop_restriction_diagnostics(rec) == ()

    def test_deep_pass_observes_its_cost_histogram(self):
        from repro.analysis.deep import deep_diagnostics

        schema = Schema.of(("A", 1), ("B", 1))
        sigma = parse_tgds("A(x) -> B(x)", schema)
        TELEMETRY.disable()
        TELEMETRY.reset()
        sink = MemorySink()
        TELEMETRY.enable(sink)
        deep_diagnostics(sigma)
        TELEMETRY.disable()
        TELEMETRY.reset()
        assert "analysis.deep_ms" in sink.histograms

    def test_exit_code_for_thresholds(self):
        schema = Schema.of(("A", 1), ("R", 2), ("Bad", 1))
        sigma = parse_tgds(
            "A(x) -> exists y . R(x, y)\nR(x, x) -> Bad(x)", schema
        )
        report = run_lint(sigma, deep=True)
        assert report.worst is Severity.WARNING  # the D001
        assert report.exit_code == 0
        assert report.exit_code_for("error") == 0
        assert report.exit_code_for("warning") == 1
        assert report.exit_code_for("info") == 1
        with pytest.raises(ValueError):
            report.exit_code_for("fatal")
