"""End-to-end tests for `repro lint`: determinism across runs, the
three output formats, SARIF schema validation, and the shipped example
rule files."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples" / "rules"
SARIF_SCHEMA = (
    Path(__file__).resolve().parent / "data" / "sarif-2.1.0-subset.schema.json"
)


@pytest.fixture
def mixed_rules(tmp_path):
    path = tmp_path / "mixed.rules"
    path.write_text(
        "A(x) -> exists z . R(x, z)\n"
        "R(x, y), A(y) -> exists w . R(y, w)\n"
        "R(x, y) -> B(y)\n"
        "R(x, y), A(x) -> B(y)\n"
        "R(x, y), R(x, z) -> y = z\n"
    )
    return str(path)


@pytest.fixture
def clean_rules(tmp_path):
    path = tmp_path / "clean.rules"
    path.write_text("Enrolled(s, c) -> Student(s)\n")
    return str(path)


def lint_output(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, mixed_rules, capsys):
        code1, out1 = lint_output(capsys, ["lint", mixed_rules])
        code2, out2 = lint_output(capsys, ["lint", mixed_rules])
        assert (code1, out1) == (code2, out2)

    def test_json_is_byte_identical_across_runs(self, mixed_rules, capsys):
        argv = ["lint", mixed_rules, "--format", "json"]
        _, one = lint_output(capsys, argv)
        _, two = lint_output(capsys, argv)
        assert one == two

    def test_sarif_is_byte_identical_across_runs(self, mixed_rules, capsys):
        argv = ["lint", mixed_rules, "--format", "sarif"]
        _, one = lint_output(capsys, argv)
        _, two = lint_output(capsys, argv)
        assert one == two


class TestFormats:
    def test_text_header_and_findings(self, mixed_rules, capsys):
        code, out = lint_output(capsys, ["lint", mixed_rules])
        assert code == 0
        assert "termination certificate: joint-acyclicity" in out
        assert "T003" in out and "S001" in out and "H004" in out

    def test_json_round_trips(self, mixed_rules, capsys):
        _, out = lint_output(capsys, ["lint", mixed_rules, "--format", "json"])
        payload = json.loads(out)
        assert payload["certificate"] == "joint-acyclicity"
        assert len(payload["rules"]) == 5
        codes = {diag["code"] for diag in payload["diagnostics"]}
        assert {"T003", "S001", "H004"} <= codes

    def test_sarif_validates_against_the_schema(self, mixed_rules, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        _, out = lint_output(
            capsys, ["lint", mixed_rules, "--format", "sarif"]
        )
        log = json.loads(out)
        schema = json.loads(SARIF_SCHEMA.read_text())
        jsonschema.validate(log, schema)
        assert log["version"] == "2.1.0"

    def test_sarif_regions_point_at_source_lines(self, mixed_rules, capsys):
        _, out = lint_output(
            capsys, ["lint", mixed_rules, "--format", "sarif"]
        )
        log = json.loads(out)
        (run,) = log["runs"]
        lines = {
            res["locations"][0]["physicalLocation"]["region"]["startLine"]
            for res in run["results"]
            if "region"
            in res.get("locations", [{}])[0].get("physicalLocation", {})
        }
        # the fixture file has one rule per line, lines 1-5.
        assert lines <= {1, 2, 3, 4, 5} and lines

    def test_output_flag_writes_a_file(self, mixed_rules, tmp_path, capsys):
        target = tmp_path / "report.sarif"
        code = main(
            [
                "lint",
                mixed_rules,
                "--format",
                "sarif",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["version"] == "2.1.0"

    def test_no_entailment_skips_subsumption(self, mixed_rules, capsys):
        _, out = lint_output(capsys, ["lint", mixed_rules, "--no-entailment"])
        assert "H004" not in out

    def test_verbose_repeats_the_rule(self, mixed_rules, capsys):
        _, out = lint_output(capsys, ["lint", mixed_rules, "--verbose"])
        assert "\n    R(x, y), R(x, z) -> y = z" in out


class TestShippedExamples:
    def test_university_is_clean(self, capsys):
        code, out = lint_output(
            capsys, ["lint", str(EXAMPLES / "university.rules")]
        )
        assert code == 0
        assert "termination certificate: weak-acyclicity" in out
        assert "warning" not in out and "error" not in out

    def test_needs_attention_exhibits_the_documented_findings(self, capsys):
        code, out = lint_output(
            capsys, ["lint", str(EXAMPLES / "needs_attention.rules")]
        )
        assert code == 0
        for expected in ("T003", "S001", "H001", "H002", "H003", "H004"):
            assert expected in out, expected

    def test_nonterminating_has_a_cycle_witness(self, capsys):
        _, out = lint_output(
            capsys, ["lint", str(EXAMPLES / "nonterminating.rules")]
        )
        assert "T002" in out
        assert "rule0 -> rule0" in out

    def test_every_example_sarif_validates(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SARIF_SCHEMA.read_text())
        for rules in sorted(EXAMPLES.glob("*.rules")):
            _, out = lint_output(
                capsys, ["lint", str(rules), "--format", "sarif"]
            )
            jsonschema.validate(json.loads(out), schema)


    # SHA-256 of stdout for each shipped example, recorded before the
    # hygiene passes and the affected-position closure were merged; any
    # change to a finding, its order or the classify report shows here.
    @pytest.mark.parametrize("name, argv, digest", [
        ("deep_semantics", ["lint", "--format", "json"],
         "9cd04ed0a619546a36f80b1d88700db64ea23aef8f389df68774d233e8400747"),
        ("deep_semantics", ["lint", "--deep", "--format", "json"],
         "875cdd205ce729bc389fdd2eb7d02c1fa8030df71876241ae02375a732874e79"),
        ("deep_semantics", ["classify"],
         "7e3c1e1b01a2b75c19ecb04071cb99d61d7fde0c58555200720bf573343f80fe"),
        ("needs_attention", ["lint", "--format", "json"],
         "51c9f40168a162a0c5b8ab5b9bdb2439a1a90b339dd245f8168c79c2c766d59a"),
        ("needs_attention", ["lint", "--deep", "--format", "json"],
         "51c9f40168a162a0c5b8ab5b9bdb2439a1a90b339dd245f8168c79c2c766d59a"),
        ("needs_attention", ["classify"],
         "92b8f5e44fc908785cc896feb1b15673deb13aa6bc464f4671702aa8adad7580"),
        ("nonterminating", ["lint", "--format", "json"],
         "e2219dfe76c3e3cf2c210de77bbc97ccd2b98b1c789150ec040d8aa83e73f88f"),
        ("nonterminating", ["lint", "--deep", "--format", "json"],
         "e2219dfe76c3e3cf2c210de77bbc97ccd2b98b1c789150ec040d8aa83e73f88f"),
        ("nonterminating", ["classify"],
         "15812f55e89d5fc01fede35cc8862a13a28710944e70e735b40a7a2cdb1f7872"),
        ("semantic_certificates", ["lint", "--format", "json"],
         "bc0980cd771dc66ba166523520de0afba5c58c9b6a66ddefaabc4b4fa6020b43"),
        ("semantic_certificates", ["lint", "--deep", "--format", "json"],
         "bc0980cd771dc66ba166523520de0afba5c58c9b6a66ddefaabc4b4fa6020b43"),
        ("semantic_certificates", ["classify"],
         "b080cf3b73227c60a59404bd800311d9ea980edcc83fec8b40d13e529f690a95"),
        ("university", ["lint", "--format", "json"],
         "36d655cdd534bf39e0d5ea73617052a34e6d3776c73516881840a485e4a38654"),
        ("university", ["lint", "--deep", "--format", "json"],
         "e7a3e9627f442c57b87172844292eb4713fea40284b9d3d7e55c725fe5fe567d"),
        ("university", ["classify"],
         "1f1ae4370fa8f483907b277cdafa599acf2bcd53688b988348ffd653ea3d2744"),
    ])
    def test_pinned_output(self, name, argv, digest, capsys):
        path = str(EXAMPLES / f"{name}.rules")
        code, out = lint_output(capsys, [argv[0], path, *argv[1:]])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

class TestFailOn:
    def test_warnings_pass_by_default(self, mixed_rules, capsys):
        code, _ = lint_output(capsys, ["lint", mixed_rules])
        assert code == 0

    def test_fail_on_warning_trips_on_warnings(self, mixed_rules, capsys):
        code, _ = lint_output(
            capsys, ["lint", mixed_rules, "--fail-on", "warning"]
        )
        assert code == 1

    def test_fail_on_info_trips_on_a_clean_report(self, clean_rules, capsys):
        # Even a clean set carries info findings (fragments, T001).
        code, _ = lint_output(
            capsys, ["lint", clean_rules, "--fail-on", "info"]
        )
        assert code == 1

    def test_fail_on_warning_passes_an_info_only_report(
        self, clean_rules, capsys
    ):
        code, _ = lint_output(
            capsys, ["lint", clean_rules, "--fail-on", "warning"]
        )
        assert code == 0

    def test_json_format_honours_fail_on(self, mixed_rules, capsys):
        # The JSON path used to unconditionally exit 0.
        code, out = lint_output(
            capsys,
            [
                "lint", mixed_rules, "--format", "json",
                "--fail-on", "warning",
            ],
        )
        assert code == 1
        json.loads(out)  # the report itself is still well-formed

    def test_unparseable_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("this is not ( a rule\n")
        code = main(["lint", str(bad)])
        assert code == 2


class TestDeepLint:
    def test_deep_finds_semantically_dead_predicates(self, capsys):
        code, out = lint_output(
            capsys,
            ["lint", str(EXAMPLES / "deep_semantics.rules"), "--deep"],
        )
        assert code == 0
        assert "D001" in out and "witness: Bad" in out
        assert "L001" in out  # the set is nonrecursive
        # ...and H002 stays silent: Bad is syntactically reachable.
        assert "H002" not in out

    def test_without_deep_the_d_codes_are_absent(self, capsys):
        _, out = lint_output(
            capsys, ["lint", str(EXAMPLES / "deep_semantics.rules")]
        )
        assert "D001" not in out and "L001" not in out

    def test_deep_is_deterministic_across_runs(self, capsys):
        rules = str(EXAMPLES / "deep_semantics.rules")
        argv = ["lint", rules, "--deep", "--format", "sarif"]
        _, one = lint_output(capsys, argv)
        _, two = lint_output(capsys, argv)
        assert one == two

    def test_semantic_certificate_example_is_certified(self, capsys):
        code, out = lint_output(
            capsys,
            ["lint", str(EXAMPLES / "semantic_certificates.rules")],
        )
        assert code == 0
        assert (
            "termination certificate: model-summarising-acyclicity"
            in out
        )
        assert "T001" in out and "T002" not in out

    def test_deep_sarif_validates_against_the_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SARIF_SCHEMA.read_text())
        _, out = lint_output(
            capsys,
            [
                "lint", str(EXAMPLES / "deep_semantics.rules"),
                "--deep", "--format", "sarif",
            ],
        )
        jsonschema.validate(json.loads(out), schema)


class TestChaseCertificateFlag:
    def test_auto_reaches_fixpoint_despite_budget(self, clean_rules, tmp_path, capsys):
        data = tmp_path / "db.txt"
        data.write_text("Enrolled(ada, logic)")
        code = main(
            [
                "chase",
                clean_rules,
                str(data),
                "--max-rounds",
                "0",
                "--certificate",
                "auto",
            ]
        )
        assert code == 0
        assert "Student: (ada)" in capsys.readouterr().out

    def test_off_respects_the_budget(self, clean_rules, tmp_path, capsys):
        data = tmp_path / "db.txt"
        data.write_text("Enrolled(ada, logic)")
        main(["chase", clean_rules, str(data), "--max-rounds", "0"])
        assert "Student: (ada)" not in capsys.readouterr().out
