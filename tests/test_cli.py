"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text(
        """
        # a linear ontology
        Enrolled(s, c) -> Student(s)
        Student(s) -> exists t . HasTutor(s, t)
        HasTutor(s, t) -> Lecturer(t)
        """
    )
    return str(path)


@pytest.fixture
def guarded_rules_file(tmp_path):
    path = tmp_path / "guarded.txt"
    path.write_text("R(x), P(x) -> T(x)\n")
    return str(path)


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("Enrolled(ada, logic). Student(bob)")
    return str(path)


class TestClassify:
    def test_reports_classes_and_width(self, rules_file, capsys):
        assert main(["classify", rules_file]) == 0
        out = capsys.readouterr().out
        assert "linear" in out
        assert "TGD_{2,1}" in out
        assert "weakly acyclic: True" in out

    def test_reports_special_cycle(self, tmp_path, capsys):
        path = tmp_path / "cyclic.txt"
        path.write_text("E(x, y) -> exists z . E(y, z)\n")
        main(["classify", str(path)])
        out = capsys.readouterr().out
        assert "weakly acyclic: False" in out
        assert "special cycle" in out

    def test_empty_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro classify: cannot load {path}: ")
        assert "no dependencies found" in err


class TestChase:
    def test_materializes(self, rules_file, data_file, capsys):
        assert main(["chase", rules_file, data_file]) == 0
        out = capsys.readouterr().out
        assert "terminated" in out
        assert "Student" in out and "ada" in out

    def test_failure_exit_code(self, tmp_path, capsys):
        rules = tmp_path / "dc.txt"
        rules.write_text("R(x) -> P(x)\nR(x), P(x) -> false\n")
        data = tmp_path / "d.txt"
        data.write_text("R(a)")
        assert main(["chase", str(rules), str(data)]) == 1

    def test_unknown_backend_rejected(self, rules_file, data_file, capsys):
        """There is one fact store, so ``--backend`` is no option."""
        with pytest.raises(SystemExit) as exc:
            main(
                ["chase", rules_file, data_file,
                 "--backend", "vectorized"]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_memory_budget_flag_removed(self, rules_file, data_file, capsys):
        """Budgets count the run's own work, so there is no peak-RSS
        ``--max-memory-mb``; ``--max-facts`` is the size budget."""
        with pytest.raises(SystemExit) as exc:
            main(["chase", rules_file, data_file, "--max-memory-mb", "1"])
        assert exc.value.code == 2
        assert (
            "unrecognized arguments: --max-memory-mb"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["chase", "entails", "rewrite"])
    def test_unknown_order_rejected(
        self, command, rules_file, data_file, capsys
    ):
        """There is one join order, so ``--order`` is no option."""
        operands = {
            "chase": [rules_file, data_file],
            "entails": [rules_file, "Enrolled(s, c) -> Student(s)"],
            "rewrite": [rules_file, "--max-candidates", "0"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *operands, "--order", "static"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --order" in capsys.readouterr().err

    def test_lint_jobs_rejected(self, rules_file, capsys):
        """Lint runs in-process, so ``lint --jobs`` is no option."""
        with pytest.raises(SystemExit) as exc:
            main(["lint", rules_file, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rewrite", "audit", "characterize"])
    def test_jobs_flag_removed(self, rules_file, capsys, command):
        """The candidate search runs in-process: no ``--jobs`` anywhere."""
        with pytest.raises(SystemExit) as exc:
            main([command, rules_file, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestMalformedInput:
    """Bad files and flags exit 2 with a one-line message, never a
    traceback."""

    def _load_fails(self, capsys, argv, path):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: cannot load {path}: ")
        assert "Traceback" not in err

    def _flag_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >=" in err
        assert "Traceback" not in err

    def test_rules_line_without_head(self, tmp_path, data_file, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("E(x,y) ->\n")
        self._load_fails(capsys, ["chase", str(bad), data_file], bad)

    def test_missing_rules_file(self, tmp_path, data_file, capsys):
        missing = tmp_path / "missing.rules"
        self._load_fails(capsys, ["chase", str(missing), data_file], missing)

    def test_unparseable_facts(self, tmp_path, rules_file, capsys):
        bad = tmp_path / "bad.facts"
        bad.write_text("E(a,b")
        self._load_fails(capsys, ["chase", rules_file, str(bad)], bad)

    def test_from_stream_on_a_plain_facts_file(
        self, rules_file, data_file, capsys
    ):
        self._load_fails(
            capsys, ["chase", rules_file, data_file, "--from-stream"],
            data_file,
        )

    def test_delta_chunk_flag_removed(self, rules_file, data_file, capsys):
        """Every sweep joins its whole delta at once, so there is no
        ``--delta-chunk``."""
        with pytest.raises(SystemExit) as exc:
            main(["chase", rules_file, data_file, "--delta-chunk", "8"])
        assert exc.value.code == 2
        assert (
            "unrecognized arguments: --delta-chunk"
            in capsys.readouterr().err
        )

    def test_negative_fact_budget(self, rules_file, data_file, capsys):
        self._flag_rejected(
            capsys,
            ["chase", rules_file, data_file, "--max-facts", "-1"],
            "--max-facts",
        )

    def test_negative_round_budget(self, rules_file, data_file, capsys):
        self._flag_rejected(
            capsys, ["chase", rules_file, data_file, "--max-rounds", "-3"],
            "--max-rounds",
        )

    @pytest.mark.parametrize("command,flag,value", [
        ("audit", "--max-domain", "-1"),
        ("rewrite", "--max-seconds", "-0.5"),
        ("bench", "--repeat", "0"),
        ("genworkload", "--batch-size", "0"),
    ])
    def test_out_of_range_flag(
        self, tmp_path, rules_file, capsys, command, flag, value
    ):
        target = {
            "bench": [], "genworkload": [str(tmp_path / "w.stream")],
        }.get(command, [rules_file])
        self._flag_rejected(capsys, [command, *target, flag, value], flag)

    def test_zero_round_budget_still_allowed(
        self, rules_file, data_file, capsys
    ):
        assert main(
            ["chase", rules_file, data_file, "--max-rounds", "0"]
        ) == 2
        out = capsys.readouterr().out
        assert "budget exhausted (round_budget)" in out
        assert "0 rounds" in out

    def test_other_commands_share_the_loader(self, tmp_path, capsys):
        missing = tmp_path / "missing.rules"
        for command in ("classify", "audit", "lint"):
            self._load_fails(capsys, [command, str(missing)], missing)

    @pytest.mark.parametrize("rules", [
        "R(x) -> P(x)\nP(x, y) -> T(x)\n",
        "R(x), R(x, y) -> P(x)\n",
    ], ids=["across-lines", "within-a-line"])
    def test_rule_arity_conflict(self, tmp_path, data_file, capsys, rules):
        bad = tmp_path / "bad.rules"
        bad.write_text(rules)
        for argv in (
            ["chase", str(bad), data_file], ["lint", str(bad)],
            ["rewrite", str(bad)],
        ):
            self._load_fails(capsys, argv, bad)
        main(["lint", str(bad)])
        err = capsys.readouterr().err
        line = rules.count("\n")
        assert f"line {line}:" in err and "arit" in err

    def test_data_arity_disagrees_with_rules(self, tmp_path, capsys):
        rules = tmp_path / "r.rules"
        rules.write_text("R(x) -> P(x)\n")
        data = tmp_path / "d.facts"
        data.write_text("R(a)\nR(a, b)\n")
        self._load_fails(capsys, ["chase", str(rules), str(data)], data)
        main(["chase", str(rules), str(data)])
        err = capsys.readouterr().err
        assert "line 2: R has arity 2 here but arity 1 in the rules" in err

    def test_stream_header_disagrees_with_rules(
        self, tmp_path, stream_file, capsys
    ):
        rules = tmp_path / "r.rules"
        rules.write_text("L0(x) -> P(x)\n")
        self._load_fails(
            capsys, ["chase", str(rules), stream_file, "--from-stream"],
            stream_file,
        )

    def test_comment_only_rules_file(self, tmp_path, data_file, capsys):
        empty = tmp_path / "empty.rules"
        empty.write_text("# nothing here\n\n")
        for argv in (["lint", str(empty)], ["chase", str(empty), data_file]):
            self._load_fails(capsys, argv, empty)

    @pytest.mark.parametrize("command,text", [
        ("entails", "Enrolled(s) -> Student(s)"),
        ("entails", "Enrolled(s, c) -> Student(s"),
        ("query", "x <- Student(x, y)"),
        ("query", "x <- Student(x"),
    ], ids=["entails-arity", "entails-syntax", "query-arity", "query-syntax"])
    def test_bad_rule_or_query_argument(
        self, rules_file, data_file, capsys, command, text
    ):
        files = {"entails": [rules_file], "query": [rules_file, data_file]}
        assert main([command, *files[command], text]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: cannot parse {text!r}: ")
        assert "Traceback" not in err

    def test_rewrite_rejects_egds_and_denials(self, tmp_path, capsys):
        for head in ("x = y", "false"):
            bad = tmp_path / "mixed.rules"
            bad.write_text(f"R(x) -> P(x)\nP(x), P(y) -> {head}\n")
            self._load_fails(capsys, ["rewrite", str(bad)], bad)
            main(["rewrite", str(bad)])
            assert "line 2 is not a tgd" in capsys.readouterr().err


@pytest.fixture
def rollup_rules_file(tmp_path):
    path = tmp_path / "rollup.txt"
    path.write_text("L0(x, y), L1(y, z) -> A0(x, z)\n")
    return str(path)


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "w.stream"
    assert main(
        ["genworkload", str(path), "--facts", "300", "--levels", "2",
         "--seed", "4"]
    ) == 0
    return str(path)


class TestGenworkload:
    def test_writes_stream_and_summary(self, tmp_path, capsys):
        out = tmp_path / "w.stream"
        assert main(
            ["genworkload", str(out), "--facts", "250", "--seed", "9"]
        ) == 0
        line = capsys.readouterr().out
        assert "wrote 250 facts" in line
        assert "seed=9" in line
        assert out.read_text().startswith("#repro-factstream v1 ")

    def test_identical_seeds_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.stream", tmp_path / "b.stream"
        assert main(["genworkload", str(a), "--facts", "200"]) == 0
        assert main(["genworkload", str(b), "--facts", "200"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_fails_with_message(self, tmp_path, capsys):
        out = tmp_path / "w.stream"
        assert main(["genworkload", str(out), "--levels", "1"]) == 2
        assert "levels" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,field", [
        ("--facts", "0", "facts"),
        ("--facts", "-5", "facts"),
        ("--skew", "-0.5", "skew"),
        ("--violations", "1.5", "violation_rate"),
        ("--violations", "-0.1", "violation_rate"),
    ])
    def test_out_of_range_spec_exits_2(
        self, tmp_path, capsys, flag, value, field
    ):
        """The flags the spec checks (``--levels`` is the case above)."""
        out = tmp_path / "w.stream"
        assert main(["genworkload", str(out), flag, value]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("genworkload: ")
        assert field in lines[0]
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestChaseFromStream:
    def test_reaches_fixpoint_with_sizes_line(
        self, rollup_rules_file, stream_file, capsys
    ):
        assert main(
            ["chase", rollup_rules_file, stream_file, "--from-stream",
             "--no-instance"]
        ) == 0
        out = capsys.readouterr().out
        assert "chase terminated" in out
        assert "instance: " in out and "A0=" in out

    def test_fact_budget_surfaces_cleanly(
        self, rollup_rules_file, stream_file, capsys
    ):
        # The stream alone is past a one-fact budget, so the first
        # firing stops the run.
        assert main(
            ["chase", rollup_rules_file, stream_file, "--from-stream",
             "--no-instance", "--max-facts", "1"]
        ) == 2
        out = capsys.readouterr().out
        assert "budget exhausted (fact_budget): 1 firings" in out
        assert "1 rounds" in out


class TestEntails:
    def test_positive(self, rules_file, capsys):
        code = main(
            ["entails", rules_file, "Enrolled(s, c) -> Student(s)"]
        )
        assert code == 0
        assert "true" in capsys.readouterr().out

    def test_negative(self, rules_file, capsys):
        main(["entails", rules_file, "Student(s) -> Lecturer(s)"])
        assert "false" in capsys.readouterr().out


class TestRewrite:
    def test_failure_case(self, guarded_rules_file, capsys):
        assert main(["rewrite", guarded_rules_file, "--target", "linear"]) == 1
        assert "failure" in capsys.readouterr().out

    def test_success_case(self, tmp_path, capsys):
        path = tmp_path / "lin.txt"
        path.write_text("R(x) -> P(x)\nR(x), P(x) -> T(x)\n")
        assert main(["rewrite", str(path), "--target", "linear"]) == 0
        assert "success" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "target, algorithm",
        [(None, "Algorithm 1 (G-to-L)"), ("guarded", "Algorithm 2 (FG-to-G)")],
    )
    def test_input_outside_the_fragment_exits_2(
        self, tmp_path, capsys, target, algorithm
    ):
        # Example 5.2's composition rule is neither guarded nor
        # frontier-guarded.
        path = tmp_path / "e52.txt"
        path.write_text("R(x, y), S(y, z) -> T(x, z)\n")
        argv = ["rewrite", str(path)]
        if target is not None:
            argv += ["--target", target]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro rewrite: {algorithm} expects")
        assert "R001 error [rule 0]" in captured.err
        assert "witness: z in R(x, y)" in captured.err
        assert "Traceback" not in captured.err


class TestQueryAndAudit:
    def test_query_chase_based(self, rules_file, data_file, capsys):
        assert main(
            ["query", rules_file, data_file, "s <- Student(s)"]
        ) == 0
        out = capsys.readouterr().out
        assert "(ada)" in out and "(bob)" in out

    def test_query_via_rewriting(self, rules_file, data_file, capsys):
        assert main(
            [
                "query",
                rules_file,
                data_file,
                "s <- Student(s)",
                "--via-rewriting",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "UCQ rewriting" in out and "(ada)" in out

    @pytest.mark.parametrize("rules,data,query", [
        (None, None, "s <- Student(s)"),
        (None, None, "s <- HasTutor(s, t)"),
        (None, None, "t <- HasTutor(s, t), Lecturer(t)"),
        (None, None, "HasTutor(s, t), Lecturer(t)"),
        (
            "A(x) -> exists z . R(x, z)\nR(x, y) -> B(y)\n"
            "R(x, y) -> S(y, x)\nS(x, y) -> A(y)\n",
            "A(a). R(b, c). S(d, e)",
            "x <- S(y, x), A(x)",
        ),
        (
            "R(x, y) -> S(y, x)\nS(x, y) -> T(x, y)\n",
            "R(a, b). R(b, c). T(c, c)",
            "x, y <- T(x, y)",
        ),
    ], ids=["unary", "existential-join", "null-answer", "boolean",
            "cycle", "chain"])
    def test_both_ways_print_the_same_answers(
        self, tmp_path, rules_file, data_file, capsys, rules, data, query
    ):
        if rules is not None:
            rules_file = tmp_path / "linear.rules"
            rules_file.write_text(rules)
            data_file = tmp_path / "linear.data"
            data_file.write_text(data)

        def answers(*extra):
            assert main(
                ["query", str(rules_file), str(data_file), query, *extra]
            ) == 0
            out = capsys.readouterr().out
            return out[out.index("certain answers:"):]

        assert answers("--via-rewriting") == answers()

    @pytest.mark.parametrize("second", [
        "R(x, y), R(x, z) -> y = z",
        "R(x, y), S(x, y) -> T(y)",
        "R(x, y), S(x, y) -> false",
    ], ids=["egd", "non-linear-tgd", "denial"])
    def test_via_rewriting_rejects_what_it_cannot_rewrite(
        self, tmp_path, capsys, second
    ):
        rules = tmp_path / "keyed.rules"
        rules.write_text(f"A(x) -> exists z . R(x, z), S(x, z)\n{second}\n")
        data = tmp_path / "keyed.data"
        data.write_text("A(a). R(a, b)")
        argv = ["query", str(rules), str(data), "y <- S(x, y)"]
        if second.endswith("y = z"):
            # the key merges the invented value with b
            assert main(argv) == 0
            assert "(b)" in capsys.readouterr().out
        assert main([*argv, "--via-rewriting"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro query: cannot load {rules}: --via-rewriting needs "
            f"linear tgds, but line 2 is not one: {second}\n"
        )

    @pytest.fixture
    def endless_path(self, tmp_path):
        """An infinite chase whose Boolean 15-edge path query is certain."""
        rules = tmp_path / "endless.rules"
        rules.write_text("R(x, y) -> exists z . R(y, z)\n")
        data = tmp_path / "endless.data"
        data.write_text("R(a, b).")
        query = ", ".join(
            ["R(a, y1)"] + [f"R(y{i}, y{i + 1})" for i in range(1, 15)]
        )
        return [str(rules), str(data), query]

    def test_query_stopped_by_the_chase_budget_exits_2(
        self, endless_path, capsys
    ):
        assert main(["query", *endless_path]) == 2
        assert capsys.readouterr().out == (
            "certain answers:\n"
            "  (none)\n"
            "answers may be incomplete: chase budget exhausted "
            "(round_budget)\n"
        )

    def test_complete_rewriting_answers_the_same_query(
        self, endless_path, capsys
    ):
        assert main(["query", *endless_path, "--via-rewriting"]) == 0
        out = capsys.readouterr().out
        assert "complete=True" in out
        assert out.endswith("certain answers:\n  ()\n")

    def test_incomplete_rewriting_exits_2(self, tmp_path, capsys):
        # a chain deeper than rewrite_ucq's depth cap of 25
        rules = tmp_path / "chain.rules"
        rules.write_text(
            "".join(f"P{i + 1}(x) -> P{i}(x)\n" for i in range(30))
        )
        data = tmp_path / "chain.data"
        data.write_text("P30(a).")
        argv = ["query", str(rules), str(data), "x <- P0(x)"]
        assert main([*argv, "--via-rewriting"]) == 2
        out = capsys.readouterr().out
        assert "complete=False" in out
        assert out.endswith(
            "certain answers:\n  (none)\n"
            "answers may be incomplete: rewriting incomplete\n"
        )
        # the chase reaches its fixpoint and finds the answer
        assert main(argv) == 0
        assert capsys.readouterr().out == "certain answers:\n  (a)\n"

    def test_audit(self, guarded_rules_file, capsys):
        assert main(["audit", guarded_rules_file]) == 0
        out = capsys.readouterr().out
        assert "criticality: holds" in out
        assert "linear" in out

    def test_separations(self, capsys):
        assert main(["separations"]) == 0
        out = capsys.readouterr().out
        assert out.count("separates") == 2


class TestCharacterize:
    def test_characterize_sigma_g(self, guarded_rules_file, capsys):
        assert main(
            ["characterize", guarded_rules_file, "--max-domain", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Theorem 4.1" in out
        assert "linear (Theorem 6.4): no" in out


class TestObservability:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_quiet_suppresses_stdout(self, rules_file, capsys):
        assert main(["classify", rules_file, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_preserves_exit_code(self, guarded_rules_file, capsys):
        code = main(
            ["rewrite", guarded_rules_file, "--target", "linear", "--quiet"]
        )
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_profile_prints_spans_and_counters(self, tmp_path, capsys):
        path = tmp_path / "e9.txt"
        path.write_text("R(x) -> P(x)\nR(x), P(x) -> T(x)\n")
        assert main(
            ["rewrite", str(path), "--target", "linear", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "spans:" in out and "counters:" in out
        assert "rewrite.search" in out
        assert "chase.triggers_fired" in out
        assert "hom.backtracks" in out
        assert "enumeration.candidates" in out

    def test_trace_then_stats_round_trip(self, tmp_path, capsys):
        import json

        rules = tmp_path / "e9.txt"
        rules.write_text("R(x) -> P(x)\nR(x), P(x) -> T(x)\n")
        trace = tmp_path / "out.jsonl"
        assert main(
            ["rewrite", str(rules), "--target", "linear",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        lines = trace.read_text().strip().splitlines()
        assert lines
        for line in lines:
            json.loads(line)  # every line is valid JSON
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "rewrite" in out and "chase" in out
        assert "chase.triggers_fired" in out

    def test_stats_on_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_stats_on_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["stats", str(path)]) == 2
        assert "not valid JSONL" in capsys.readouterr().err

    def test_stats_on_a_line_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.jsonl"
        path.write_text('{"type": "counters", "counters": {}}\n[1,2]\n')
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2: not a JSON object" in err
        assert "Traceback" not in err

    def test_stats_on_counters_that_are_not_a_map(self, tmp_path, capsys):
        path = tmp_path / "counters.jsonl"
        path.write_text('{"type": "counters", "counters": [1]}\n')
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: 'counters' is not a map" in err
        assert "Traceback" not in err

    def test_chase_profile_reports_stop_reason(
        self, rules_file, data_file, capsys
    ):
        assert main(
            ["chase", rules_file, data_file, "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "chase.round" in out
        assert "chase.nulls_created" in out

    def test_profile_prints_histogram_summaries(
        self, rules_file, data_file, capsys
    ):
        assert main(["chase", rules_file, data_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "histograms:" in out
        assert "chase.round_triggers" in out
        assert "p50" in out and "p99" in out

    def test_trace_is_flushed_when_the_engine_raises(
        self, tmp_path, monkeypatch, capsys
    ):
        """The satellite fix: a crash mid-run must still leave a
        readable --trace file (finally + idempotent close)."""
        import json

        import repro.cli as cli
        from repro.telemetry import span

        def exploding(args):
            with span("doomed.work"):
                raise RuntimeError("mid-run crash")

        monkeypatch.setattr(cli, "_cmd_classify", exploding)
        trace = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError, match="mid-run crash"):
            main(["classify", "ignored.txt", "--trace", str(trace)])
        events = [
            json.loads(line)
            for line in trace.read_text().strip().splitlines()
        ]
        spans = [e for e in events if e["type"] == "span"]
        assert [s["name"] for s in spans] == ["doomed.work"]
        assert spans[0]["status"] == "error"
        assert "counters" in {e["type"] for e in events}

    def test_report_writes_run_report_artifact(self, tmp_path, capsys):
        import json

        rules = tmp_path / "e9.txt"
        rules.write_text("R(x) -> P(x)\nR(x), P(x) -> T(x)\n")
        report = tmp_path / "report.json"
        assert main(
            ["rewrite", str(rules), "--target", "linear",
             "--report", str(report)]
        ) == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert data["schema"] == "repro/run-report@1"
        assert data["command"] == "rewrite"
        assert data["config"]["command"] == "rewrite"
        assert data["config"]["target"] == "linear"
        assert data["counters"]["entailment.calls"] > 0
        assert "time.entails" in data["histograms"]
        assert "time.entails" in data["histogram_summary"]
        paths = [entry["path"] for entry in data["span_digest"]]
        assert "rewrite/rewrite.search" in paths
        assert any(p.endswith("entails/chase/chase.round") for p in paths)

    def test_trace_chrome_writes_loadable_trace(
        self, rules_file, data_file, tmp_path, capsys
    ):
        from repro.telemetry import trace_events_of

        trace = tmp_path / "trace.json"
        assert main(
            ["chase", rules_file, data_file, "--trace-chrome", str(trace)]
        ) == 0
        capsys.readouterr()
        events = trace_events_of(str(trace))
        phases = {e["ph"] for e in events}
        assert {"M", "X", "I"} <= phases
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "chase" in names and "chase.round" in names


class TestUnwritableOutput:
    """An output path that cannot be written is bad input: exit 2 with
    one line on stderr, never a traceback (and never exit 1, which means
    a definitive negative answer)."""

    @pytest.mark.parametrize("argv, prefix", [
        (["genworkload", "{out}", "--facts", "50"], "genworkload: "),
        (["lint", "{rules}", "--output", "{out}"], "lint: --output: "),
        (["chase", "{rules}", "{data}", "--trace", "{out}"], "--trace: "),
        (["chase", "{rules}", "{data}", "--trace-chrome", "{out}"],
         "--trace-chrome: "),
        (["chase", "{rules}", "{data}", "--report", "{out}"], "--report: "),
    ], ids=["genworkload", "lint", "trace", "trace-chrome", "report"])
    def test_exits_2_with_one_line(
        self, rules_file, data_file, tmp_path, capsys, argv, prefix
    ):
        out = tmp_path / "missing-dir" / "out"
        argv = [
            arg.format(rules=rules_file, data=data_file, out=out)
            for arg in argv
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(prefix)
        assert str(out) in lines[0]
        assert "Traceback" not in err
        assert not out.parent.exists()


class TestBenchCommand:
    def test_runs_one_family_and_writes_artifact(self, tmp_path, capsys):
        import json

        out = tmp_path / "bench"
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "1",
             "--json", "--out", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "chase-full" in stdout and "best" in stdout
        artifact = out / "BENCH_chase-full.json"
        data = json.loads(artifact.read_text())
        assert data["schema"] == "repro/bench@1"
        assert data["family"] == "chase-full"
        assert data["counters"]["chase.rounds"] >= 1
        assert data["fingerprint"]["python"]

    def test_unknown_family_fails_fast(self, capsys):
        assert main(["bench", "--families", "no-such"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bench: unknown bench family 'no-such'")
        assert err.count("\n") == 1

    def test_malformed_injection_exits_2(self, capsys):
        assert main(
            ["bench", "--families", "chase-full", "--inject", "wall=fast"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("bench: injection factor for 'wall'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "fast"])
    def test_threshold_must_be_finite_and_non_negative(self, value, capsys):
        """A NaN threshold would switch every gate off silently."""
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--families", "chase-full",
                  "--threshold", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --threshold" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [
        "{not json",
        "[1, 2]",
        '{"schema": "repro/bench@1", "family": "chase-full", '
        '"wall_seconds": [0.1], "counters": {"chase.rounds": "many"}}',
        '{"schema": "repro/bench@1", "family": "chase-full", '
        '"wall_seconds": [0.1], "counters": [1]}',
        '{"schema": "repro/bench@1", "family": "rollup", '
        '"wall_seconds": [0.1], "counters": {}}',
    ])
    def test_malformed_baseline_exits_2(self, tmp_path, content, capsys):
        (tmp_path / "BENCH_chase-full.json").write_text(content)
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "1",
             "--compare", str(tmp_path)]
        ) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith(f"bench: {tmp_path}: BENCH_chase-full.json")
        assert err.count("\n") == 1
        # Baselines are checked before any family is measured.
        assert captured.out == ""

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys):
        (tmp_path / "BENCH_chase-full.json").mkdir()
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "1",
             "--compare", str(tmp_path)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bench: {tmp_path}: ")
        assert err.count("\n") == 1

    def test_compare_passes_on_a_fresh_baseline(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "2",
             "--json", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        # generous threshold: the counter gates are exact; the wall gate
        # only needs to tolerate same-machine timer jitter here
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "2",
             "--compare", str(out), "--threshold", "2.0"]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_wall_regression_trips_the_gate(
        self, tmp_path, capsys
    ):
        out = tmp_path / "bench"
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "2",
             "--json", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "2",
             "--compare", str(out), "--threshold", "2.0",
             "--inject", "wall=10"]
        ) == 1
        assert "wall" in capsys.readouterr().out

    def test_injected_probe_regression_trips_the_gate(
        self, tmp_path, capsys
    ):
        out = tmp_path / "bench"
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "1",
             "--json", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "1",
             "--compare", str(out), "--inject", "probes=1.5"]
        ) == 1
        output = capsys.readouterr().out
        assert "hom.index_probes" in output or "chase.triggers" in output

    def test_missing_baseline_fails_with_clear_message(
        self, tmp_path, capsys
    ):
        """A family without a committed baseline is a hard comparison
        failure — exit 1 with the exact file that is missing and the
        command that records it, never a silent pass or a KeyError."""
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "1",
             "--compare", str(empty)]
        ) == 1
        captured = capsys.readouterr()
        assert "no baseline for family 'chase-full'" in captured.err
        assert "BENCH_chase-full.json" in captured.err
        assert "record one with" in captured.err
        assert "missing baseline(s) for: chase-full" in captured.err

    def test_partial_baselines_still_compare_present_families(
        self, tmp_path, capsys
    ):
        """With one family baselined and one missing, the present
        family is still gated (its verdict prints) and the run still
        fails overall on the absent one."""
        out = tmp_path / "bench"
        assert main(
            ["bench", "--families", "chase-full", "--repeat", "1",
             "--json", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["bench", "--families", "chase-full,entails-cold",
             "--repeat", "1", "--compare", str(out),
             "--threshold", "5.0"]
        ) == 1
        captured = capsys.readouterr()
        assert "no baseline for family 'entails-cold'" in captured.err
        assert "missing baseline(s) for: entails-cold" in captured.err
        assert "chase-full" not in captured.err
