"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``classify RULES``            — per-rule classes, widths, weak acyclicity
* ``chase RULES DATA``          — materialize the chase of a database
* ``entails RULES "RULE"``      — decide Σ ⊨ σ (three-valued)
* ``rewrite RULES --target T``  — Algorithm 1 / 2 / full-tgd search
* ``audit RULES``               — the model-theoretic property battery
* ``characterize RULES``        — Theorems 4.1/5.6/6.4/7.4/8.4 verdicts
* ``query RULES DATA "Q"``      — certain answers of a CQ (chase-based;
  ``--via-rewriting`` switches to UCQ rewriting for linear rules)
* ``lint RULES``                — static analysis: fragment
  explanations, termination certificates, hygiene, stratification
  (``--format text|json|sarif`` for CI consumption)
* ``genworkload OUT``           — write a deterministic layered Zipf
  workload as a streaming fact file (chase it back with
  ``chase RULES OUT --from-stream``)
* ``separations``               — re-derive the Section 9.1 separations
* ``bench``                     — run benchmark families; write/compare
  ``BENCH_*.json`` performance-trajectory files (``--compare`` gates
  wall-time and plan-quality regressions)
* ``stats TRACE.jsonl``         — summarize a telemetry trace file

``RULES`` is a file with one dependency per line (``#`` comments);
``DATA`` a file of facts like ``R(a, b). S(b)``.

Observability flags (available on every command):

* ``--profile``        — record spans + counters + histograms, print a
  report after the command output (to stderr under ``--quiet`` or when
  the command raised)
* ``--trace FILE.jsonl`` — stream span events plus final counter and
  histogram records to FILE.jsonl (summarize with
  ``python -m repro stats FILE.jsonl``); flushed even when the engine
  raises mid-run
* ``--trace-chrome FILE.json`` — export the span tree in Chrome
  trace-event format (load in ``chrome://tracing`` or
  ``ui.perfetto.dev``)
* ``--report FILE.json`` — write a schema-versioned ``RunReport``
  artifact: effective configuration, counters, histograms with
  p50/p90/p99 summaries, and a span-tree digest
* ``--quiet``          — suppress normal stdout for script use; the
  exit code carries the answer
* ``--version``        — print the package version and exit

Exit codes:

* ``0`` — success / the definitive answer is positive (``chase``
  reached a fixpoint without failing, ``rewrite`` succeeded,
  ``entails`` produced a definitive verdict, ``stats`` parsed the file)
* ``1`` — definitive negative: the chase failed on a constraint, the
  rewriting target class is unreachable (⊥ or inconclusive), or
  ``lint`` found a diagnostic at or above its ``--fail-on`` threshold
  (default ``error``) — regardless of output format
* ``2`` — undecided: ``entails`` exhausted its chase budget (UNKNOWN),
  or ``chase`` stopped on a round or fact budget before a
  fixpoint (``chase budget exhausted (REASON)``), or ``query``'s
  answers may be incomplete because its chase stopped on the round
  budget or its ``--via-rewriting`` rewriting hit a cap
  (``answers may be incomplete: ...`` after the answers); also bad input, with a one-line message on stderr and no traceback:
  a rules, data or fact-stream file that is missing, unreadable,
  malformed or empty, uses a relation at two arities, or disagrees
  with the rules' arities, a ``rewrite`` file holding egds or
  denial constraints or tgds outside the algorithm's input fragment
  (``repro rewrite: ...``, then the ``R001`` findings), and a
  ``query --via-rewriting`` file holding
  anything but linear tgds (``repro <cmd>: cannot load PATH: ...``); a
  malformed ``entails`` rule or ``query`` argument (``repro <cmd>:
  cannot parse ...``); a ``genworkload`` ``--facts``, ``--levels``,
  ``--skew`` or ``--violations`` value out of range
  (``genworkload: ...``); a ``stats`` trace file that is missing,
  unreadable or malformed — not JSONL, a line that is not an object,
  or a ``counters`` field that is not a map (``stats: ...``); an
  unknown ``bench --families`` name, a malformed ``--inject``, or an
  unreadable or malformed baseline file in ``bench --compare DIR``
  (``bench: ...``); an output path that cannot be written: ``--trace``,
  ``--trace-chrome``, ``--report``, ``lint --output`` or the
  ``genworkload`` file (``--trace: ...``, ``lint: --output: ...``,
  ``genworkload: ...``).  For ``bench``, ``1`` means a regression was
  found or a family has no baseline in DIR

argparse itself exits with ``2`` on usage errors (unknown flags,
invalid choices, out-of-range or non-finite numbers such as
``--max-candidates -1`` or ``--threshold nan``) and ``0``
for ``--help`` / ``--version``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
from pathlib import Path

from .analysis import (
    default_budget,
    render_json,
    render_sarif,
    render_text,
    run_lint,
)
from .chase import chase, weak_acyclicity_report
from .dependencies import (
    TGD,
    TGDClass,
    affected_positions,
    classify,
    is_sticky_set,
    is_weakly_guarded_set,
    set_width,
)
from .entailment import entails
from .instances import Instance, all_instances_up_to
from .lang import (
    format_instance,
    parse_dependency,
    parse_facts,
)
from .ontology import AxiomaticOntology
from .omqa import CQ, chase_certain_answers, rewrite_ucq
from .properties import (
    LocalityMode,
    characterize,
    criticality_report,
    domain_independence_report,
    intersection_closure_report,
    locality_report,
    product_closure_report,
)
from .rewriting import (
    PreflightError,
    frontier_guarded_to_guarded,
    guarded_to_linear,
    rewrite,
    linear_vs_guarded_witness,
    guarded_vs_frontier_guarded_witness,
    verify_separation,
)
from .search import SearchBudget
from .telemetry import (
    TELEMETRY,
    ChromeTraceSink,
    JSONLSink,
    MemorySink,
    build_run_report,
    render_report,
    summarize_jsonl,
)
from . import __version__

__all__ = ["main"]


class _InputError(Exception):
    """An input file could not be loaded; ``main`` reports it and
    exits 2."""


def _load(args, loader, path: str, **options):
    """``loader(path, **options)``, with the ``OSError`` / ``ValueError``
    a missing or malformed file raises turned into an
    :class:`_InputError`.  Only loading is wrapped, so an exception
    from the engine itself still surfaces with its traceback."""
    try:
        return loader(path, **options)
    except (OSError, ValueError) as exc:
        raise _InputError(
            f"repro {args.command}: cannot load {path}: {exc}"
        ) from exc


def _at_least(minimum: int, kind=int):
    """An argparse type: a finite number (an integer unless ``kind``
    says otherwise) that is at least ``minimum``."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(
                f"must be a finite number, got {text}"
            )
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    parse.__name__ = "integer" if kind is int else kind.__name__
    return parse


def _check_arities(relations, where: str, seen: dict) -> None:
    """Record each relation's arity and first use in ``seen``
    (``{name: (arity, place)}``); a relation used at two arities is a
    ``ValueError`` that names both places."""
    for rel in relations:
        arity, first = seen.setdefault(rel.name, (rel.arity, f"on {where}"))
        if arity != rel.arity:
            raise ValueError(
                f"{where}: {rel.name} has arity {rel.arity} here but "
                f"arity {arity} {first}"
            )


def _rule_arities(deps) -> dict:
    """The arity table of loaded rules, for checking data against."""
    return {
        rel.name: (rel.arity, "in the rules")
        for dep in deps
        for rel in dep.schema
    }


def _load_dependencies_with_lines(path: str):
    """Dependencies of a rules file plus the 1-based source line of
    each (for SARIF regions).  A line that does not parse, or that uses
    a relation at another arity than an earlier use, is a
    ``ValueError`` naming the line."""
    deps = []
    lines = []
    seen: dict = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            try:
                dep = parse_dependency(line)
                relations = dep.schema
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from exc
            _check_arities(relations, f"line {number}", seen)
            deps.append(dep)
            lines.append(number)
    if not deps:
        raise ValueError("no dependencies found")
    return deps, lines


def _load_dependencies(path: str):
    return _load_dependencies_with_lines(path)[0]


def _load_instance(path: str, deps=()) -> Instance:
    """A facts file, checked line by line against the arities of
    ``deps`` and of its own earlier lines."""
    seen = _rule_arities(deps)
    facts = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        try:
            found = parse_facts(line)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from exc
        _check_arities(
            (fact.relation for fact in found), f"line {number}", seen
        )
        facts.extend(found)
    from .lang import Schema

    return Instance.from_facts(Schema(f.relation for f in facts), facts)


def _parse_argument(args, parser, text: str, deps):
    """``parser(text)`` for a rule or query given on the command line,
    checked against the arities of ``deps``; a malformed or
    disagreeing argument is an :class:`_InputError`."""
    try:
        parsed = parser(text)
        _check_arities(parsed.schema, "the argument", _rule_arities(deps))
    except ValueError as exc:
        raise _InputError(
            f"repro {args.command}: cannot parse {text!r}: {exc}"
        ) from exc
    return parsed


def _load_stream(path: str, deps) -> Instance:
    """A fact-stream file whose header schema agrees with ``deps``."""
    db = Instance.from_stream(path)
    _check_arities(db.schema, "the stream header", _rule_arities(deps))
    return db


def _cmd_classify(args) -> int:
    deps = _load(args, _load_dependencies, args.rules)
    tgds = [d for d in deps if isinstance(d, TGD)]
    for dep in deps:
        if isinstance(dep, TGD):
            labels = ", ".join(sorted(str(c) for c in classify(dep)))
            n, m = dep.width
            print(f"{dep}\n    classes: {labels}; width: (n={n}, m={m})")
        else:
            print(f"{dep}\n    kind: {type(dep).__name__}")
    if tgds:
        n, m = set_width(tgds)
        print(f"\nset width: TGD_{{{n},{m}}}")
        report = weak_acyclicity_report(tgds)
        print(f"weakly acyclic: {report.weakly_acyclic}")
        if report.cycle:
            print(f"  special cycle through: {report.cycle}")
        print(f"weakly guarded: {is_weakly_guarded_set(tgds)}")
        print(f"sticky: {is_sticky_set(tgds)}")
        affected = sorted(affected_positions(tgds))
        if affected:
            rendered = ", ".join(f"{r}[{i}]" for r, i in affected)
            print(f"affected positions: {rendered}")
    return 0


def _cmd_chase(args) -> int:
    deps = _load(args, _load_dependencies, args.rules)
    loader = _load_stream if args.from_stream else _load_instance
    db = _load(args, loader, args.data, deps=deps)
    max_rounds = args.max_rounds
    if args.certificate == "auto" and max_rounds is not None:
        max_rounds = default_budget(deps, max_rounds)
    result = chase(db, deps, max_rounds=max_rounds, max_facts=args.max_facts)
    status = "failed (constraint violation)" if result.failed else (
        "terminated" if result.terminated else
        f"budget exhausted ({result.stop_reason})"
    )
    print(f"chase {status}: {result.fired} firings, "
          f"{result.nulls_created} nulls, {result.rounds} rounds")
    if args.no_instance:
        sizes = ", ".join(
            f"{rel.name}={len(result.instance.tuples(rel))}"
            for rel in result.instance.schema
            if result.instance.tuples(rel)
        )
        print(f"instance: {sizes or '(empty)'}")
    else:
        print(format_instance(result.instance))
    if result.failed:
        return 1
    return 0 if result.terminated else 2  # 2: a budget stopped it


def _cmd_genworkload(args) -> int:
    from time import perf_counter

    from .workloads.factory import WorkloadSpec, write_workload

    try:
        spec = WorkloadSpec(
            name=Path(args.out).stem,
            seed=args.seed,
            facts=args.facts,
            levels=args.levels,
            skew=args.skew,
            violation_rate=args.violations,
        )
    except ValueError as exc:
        print(f"genworkload: {exc}", file=sys.stderr)
        return 2
    started = perf_counter()
    try:
        rows = write_workload(spec, args.out, batch_size=args.batch_size)
    except OSError as exc:
        print(f"genworkload: {exc}", file=sys.stderr)
        return 2
    elapsed = perf_counter() - started
    rate = rows / elapsed if elapsed > 0 else float("inf")
    print(
        f"wrote {rows} facts to {args.out} "
        f"({elapsed:.2f}s, {rate:,.0f} facts/s, seed={spec.seed}, "
        f"levels={spec.levels}, skew={spec.skew}, "
        f"violations={spec.violation_rate})"
    )
    return 0


def _cmd_entails(args) -> int:
    deps = _load(args, _load_dependencies, args.rules)
    conclusion = _parse_argument(args, parse_dependency, args.rule, deps)
    verdict = entails(deps, conclusion, max_rounds=args.max_rounds)
    print(f"Σ ⊨ {conclusion}: {verdict}")
    return 0 if verdict.is_definite else 2


def _cmd_rewrite(args) -> int:
    tgds, lines = _load(args, _load_dependencies_with_lines, args.rules)
    for dep, number in zip(tgds, lines):
        if not isinstance(dep, TGD):
            raise _InputError(
                f"repro rewrite: cannot load {args.rules}: rewrite "
                f"expects a pure tgd file, but line {number} is not a tgd"
            )
    budget = None
    if args.max_candidates is not None or args.max_seconds is not None:
        budget = SearchBudget(
            max_candidates=args.max_candidates,
            max_seconds=args.max_seconds,
        )
    search_kwargs = dict(minimize=not args.no_minimize, search_budget=budget)
    try:
        if args.target == "linear":
            result = guarded_to_linear(tgds, **search_kwargs)
        elif args.target == "guarded":
            result = frontier_guarded_to_guarded(tgds, **search_kwargs)
        else:
            result = rewrite(tgds, TGDClass.FULL, **search_kwargs)
    except PreflightError as exc:
        print(f"repro rewrite: {exc}", file=sys.stderr)
        for diagnostic in exc.diagnostics:
            print(f"  {diagnostic.render()}", file=sys.stderr)
        return 2
    print(result)
    return 0 if result.succeeded else 1


def _cmd_audit(args) -> int:
    deps = _load(args, _load_dependencies, args.rules)
    ontology = AxiomaticOntology(deps)
    tgds = [d for d in deps if isinstance(d, TGD)]
    n, m = set_width(tgds)
    print(f"ontology over {ontology.schema}, width (n={n}, m={m})")
    space = list(all_instances_up_to(ontology.schema, args.max_domain))
    print(f"instance space: {len(space)} (domain ≤ {args.max_domain})\n")
    print(criticality_report(ontology, max_k=2))
    print(product_closure_report(ontology, max_domain_size=1))
    print(domain_independence_report(ontology, space))
    print(intersection_closure_report(ontology, max_domain_size=1))
    for mode in (
        LocalityMode.GENERAL,
        LocalityMode.LINEAR,
        LocalityMode.GUARDED,
        LocalityMode.FRONTIER_GUARDED,
    ):
        print(locality_report(ontology, n, m, space, mode=mode))
    return 0


def _cmd_query(args) -> int:
    deps, lines = _load(args, _load_dependencies_with_lines, args.rules)
    if args.via_rewriting:
        # the rewriting answers under linear tgds alone: an egd, a
        # denial or a wider tgd would change the certain answers
        for dep, number in zip(deps, lines):
            if not (isinstance(dep, TGD) and dep.is_linear):
                raise _InputError(
                    f"repro query: cannot load {args.rules}: "
                    f"--via-rewriting needs linear tgds, but line {number} "
                    f"is not one: {dep}"
                )
    db = _load(args, _load_instance, args.data, deps=deps)
    query = _parse_argument(args, CQ.parse, args.query, deps)
    if args.via_rewriting:
        result = rewrite_ucq(query, deps)
        print(f"UCQ rewriting ({len(result.ucq)} disjuncts, "
              f"complete={result.complete}):")
        for disjunct in result.ucq:
            print(f"  {disjunct}")
        answers = result.ucq.evaluate(db)
        stopped = None if result.complete else "rewriting incomplete"
    else:
        answers, result = chase_certain_answers(db, deps, query)
        stopped = None if result.terminated else (
            f"chase budget exhausted ({result.stop_reason})"
        )
    print("certain answers:")
    for tup in sorted(answers, key=str):
        print("  (" + ", ".join(str(e) for e in tup) + ")")
    if not answers:
        print("  (none)")
    if stopped is not None:
        print(f"answers may be incomplete: {stopped}")
        return 2
    return 0


def _cmd_characterize(args) -> int:
    deps = _load(args, _load_dependencies, args.rules)
    ontology = AxiomaticOntology(deps)
    tgds = [d for d in deps if isinstance(d, TGD)]
    n, m = set_width(tgds)
    result = characterize(ontology, n, m, max_domain_size=args.max_domain)
    print(result)
    return 0


def _cmd_separations(args) -> int:
    for witness in (
        linear_vs_guarded_witness(),
        guarded_vs_frontier_guarded_witness(),
    ):
        outcome = verify_separation(witness)
        print(outcome)
    return 0


def _cmd_lint(args) -> int:
    deps, lines = _load(args, _load_dependencies_with_lines, args.rules)
    report = run_lint(
        deps,
        entailment=not args.no_entailment,
        deep=args.deep,
    )
    if args.format == "json":
        rendered = render_json(report)
    elif args.format == "sarif":
        rendered = render_sarif(
            report, artifact_uri=args.rules, rule_lines=lines
        )
    else:
        rendered = render_text(report, verbose=args.verbose)
    if args.output is not None:
        try:
            Path(args.output).write_text(rendered + "\n")
        except OSError as exc:
            print(f"lint: --output: {exc}", file=sys.stderr)
            return 2
    else:
        print(rendered)
    return report.exit_code_for(args.fail_on)


def _cmd_bench(args) -> int:
    from .perf import (
        MissingBaselineError,
        apply_injection,
        compare_results,
        load_baseline,
        parse_injection,
        render_regressions,
        resolve_families,
        run_family,
    )

    try:
        families = resolve_families(args.families, smoke_only=args.smoke)
        factors = parse_injection(args.inject)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    # Baselines are read before anything is measured, so a bad file
    # fails at once rather than after the whole run.
    baselines = {}
    missing = []
    if args.compare is not None:
        for family in families:
            try:
                baselines[family.name] = load_baseline(
                    args.compare, family.name
                )
            except MissingBaselineError as exc:
                # A family with no committed baseline is a hard
                # comparison failure, not a silent skip: a new family
                # that never gets baselined would otherwise never gate
                # anything.
                print(f"bench: {exc}", file=sys.stderr)
                missing.append(family.name)
            except (OSError, ValueError) as exc:
                print(f"bench: {args.compare}: {exc}", file=sys.stderr)
                return 2
    out_dir = Path(args.out)
    if args.json:
        out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for family in families:
        result = apply_injection(
            run_family(family, repeats=args.repeat), factors
        )
        results.append(result)
        line = (
            f"{result.family:<22} best {result.best_seconds * 1e3:8.2f}ms "
            f"mean {result.mean_seconds * 1e3:8.2f}ms "
            f"({len(result.wall_seconds)} repeats)"
        )
        facts = result.counters.get("ingest.facts", 0)
        if facts:
            batches = result.counters.get("ingest.batches", 0)
            rate = facts / result.best_seconds
            line += (
                f" ingest {facts} facts/{batches} batches"
                f" ({rate:,.0f} facts/s)"
            )
        print(line)
        if args.json:
            path = result.write(out_dir)
            print(f"  wrote {path}")
    if args.compare is None:
        return 0
    regressions = []
    for result in results:
        baseline = baselines.get(result.family)
        if baseline is not None:
            regressions.extend(
                compare_results(
                    baseline,
                    result,
                    wall_threshold=args.threshold,
                    counter_threshold=args.threshold,
                )
            )
    print(render_regressions(regressions))
    if missing:
        print(
            "bench: missing baseline(s) for: " + ", ".join(missing),
            file=sys.stderr,
        )
        return 1
    return 1 if regressions else 0


def _cmd_stats(args) -> int:
    try:
        print(summarize_jsonl(args.tracefile))
    except (OSError, ValueError) as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="write telemetry span/counter events to FILE.jsonl",
    )
    common.add_argument(
        "--trace-chrome", metavar="FILE.json", default=None,
        help="write the span tree as Chrome trace events "
             "(load in chrome://tracing or ui.perfetto.dev)",
    )
    common.add_argument(
        "--profile", action="store_true",
        help="print a span/counter/histogram report after the command",
    )
    common.add_argument(
        "--report", metavar="FILE.json", default=None,
        help="write a schema-versioned RunReport JSON artifact "
             "(config, counters, histograms, span digest)",
    )
    common.add_argument(
        "--quiet", action="store_true",
        help="suppress normal output (exit code carries the answer)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify", parents=[common], help="classify the rules of a file"
    )
    p.add_argument("rules")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("chase", parents=[common], help="chase a database")
    p.add_argument("rules")
    p.add_argument("data")
    p.add_argument("--max-rounds", type=_at_least(0), default=None)
    p.add_argument(
        "--certificate", choices=("off", "auto"), default="off",
        help="'auto' drops --max-rounds when a termination certificate "
             "guarantees a fixpoint: weak acyclicity, or, for tgd-only "
             "sets, joint, super-weak, model-summarising or "
             "model-faithful acyclicity",
    )
    p.add_argument(
        "--from-stream", action="store_true",
        help="DATA is a fact-stream file (#repro-factstream v1, e.g. "
             "from 'repro genworkload'); ingested in batches instead of "
             "parsed whole",
    )
    p.add_argument(
        "--max-facts", type=_at_least(0), default=None, metavar="N",
        help="stop with a clean 'fact_budget' status when the working "
             "instance grows past N facts",
    )
    p.add_argument(
        "--no-instance", action="store_true",
        help="print per-relation sizes instead of the full instance "
             "(for large streamed runs)",
    )
    p.set_defaults(func=_cmd_chase)

    p = sub.add_parser(
        "genworkload", parents=[common],
        help="write a deterministic layered Zipf workload as a "
             "fact-stream file",
    )
    p.add_argument("out", help="output fact-stream path")
    p.add_argument(
        "--facts", type=int, default=10_000, metavar="N",
        help="base fact count (default 10000; violations add more)",
    )
    p.add_argument(
        "--levels", type=int, default=3, metavar="K",
        help="FK levels L0..L{K-1} (default 3, min 2)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="rng seed; identical seeds give byte-identical files",
    )
    p.add_argument(
        "--skew", type=float, default=1.0, metavar="S",
        help="Zipf exponent for level sizes and parent references "
             "(default 1.0; 0 = uniform)",
    )
    p.add_argument(
        "--violations", type=float, default=0.0, metavar="RATE",
        help="per-row probability of an FD-violating extra parent "
             "(default 0.0)",
    )
    p.add_argument(
        "--batch-size", type=_at_least(1), default=8192, metavar="ROWS",
        help="writer buffer flush size (default 8192)",
    )
    p.set_defaults(func=_cmd_genworkload)

    p = sub.add_parser("entails", parents=[common], help="decide Σ ⊨ σ")
    p.add_argument("rules")
    p.add_argument("rule")
    p.add_argument("--max-rounds", type=_at_least(0), default=None)
    p.set_defaults(func=_cmd_entails)

    p = sub.add_parser("rewrite", parents=[common], help="Algorithms 1 / 2")
    p.add_argument("rules")
    p.add_argument(
        "--target", choices=("linear", "guarded", "full"), default="linear"
    )
    p.add_argument("--no-minimize", action="store_true")
    p.add_argument(
        "--max-candidates", type=_at_least(0), default=None, metavar="K",
        help="search budget: stop after K candidates "
             "(an exhausted budget reports 'inconclusive')",
    )
    p.add_argument(
        "--max-seconds", type=_at_least(0, float), default=None,
        metavar="S",
        help="search budget: stop the candidate scan after S seconds",
    )
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser(
        "audit", parents=[common], help="model-theoretic property battery"
    )
    p.add_argument("rules")
    p.add_argument("--max-domain", type=_at_least(0), default=1)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "query", parents=[common], help="certain answers of a CQ"
    )
    p.add_argument("rules")
    p.add_argument("data")
    p.add_argument("query")
    p.add_argument("--via-rewriting", action="store_true")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "characterize", parents=[common],
        help="which tgd classes axiomatize the ontology",
    )
    p.add_argument("rules")
    p.add_argument("--max-domain", type=_at_least(0), default=2)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser(
        "lint", parents=[common],
        help="static analysis: fragments, certificates, hygiene",
    )
    p.add_argument("rules")
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (SARIF 2.1.0 for CI ingestion)",
    )
    p.add_argument(
        "--no-entailment", action="store_true",
        help="skip the chase-backed subsumption/redundancy passes",
    )
    p.add_argument(
        "--deep", action="store_true",
        help="run the engine-backed deep passes (semantic dead "
             "predicates, escalated subsumption, rewritability hints)",
    )
    p.add_argument(
        "--fail-on", choices=("error", "warning", "info"),
        default="error",
        help="exit 1 when a finding at or above this severity is "
             "present (default: error)",
    )
    p.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the report to FILE instead of stdout",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="repeat the concerned rule under each finding (text format)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "separations", parents=[common], help="re-derive §9.1"
    )
    p.set_defaults(func=_cmd_separations)

    p = sub.add_parser(
        "bench", parents=[common],
        help="run benchmark families; write/compare BENCH_*.json "
             "trajectory files",
    )
    p.add_argument(
        "--families", metavar="A,B|all", default=None,
        help="comma-separated family names (default: all, or the smoke "
             "subset with --smoke)",
    )
    p.add_argument(
        "--smoke", action="store_true",
        help="restrict the default selection to the CI smoke subset",
    )
    p.add_argument(
        "--repeat", type=_at_least(1), default=3, metavar="N",
        help="cold repeats per family (min is the comparison statistic)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="write a BENCH_<family>.json trajectory file per family",
    )
    p.add_argument(
        "--out", metavar="DIR", default=".",
        help="directory for --json artifacts (default: .)",
    )
    p.add_argument(
        "--compare", metavar="DIR", default=None,
        help="compare against baseline BENCH_*.json files in DIR; "
             "exit 1 on any wall-time or plan-quality regression",
    )
    p.add_argument(
        "--threshold", type=_at_least(0, float), default=0.20,
        metavar="FRAC",
        help="regression threshold as a fraction (default 0.20 = +20%%)",
    )
    p.add_argument(
        "--inject", metavar="wall=F,probes=F", default=None,
        help="scale the current measurement synthetically (CI gate "
             "self-test; never applied to written baselines without "
             "your knowledge — injection happens before --json too)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "stats", parents=[common],
        help="summarize a --trace FILE.jsonl telemetry file",
    )
    p.add_argument("tracefile")
    p.set_defaults(func=_cmd_stats)

    return parser


def _run_config(args) -> dict:
    """The command's effective configuration for the RunReport artifact:
    every plain-valued option except the observability plumbing."""
    skip = {
        "func", "command", "profile", "trace", "trace_chrome", "report",
        "quiet",
    }
    config: dict = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, (bool, int, float, str)) or value is None:
            config[key] = value
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    quiet = getattr(args, "quiet", False)
    memory: MemorySink | None = None
    sinks = []
    report_path = getattr(args, "report", None)
    if getattr(args, "profile", False) or report_path:
        memory = MemorySink()
        sinks.append(memory)
    if getattr(args, "trace", None):
        try:
            sinks.append(JSONLSink(args.trace))
        except OSError as exc:
            print(f"--trace: {exc}", file=sys.stderr)
            return 2
    if getattr(args, "trace_chrome", None):
        try:
            sinks.append(ChromeTraceSink(args.trace_chrome))
        except OSError as exc:
            print(f"--trace-chrome: {exc}", file=sys.stderr)
            return 2
    if sinks:
        TELEMETRY.reset()
        TELEMETRY.enable(*sinks)
    code: int | None = None
    try:
        try:
            if quiet:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = args.func(args)
            else:
                code = args.func(args)
        except _InputError as exc:
            print(exc, file=sys.stderr)
            code = 2
    finally:
        # Runs on engine crashes too: disable() flushes the final
        # counter/histogram snapshots to every sink and close()s them
        # (JSONL flush, Chrome trace write), so a partial trace of a
        # failed run is still readable; the profile report and the
        # RunReport artifact are likewise emitted below.
        if sinks:
            TELEMETRY.disable()
        crashed = code is None
        if memory is not None and getattr(args, "profile", False):
            print(
                render_report(memory),
                file=sys.stderr if (quiet or crashed) else sys.stdout,
            )
        if report_path and memory is not None:
            run_report = build_run_report(
                args.command,
                _run_config(args),
                sink=memory,
                counters=memory.counters,
                histograms=memory.histograms,
            )
            try:
                run_report.write(report_path)
            except OSError as exc:
                print(f"--report: {exc}", file=sys.stderr)
                if code is not None:
                    code = 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
