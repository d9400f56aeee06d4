"""Every function, class and method under ``src/repro`` has a caller in
``src/repro``, or is public API named on ``ALLOWLIST``.

A stdlib-``ast`` scan, like ``test_unused_imports.py``.  A definition
counts as called when its name is read somewhere in ``src/repro``: an
``ast.Attribute`` that is not assigned to, a string constant passed to
``getattr``/``hasattr``, or, for anything but a method, an ``ast.Name``
that is not assigned to.  A method is reached only through an object,
so a local variable of the same name is no call of it.  An import alias
and an ``__all__`` string are not uses (a re-export is no caller), and
dunder names are skipped (the interpreter calls them).  Names are
matched, not bindings, so a dead definition sharing its name with a
live one goes unnoticed; a live one is never flagged.

An allowlist key is a dotted name: a definition
(``repro.analysis.lint.LintReport.exit_code``) or a whole public module
or package (``repro.workloads``).  A key covers only definitions whose
top-level name is in some ``__all__``, and every key must still cover a
definition that has no caller, so the list cannot go stale.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ALLOWLIST = {
    # Boolean forms of the termination certificates.
    "repro.analysis.acyclicity.is_jointly_acyclic":
        "joint acyclicity as a predicate (Krötzsch-Rudolph)",
    "repro.analysis.acyclicity.is_super_weakly_acyclic":
        "super-weak acyclicity as a predicate (Marnette)",
    "repro.analysis.semantic.is_msa":
        "model-summarising acyclicity as a predicate",
    "repro.analysis.semantic.is_mfa":
        "model-faithful acyclicity as a predicate",
    "repro.chase.termination.is_weakly_acyclic":
        "weak acyclicity as a predicate (Fagin et al.)",
    "repro.analysis.certificates.Certificate.implies":
        "the order of the certificate lattice (DESIGN.md §8.3)",
    "repro.analysis.lint.LintReport.exit_code":
        "library form of `repro lint`'s default exit status",
    "repro.chase.engine.ChaseResult.run_report":
        "library form of `repro chase --report`: the run's RunReport",
    "repro.chase.provenance.traced_chase":
        "a chase with its firing trace (provenance)",
    "repro.chase.provenance.explain":
        "the derivation tree of one chased fact (provenance)",
    "repro.dependencies.canonical.canonicalize":
        "a tgd's canonical form up to variable renaming",
    "repro.dependencies.canonical.dedup_canonical":
        "a tgd list with renamings dropped",
    "repro.dependencies.edd.EDD.is_dd":
        "Appendix B's dd class, which enumerate_dds and diagram_dd produce",
    "repro.dependencies.enumeration.is_trivial_tgd":
        "the syntactic tautology test (head within body)",
    "repro.dl":
        "description-logic front-end: DL-Lite/EL TBoxes as tgds (Section 1)",
    "repro.entailment.bcq.certain_answer":
        "certain answer of a Boolean CQ over a database and a rule set",
    "repro.entailment.implication.equivalent":
        "logical equivalence of two dependency sets",
    "repro.entailment.implication.entailed_by_empty_theory":
        "tautology test by entailment from the empty set",
    "repro.instances.instance.Instance.add_facts":
        "functional update of an instance",
    "repro.instances.instance.Instance.remove_facts":
        "functional update of an instance",
    "repro.instances.instance.Instance.project_schema":
        "restriction of an instance to a sub-schema",
    "repro.instances.io":
        "instance persistence: CSV directories and null-preserving JSON",
    "repro.instances.neighbourhood.m_neighbourhood":
        "the m-neighbourhood of an element set (Section 6)",
    "repro.instances.operations.direct_product_many":
        "the direct product of several instances (Definition 3.3)",
    "repro.lang.parser.parse_egd": "parser entry point for one egd",
    "repro.lang.parser.parse_edd": "parser entry point for one edd",
    "repro.lang.printer.format_dependencies":
        "printer for a dependency list",
    "repro.lang.printer.format_table": "printer for aligned result tables",
    "repro.memo.memo_sizes":
        "occupancy of every registered memo, beside clear_memos",
    "repro.omqa.cq.certain_answers":
        "chase-based certain answers of a CQ",
    "repro.omqa.rewriting.subsumes": "containment of two CQs",
    "repro.ontology.axiomatic.AxiomaticOntology"
    ".is_tgd_ontology_presentation":
        "whether a presentation is a finite set of tgds",
    "repro.ontology.axiomatic.AxiomaticOntology.tgd_class_width":
        "the least (n, m) of a presentation, read by "
        "examples/characterization_audit.py",
    "repro.ontology.finite.FiniteOntology":
        "ontologies given as explicit instance families (Section 3)",
    "repro.properties.characterize.CharacterizationResult"
    ".axiomatizable_classes":
        "the classes a characterization report certifies",
    "repro.properties.closures.union_closure_report":
        "closure under unions, with a counterexample (Section 9)",
    "repro.properties.closures.disjoint_union_closure_report":
        "closure under disjoint unions, with a counterexample (Section 9)",
    "repro.properties.closures.subinstance_closure_report":
        "closure under subinstances, with a counterexample",
    "repro.properties.diagrams.extract_edd":
        "the edd of a relative diagram (Claim 4.6)",
    "repro.properties.diagrams.find_separating_anchor":
        "a relative diagram separating a non-member (Claim 4.6)",
    "repro.properties.criticality.is_k_critical":
        "k-criticality as an exact predicate (Definition 3.1)",
    "repro.reductions":
        "the Appendix F lower-bound reductions",
    "repro.rewriting.bounds":
        "the §9.2 candidate-count bounds (Theorems 9.1 and 9.2)",
    "repro.rewriting.rewrite.RewriteResult.run_report":
        "library form of `repro rewrite --report`: the run's RunReport",
    "repro.synthesis":
        "the constructive direction of Theorems 4.1 and 5.6",
    "repro.telemetry.traceevent.trace_events_of":
        "reader for a written Chrome trace-event file",
    "repro.workloads":
        "generators and scenarios for examples, tests and bench/",
}


def _module_name(path: Path) -> str:
    parts = ["repro", *path.relative_to(SRC).with_suffix("").parts]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _definitions(tree: ast.AST, prefix: str, in_class: bool = False):
    """(dotted name, bare name, line, is a method) of every def and
    class, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            dotted = f"{prefix}.{node.name}"
            yield dotted, node.name, node.lineno, in_class
            yield from _definitions(
                node, dotted, isinstance(node, ast.ClassDef)
            )
        else:
            yield from _definitions(node, prefix, in_class)


def _uses(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The bare names read, and the attribute names read (an
    ``ast.Attribute`` or a ``getattr``/``hasattr`` string)."""
    names: set[str] = set()
    attributes: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(
            node.ctx, ast.Store
        ):
            attributes.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            attributes.add(node.args[1].value)
    return names, attributes


def _exported(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            }
    return names


def _scan():
    """Every uncalled definition (dotted name -> where), and the names
    exported by some ``__all__``."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }
    names: set[str] = set()
    attributes: set[str] = set()
    exported: set[str] = set()
    for tree in trees.values():
        read_names, read_attributes = _uses(tree)
        names |= read_names
        attributes |= read_attributes
        exported |= _exported(tree)
    uncalled = {}
    for path, tree in trees.items():
        module = _module_name(path)
        for dotted, name, line, method in _definitions(tree, module):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in attributes and (method or name not in names):
                where = f"{path.relative_to(SRC)}:{line}"
                uncalled[dotted] = (module, where)
    return uncalled, exported


def _covering_key(dotted: str, module: str, exported: set[str]):
    top = dotted[len(module) + 1:].split(".")[0]
    if top not in exported:
        return None
    for key in ALLOWLIST:
        if dotted == key or dotted.startswith(key + "."):
            return key
    return None


def test_every_definition_has_a_caller_or_an_allowlist_entry():
    uncalled, exported = _scan()
    unjustified = sorted(
        f"{where}: {dotted}"
        for dotted, (module, where) in uncalled.items()
        if _covering_key(dotted, module, exported) is None
    )
    assert not unjustified, (
        "defined in src/repro but never called there; delete it, move "
        f"it to tests/, or allowlist it as public API: {unjustified}"
    )


def test_every_allowlist_entry_is_needed_and_explained():
    uncalled, exported = _scan()
    needed = {
        _covering_key(dotted, module, exported)
        for dotted, (module, __) in uncalled.items()
    }
    stale = sorted(set(ALLOWLIST) - needed)
    assert not stale, f"allowlisted but called in src/repro, or gone: {stale}"
    unexplained = sorted(
        key for key, reason in ALLOWLIST.items()
        if not reason.strip() or "\n" in reason
    )
    assert not unexplained, unexplained
